"""Real algebraic numbers as (integer polynomial, isolating interval) pairs.

All decisions are exact: intervals have rational endpoints, root counts come
from Sturm chains, and equality is certified through polynomial gcds.  A
degenerate interval (lo == hi) encodes an exactly known rational root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .errors import NoRealRoot, NoSplitPoint, NotIsolating

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class AlgebraicReal:
    """A real root of `defining`, pinned down by `interval`.

    Invariants: `defining` is primitive and square-free, the closed interval
    contains exactly one of its real roots, and no endpoint is a root --
    except in the degenerate case lo == hi, which stores a rational root
    exactly.
    """

    defining: tuple
    interval: RationalInterval

    @property
    def is_exact(self) -> bool:
        return self.interval.lo == self.interval.hi

    @property
    def exact_value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("the root is only known up to its isolating interval")
        return self.interval.lo

    @staticmethod
    def from_rational(r) -> "AlgebraicReal":
        r = Fraction(r)
        defining = polys.primitive((-r.numerator, r.denominator))
        return AlgebraicReal(defining, RationalInterval(r, r))

    def approx(self) -> float:
        m = (self.interval.lo + self.interval.hi) / 2
        return m.numerator / m.denominator

    def decimal(self, digits: int = 15) -> str:
        """Decimal rendering, correct to the last printed digit or so."""
        a = refine(self, Fraction(1, 10 ** (digits + 2)))
        m = (a.interval.lo + a.interval.hi) / 2
        scaled = m * 10**digits
        q, r = divmod(scaled.numerator, scaled.denominator)
        if 2 * r >= scaled.denominator:
            q += 1
        sign = "-" if q < 0 else ""
        q = abs(q)
        whole, frac = divmod(q, 10**digits)
        return f"{sign}{whole}.{str(frac).zfill(digits)}"


def _split_point(lo: Fraction, hi: Fraction, avoid) -> Fraction:
    """An interior point of (lo, hi) where none of the `avoid` polys vanish."""
    for den in range(2, 64):
        for num in range(1, den):
            x = lo + (hi - lo) * Fraction(num, den)
            if all(polys.eval_at(f, x) != 0 for f in avoid):
                return x
    raise NoSplitPoint("could not find an interior non-root point")


def isolate_largest_real_root(p, width=None) -> AlgebraicReal:
    """Isolate the largest real root of p.

    Raises NoRealRoot when p has none.  If `width` is given, the returned
    interval is refined to at most that width.
    """
    if polys.is_zero(p) or polys.degree(p) == 0:
        raise NoRealRoot("constant polynomial")
    sf = polys.square_free_part(p)
    if polys.degree(sf) == 1:
        root = Fraction(-sf[0], sf[1])
        return AlgebraicReal(sf, RationalInterval(root, root))
    bound = polys.cauchy_bound(sf)
    lo, hi = -bound, bound
    chain = polys.sturm_chain(p)
    v_lo, v_hi = polys.chain_variations_at(chain, lo), polys.chain_variations_at(chain, hi)
    if v_lo - v_hi == 0:
        raise NoRealRoot(f"{polys.poly_to_string(p)} has no real root")
    while v_lo - v_hi > 1:
        m = _split_point(lo, hi, (sf,))
        v_m = polys.chain_variations_at(chain, m)
        if v_m - v_hi >= 1:
            lo, v_lo = m, v_m
        else:
            hi, v_hi = m, v_m
    a = AlgebraicReal(sf, RationalInterval(lo, hi))
    return refine(a, width) if width is not None else a


def refine(a: AlgebraicReal, width, extra_avoid=()) -> AlgebraicReal:
    """Same root, interval width at most `width`.

    Bisects by the sign of the square-free `defining` alone: the interval
    holds exactly one simple root and no endpoint is a root, so the root
    lies in [lo, m] iff the signs at lo and m differ.  The midpoint is
    tried first; if it is a root of `defining` or of a polynomial in
    `extra_avoid` (so callers can force endpoints clear of a gcd), the
    split point comes from `_split_point` instead.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"refinement width must be positive, got {width}")
    if a.is_exact:
        return a
    f = a.defining
    # endpoints as lo/den and hi/den over one integer denominator
    lo, hi, den = polys.common_den(a.interval.lo, a.interval.hi)
    s_lo = polys.sign(polys.eval_hom(f, lo, den))
    if s_lo == 0 or s_lo == polys.sign(polys.eval_hom(f, hi, den)):
        raise NotIsolating(f"{a.interval} does not isolate a simple root of {polys.poly_to_string(f)}")
    while (hi - lo) * width.denominator > width.numerator * den:
        m, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        s_m = polys.sign(polys.eval_hom(f, m, den))
        if s_m == 0 or any(polys.eval_hom(g, m, den) == 0 for g in extra_avoid):
            x = _split_point(Fraction(lo, den), Fraction(hi, den), (f, *extra_avoid))
            scale = x.denominator // math.gcd(den, x.denominator)
            lo, hi, den = lo * scale, hi * scale, den * scale
            m = x.numerator * (den // x.denominator)
            s_m = polys.sign(polys.eval_hom(f, m, den))
        if s_m != s_lo:
            hi = m
        else:
            lo = m
    return AlgebraicReal(f, RationalInterval(Fraction(lo, den), Fraction(hi, den)))


def refine_clear_of(a: AlgebraicReal, g) -> AlgebraicReal:
    """Refine until neither interval endpoint is a root of g."""
    if a.is_exact:
        return a
    while polys.eval_at(g, a.interval.lo) == 0 or polys.eval_at(g, a.interval.hi) == 0:
        a = refine(a, a.interval.width / 2, extra_avoid=(g,))
    return a


def _side_of_rational(r: Fraction, b: AlgebraicReal) -> int:
    """Position of the rational r relative to b's root."""
    if b.is_exact:
        return (r > b.exact_value) - (r < b.exact_value)
    if polys.eval_at(b.defining, r) == 0 and r in b.interval:
        return EQUAL
    while r in b.interval:
        b = refine(b, b.interval.width / 2, extra_avoid=((-r.numerator, r.denominator),))
    return LESS if r < b.interval.lo else GREATER


def compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """Exact trichotomy: LESS, EQUAL or GREATER.

    Equality is certified by a gcd having a root in the intersection of the
    isolating intervals; inequality by interval disjointness.
    """
    if a.is_exact and b.is_exact:
        return (a.exact_value > b.exact_value) - (a.exact_value < b.exact_value)
    if a.is_exact:
        return _side_of_rational(a.exact_value, b)
    if b.is_exact:
        return -_side_of_rational(b.exact_value, a)
    g = None
    check_gcd = True
    while True:
        if a.interval.hi < b.interval.lo:
            return LESS
        if b.interval.hi < a.interval.lo:
            return GREATER
        if g is None:
            g = polys.gcd(a.defining, b.defining)
            check_gcd = polys.degree(g) >= 1
        if check_gcd:
            olo = max(a.interval.lo, b.interval.lo)
            ohi = min(a.interval.hi, b.interval.hi)
            # overlap endpoints are interval endpoints, hence non-roots of
            # the defining polynomials and so of their gcd
            if olo < ohi and polys.sturm_count(g, olo, ohi) >= 1:
                return EQUAL
        a = refine(a, a.interval.width / 2)
        b = refine(b, b.interval.width / 2)


def compare_with_rational(a: AlgebraicReal, r) -> int:
    return compare(a, AlgebraicReal.from_rational(Fraction(r)))
