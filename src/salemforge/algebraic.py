"""Real algebraic numbers as (integer polynomial, isolating interval) pairs.

All decisions are exact: intervals have rational endpoints, root counts come
from Sturm chains, and equality is certified through polynomial gcds.  A
degenerate interval (lo == hi) encodes an exactly known rational root.
"""

from __future__ import annotations

import math
import threading
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

    def decimal(self, digits: int = 15) -> str:
        """Decimal rendering at `digits` places, correctly rounded half up."""
        scale = 10**digits

        def rounded(x: Fraction) -> int:
            return math.floor(x * scale + Fraction(1, 2))

        width = Fraction(1, 100 * scale)
        a = refine(self, width)
        while (q := rounded(a.interval.lo)) != (up := rounded(a.interval.hi)):
            # the interval, narrower than 1/scale, holds one rounding boundary
            b = (up - Fraction(1, 2)) / scale
            if polys.eval_at(self.defining, b) == 0:
                q = up
                break
            width /= 16
            a = refine(self, width)
        sign = "-" if q < 0 else ""
        whole, frac = divmod(abs(q), scale)
        return f"{sign}{whole}.{str(frac).zfill(digits)}"


def _split_point(lo: Fraction, hi: Fraction, avoid) -> Fraction:
    """An interior point of (lo, hi) where none of the `avoid` polys vanish."""
    for den in range(2, 64):
        for num in range(1, den):
            x = lo + (hi - lo) * Fraction(num, den)
            if all(polys.eval_at(f, x) != 0 for f in avoid):
                return x
    raise NoSplitPoint("could not find an interior non-root point")


# -- the refinement memo ---------------------------------------------------
# A cell (lo, hi, den, s) is [lo/den, hi/den] in integers, s the sign of the
# defining polynomial at lo, which halving never changes.  Midpoint halving
# stays on the dyadic grid of the starting cell.  The memo keeps the deepest
# known cell of a root; a memo cell only ever moves down its grid.

_MEMO: dict = {}  # defining polynomial -> MemoSlot of the first root refined
_MEMO_LOCK = threading.Lock()


class MemoSlot:
    """The deepest known cell of one root; reading it takes no lock."""

    __slots__ = ("defining", "cell")

    def __init__(self, defining: tuple, cell: tuple):
        self.defining, self.cell = defining, cell

    @property
    def root(self) -> AlgebraicReal:
        return _real(self.defining, self.cell)

    def narrow(self, cell, halvings: int) -> tuple:
        """`cell` of this root halved `halvings` times, and kept if deeper."""
        for _ in range(halvings):
            cell = _halve(self.defining, cell)
        _remember(self, cell)
        return cell


def _real(f, cell) -> AlgebraicReal:
    return AlgebraicReal(f, RationalInterval(Fraction(cell[0], cell[2]), Fraction(cell[1], cell[2])))


def _cell(a: AlgebraicReal) -> tuple:
    """a's interval as a cell, checked to bracket a sign change."""
    lo, hi, den = polys.common_den(a.interval.lo, a.interval.hi)
    s = polys.sign(polys.eval_hom(a.defining, lo, den))
    if s == 0 or s == polys.sign(polys.eval_hom(a.defining, hi, den)):
        raise NotIsolating(f"{a.interval} does not isolate a simple root of {polys.poly_to_string(a.defining)}")
    return lo, hi, den, s


def memo_slot(a: AlgebraicReal, cell=None) -> MemoSlot:
    """The memo slot of a.defining if its cell lies within a's interval,
    else a slot of a's own cell, private to the caller; `cell` is a's cell
    if the caller has it.  The first root of a polynomial enters the memo."""
    slot = _MEMO.get(a.defining)
    if slot is None:
        slot = MemoSlot(a.defining, cell := cell or _cell(a))
        with _MEMO_LOCK:
            slot = _MEMO.setdefault(a.defining, slot)
            if len(_MEMO) > 1 << 14:
                del _MEMO[next(iter(_MEMO))]
    c, (lo, hi, den) = slot.cell, polys.common_den(a.interval.lo, a.interval.hi)
    if lo * c[2] <= c[0] * den and c[1] * den <= hi * c[2]:
        return slot
    return MemoSlot(a.defining, cell or _cell(a))


def _descent(anc, cell):
    """(t, k) if `cell` is cell k of level t of the dyadic grid of `anc`, else None."""
    unit = (cell[1] - cell[0]) * anc[2]
    n, r = divmod((anc[1] - anc[0]) * cell[2], unit)
    k, rk = divmod(cell[0] * anc[2] - anc[0] * cell[2], unit)
    return None if r or rk or n & (n - 1) or not 0 <= k < n else (n.bit_length() - 1, k)


def _remember(slot: MemoSlot, cell) -> None:
    """Store `cell` if it lies deeper on the grid of the slot's cell."""
    if cell is not slot.cell:
        with _MEMO_LOCK:
            if (_descent(slot.cell, cell) or (0,))[0]:
                slot.cell = cell


def _halve(f, cell, avoid=()) -> tuple:
    """The half of the cell that holds the root, by one sign of f.  Only a
    midpoint that is a root of f or of a polynomial in `avoid` (from
    `refine_clear_of`) gives way to a `_split_point`, off the grid."""
    lo, hi, den, s = cell
    m, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
    s_m = polys.sign(polys.eval_hom(f, m, den))
    if s_m == 0 or any(polys.eval_hom(g, m, den) == 0 for g in avoid):
        x = _split_point(Fraction(lo, den), Fraction(hi, den), (f, *avoid))
        scale = x.denominator // math.gcd(den, x.denominator)
        lo, hi, den = lo * scale, hi * scale, den * scale
        m = x.numerator * (den // x.denominator)
        s_m = polys.sign(polys.eval_hom(f, m, den))
    # the root lies in [lo, m] iff the signs at lo and m differ
    return (lo, m, den, s) if s_m != s else (m, hi, den, s)


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


def refine(a: AlgebraicReal, width) -> AlgebraicReal:
    """Same root, interval width at most `width`: the cell where plain
    bisection of a's interval stops.

    If a's interval is a grid ancestor of the memo's cell, the answer is
    that cell's ancestor at the stopping level, found by a shift, or
    bisection resumes from that cell.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError(f"refinement width must be positive, got {width}")
    if a.is_exact:
        return a
    f, cell = a.defining, _cell(a)
    slot = memo_slot(a, cell)
    known, (lo, hi, den, _) = slot.cell, cell
    wn, wd = width.numerator, width.denominator
    if down := _descent(cell, known):
        # plain bisection stops at the least level j with cells at most `width` wide
        j, (t, k) = (-(-(hi - lo) * wd // (wn * den)) - 1).bit_length(), down
        if j <= t:
            k >>= t - j
            return _real(f, ((lo << j) + k * (hi - lo), (lo << j) + (k + 1) * (hi - lo), den << j))
        cell = known
    while (cell[1] - cell[0]) * wd > wn * cell[2]:
        cell = _halve(f, cell)
    _remember(slot, cell)
    return _real(f, cell)


# kept: perfbench/tracing.py binds this name
def refine_clear_of(a: AlgebraicReal, g) -> AlgebraicReal:
    """Refine until neither interval endpoint is a root of g, halving the
    width per round.  A midpoint that is a root of g leaves the grid, so
    these cells never enter the memo."""
    if a.is_exact:
        return a
    cell = _cell(a)
    while polys.eval_hom(g, cell[0], cell[2]) == 0 or polys.eval_hom(g, cell[1], cell[2]) == 0:
        width = Fraction(cell[1] - cell[0], 2 * cell[2])
        while Fraction(cell[1] - cell[0], cell[2]) > width:
            cell = _halve(a.defining, cell, (g,))
    return _real(a.defining, cell)


def _side_of_rational(r: Fraction, b: AlgebraicReal) -> int:
    """Position of the rational r relative to b's root."""
    if b.is_exact:
        return (r > b.exact_value) - (r < b.exact_value)
    p, q = r.numerator, r.denominator
    if r in b.interval and polys.eval_hom(b.defining, p, q) == 0:
        return EQUAL
    slot = memo_slot(b)
    cell = slot.cell
    while cell[0] * q < p * cell[2] < cell[1] * q:
        cell = _halve(b.defining, cell)
    _remember(slot, cell)
    return LESS if p * cell[2] <= cell[0] * q else GREATER


def compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """Exact trichotomy: LESS, EQUAL or GREATER.

    Both roots start from their deepest known cells, and the wider cell is
    halved until the two are disjoint.  Equality is certified at the first
    overlap, by the gcd of the defining polynomials having a root there:
    the overlap's endpoints are cell endpoints, hence no roots of the gcd,
    and a root of the gcd inside both cells is the root of each.
    """
    if a.is_exact and b.is_exact:
        return (a.exact_value > b.exact_value) - (a.exact_value < b.exact_value)
    if a.is_exact:
        return _side_of_rational(a.exact_value, b)
    if b.is_exact:
        return -_side_of_rational(b.exact_value, a)
    sa, sb, g = memo_slot(a), memo_slot(b), None
    ca, cb = sa.cell, sb.cell
    while not (ca[1] * cb[2] < cb[0] * ca[2] or cb[1] * ca[2] < ca[0] * cb[2]):
        if g is None:
            g = polys.gcd(a.defining, b.defining)
            olo = max(Fraction(ca[0], ca[2]), Fraction(cb[0], cb[2]))
            ohi = min(Fraction(ca[1], ca[2]), Fraction(cb[1], cb[2]))
            if polys.degree(g) >= 1 and olo < ohi and polys.sturm_count(g, olo, ohi) >= 1:
                return EQUAL
        if (ca[1] - ca[0]) * cb[2] >= (cb[1] - cb[0]) * ca[2]:
            ca = _halve(a.defining, ca)
        else:
            cb = _halve(b.defining, cb)
    _remember(sa, ca)
    _remember(sb, cb)
    return LESS if ca[1] * cb[2] < cb[0] * ca[2] else GREATER


def compare_with_rational(a: AlgebraicReal, r) -> int:
    return compare(a, AlgebraicReal.from_rational(Fraction(r)))
