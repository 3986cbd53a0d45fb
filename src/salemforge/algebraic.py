"""Real algebraic numbers as (integer polynomial, isolating interval) pairs.

All decisions are exact: intervals have rational endpoints, root counts come
from Sturm chains, and equality is certified through polynomial gcds.  A
rational root is held in an isolating interval like any other root.
"""

from __future__ import annotations

import itertools
import math
import operator
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


@dataclass(frozen=True)
class AlgebraicReal:
    """A real root of `defining`, pinned down by `interval`.

    Invariants: `defining` is primitive and square-free, the closed interval
    contains exactly one of its real roots, and no endpoint is a root, so
    lo < hi.
    """

    defining: tuple
    interval: RationalInterval

    def decimal(self, digits: int = 15) -> str:
        """Decimal rendering at `digits` >= 0 places, correctly rounded half up."""
        if digits < 0:
            raise ValueError(f"decimal places must be nonnegative, got {digits}")
        scale = 10**digits
        a = refine(self, Fraction(1, 100 * scale))
        q, up = (math.floor(x * scale + Fraction(1, 2)) for x in (a.interval.lo, a.interval.hi))
        # the interval, narrower than 1/scale, holds at most one rounding boundary
        if q != up and compare_with_rational(self, (up - Fraction(1, 2)) / scale) != LESS:
            q = up
        sign = "-" if q < 0 else ""
        whole, frac = divmod(abs(q), scale)
        return f"{sign}{whole}.{frac:0{digits}d}" if digits else f"{sign}{whole}"


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

    __slots__ = ("defining", "cell", "_powers")

    def __init__(self, defining: tuple, cell: tuple):
        self.defining, self.cell, self._powers = defining, cell, None

    @property
    def root(self) -> AlgebraicReal:
        return _real(self.defining, self.cell)

    def sign(self, g) -> int:
        """Exact sign of the nonzero polynomial g at this root.

        Two dot products with the power table of the current cell decide
        most signs; each undecided round narrows the cell 2**-20 and keeps
        it.  After three such rounds `vanishes_at` certifies a zero or rules
        it out, so a zero verdict never rests on an interval.
        """
        cell = self.cell
        for undecided in itertools.count(1):
            table = self._powers
            if table is None or table[0] != cell or len(table[1]) < len(g):
                # one assignment, so a reader sees a whole table with its cell
                self._powers = table = _power_table(cell, max(len(g), len(table[1]) if table else 0))
            c = sum(map(operator.mul, g, table[1]))
            if abs(c) > sum(map(operator.mul, map(abs, g), table[2])):
                return 1 if c > 0 else -1
            if undecided == 3 and vanishes_at(g, _real(self.defining, cell)):
                return 0
            for _ in range(20):
                cell = _halve(self.defining, cell)
            _remember(self, cell)


def _power_table(cell, n) -> tuple:
    """(cell, mid, rad) for x**k on the cell [lo/den, hi/den], k < n.

    With B = den.bit_length() + 32, x**k lies in [l_k, h_k] / 2**B for
    every x of the cell, each bound rounded outward: [lo**k, hi**k] for
    k = 0, odd k or lo >= 0; [hi**k, lo**k] for even k on a cell with
    hi <= 0; [0, max(lo**k, hi**k)] for even k on a cell holding 0.
    mid_k = l_k + h_k and rad_k = h_k - l_k, so g(x) * 2**(B+1) lies
    within sum |g_k| * rad_k of sum g_k * mid_k.
    """
    lo, hi, den = cell[:3]
    lk = hk = 1 << (den.bit_length() + 32)
    dk, mid, rad = 1, [], []
    for k in range(n):
        if k % 2 or lo >= 0 or not k:
            l, h = lk // dk, -(-hk // dk)
        else:  # even k >= 2, lo < 0: x**k falls to 0 or to hi**k
            l, h = hk // dk if hi <= 0 else 0, -(-max(lk, hk) // dk)
        mid.append(l + h)
        rad.append(h - l)
        lk, hk, dk = lk * lo, hk * hi, dk * den
    return cell, tuple(mid), tuple(rad)


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


def isolate_largest_real_root(p) -> AlgebraicReal:
    """Isolate the largest real root of p; raises NoRealRoot when p has none."""
    if polys.is_zero(p) or polys.degree(p) == 0:
        raise NoRealRoot("constant polynomial")
    sf = polys.square_free_part(p)
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
    return AlgebraicReal(sf, RationalInterval(lo, hi))


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
    cell = _cell(a)
    while polys.eval_hom(g, cell[0], cell[2]) == 0 or polys.eval_hom(g, cell[1], cell[2]) == 0:
        width = Fraction(cell[1] - cell[0], 2 * cell[2])
        while Fraction(cell[1] - cell[0], cell[2]) > width:
            cell = _halve(a.defining, cell, (g,))
    return _real(a.defining, cell)


def compare(a: AlgebraicReal, b: AlgebraicReal) -> int:
    """Exact trichotomy: LESS, EQUAL or GREATER.

    Both roots start from their deepest known cells, and the wider cell is
    halved until the two are disjoint.  Equality is certified at the first
    overlap, by the gcd of the defining polynomials having a root there:
    the overlap's endpoints are cell endpoints, hence no roots of the gcd,
    and a root of the gcd inside both cells is the root of each.
    """
    sa, sb, overlapped = memo_slot(a), memo_slot(b), False
    ca, cb = sa.cell, sb.cell
    while not (ca[1] * cb[2] < cb[0] * ca[2] or cb[1] * ca[2] < ca[0] * cb[2]):
        if not overlapped:
            overlapped = True
            olo = max(Fraction(ca[0], ca[2]), Fraction(cb[0], cb[2]))
            ohi = min(Fraction(ca[1], ca[2]), Fraction(cb[1], cb[2]))
            if _common_root_in(a.defining, b.defining, olo, ohi):
                return EQUAL
        if (ca[1] - ca[0]) * cb[2] >= (cb[1] - cb[0]) * ca[2]:
            ca = _halve(a.defining, ca)
        else:
            cb = _halve(b.defining, cb)
    _remember(sa, ca)
    _remember(sb, cb)
    return LESS if ca[1] * cb[2] < cb[0] * ca[2] else GREATER


def compare_with_rational(a: AlgebraicReal, r) -> int:
    """Exact trichotomy of a against the rational r, by at most one sign.

    r at or outside a's deepest known cell is decided by the endpoints,
    which are no roots.  Inside, the root is r if the defining polynomial
    vanishes there, and lies above r if its sign at r is the one at lo.
    """
    r = Fraction(r)
    p, q = r.numerator, r.denominator
    lo, hi, den, s = memo_slot(a).cell
    if p * den <= lo * q:
        return GREATER
    if p * den >= hi * q:
        return LESS
    v = polys.sign(polys.eval_hom(a.defining, p, q))
    return EQUAL if v == 0 else GREATER if v == s else LESS


def _common_root_in(f, g, lo, hi) -> bool:
    """Whether f and g share a root in [lo, hi]: the gcd of f and g has one
    there by a Sturm count.  Each endpoint must be no root of f or of g,
    hence none of the gcd."""
    common = polys.gcd(f, g)
    return polys.degree(common) >= 1 and polys.sturm_count(common, lo, hi) >= 1


def vanishes_at(g, a: AlgebraicReal) -> bool:
    """The zero certificate: g(a) == 0 iff g and a.defining share a root in
    a's interval, whose endpoints are no roots of a.defining."""
    return _common_root_in(g, a.defining, a.interval.lo, a.interval.hi)
