"""Dynamical degrees, level membership and ordered prefix enumeration.

The nested level sets are defined inductively: level 1 holds the single
quadratic value for the degree, level 2 the one-parameter family above
d - 1, and level m >= 3 the strictly increasing tuples whose
decremented-truncated tuple (n_2, ..., n_{m-2}, n_{m-1} - 1) belongs to
level m-1 with a strictly smaller value.  Requiring the plain truncation
(n_2, ..., n_{m-1}) to be a member as well defines the same sets, since the
value grows strictly with the last entry (induction on m).

Every order statement rests on one identity: the auxiliary polynomial of
t = (d; n_2, ..., n_m) is P_t = F_t prod_j (X^{n_j} + 1), where
F_t(x) = x^2 - (d-1)x - 1 + x Sigma_t(x) and Sigma_t(x) = sum_j 1/(x^{n_j} + 1).
P_t is monic with largest real root lambda(t), so F_t(r) < 0 at an r > 0
puts lambda(t) above r.  Hence:
- every value exceeds 2: F_t(2) <= 5 - 2d + 2(2d - 2)/5 = (21 - 6d)/5 < 0;
- level 2 lies above d - 1: F_(n)(d-1) = (d-1)/((d-1)^n + 1) - 1 < 0;
- for mu = lambda(S, a - 1), y = mu^(a-1) > 2 and f > a, F_(S,a,f)(mu) =
  mu [1/(mu y + 1) + 1/(mu^f + 1) - 1/(y + 1)] < 0, as (mu - 1) y (mu^2 y + 1)
  - (y + 1)(mu y + 1) = mu (mu^2 - mu - 1) y^2 - 2y - 1 > 0 for mu > 2.
So the value conditions always hold: level m >= 3 is every (n_2, ..., n_m)
with n_2 >= 3, n_{j+1} >= n_j + 2 for j <= m - 2 and n_m >= n_{m-1} + 1 (the
decremented truncation is a member, with n_{m-1} - 1 >= 2), and its least
member (3, 5, ..., 2m - 3, 2m - 2) ends at 2m - 2.  For any two keys,
F_t(lambda_s) = lambda_s B(lambda_s) and F_s(lambda_t) = -lambda_t B(lambda_t)
with the bracket B(x) = (d_s - d_t) + Sigma_t(x) - Sigma_s(x): B < 0 at
lambda_s gives lambda_s < lambda_t, and B > 0 at lambda_t gives lambda_s >
lambda_t.  `compare_keys` reads these one-sided rules off bounds on B;
EQUAL comes only from equal polynomials or from `compare`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from . import polys
from .algebraic import EQUAL, GREATER, LESS, AlgebraicReal, compare, compare_with_rational, memo_slot, refine
from .algebraic import isolate_largest_real_root
from .census import UnitCircleCensus, salem_pisot_label, unit_circle_census
from .errors import BoundTooSmall, CensusContradiction, InvalidKey, StructureViolation, ToleranceNotReached
from .frozen import Frozen, _set, _tuple
from .jonquieres import OrbitData, auxiliary_polynomial

DEFAULT_WIDTH = Fraction(1, 10**12)


class SpectrumKey(Frozen):
    __slots__ = ("d", "tuple")

    def __init__(self, d: int, tuple: tuple = ()):
        _set(self, "d", d)
        _set(self, "tuple", _tuple(tuple))
        if not all(type(n) is int for n in (self.d, *self.tuple)):  # no float, str or bool
            raise InvalidKey(f"spectrum keys need integer d and entries, got {self.d!r}, {self.tuple!r}")
        if self.d < 4:
            raise InvalidKey(f"spectrum keys need d >= 4, got {self.d}")
        if any(n < 2 for n in self.tuple):
            raise InvalidKey(f"spectrum keys need entries >= 2, got {self.tuple}")
        if self.m > 2 * self.d - 1:
            raise InvalidKey(f"m = {self.m} exceeds 2d-1 for d = {self.d}")

    @property
    def m(self) -> int:
        return 1 + len(self.tuple)

    @property
    def orbit(self) -> OrbitData:
        return OrbitData(self.d, self.tuple)

    def polynomial(self) -> tuple:
        return auxiliary_polynomial(self.orbit)


class SpectrumEntry(Frozen):
    __slots__ = ("key", "value", "census", "label")

    def __init__(self, key: SpectrumKey, value: AlgebraicReal, census: UnitCircleCensus, label: str):
        super().__init__(key, value, census, label)


@lru_cache(maxsize=8192)
def _dominant_root(key: SpectrumKey) -> AlgebraicReal:
    value = isolate_largest_real_root(key.polynomial())
    # proved by F_t(2) <= (21 - 6d)/5 < 0 (module docstring), kept as an exact guard
    if compare_with_rational(value, 2) != GREATER:
        raise StructureViolation(f"dominant root must exceed 2 for {key}")
    return value


def dynamical_degree(key: SpectrumKey, width=DEFAULT_WIDTH) -> AlgebraicReal:
    """The dominant root of the key's polynomial, certified > 2."""
    return refine(_dominant_root(key), width)


def level1_value(d: int) -> AlgebraicReal:
    """The single level-1 value: the large root of X^2 - (d-1)X - 1."""
    if d < 4:
        raise InvalidKey(f"level-1 values need d >= 4, got {d}")
    return _dominant_root(SpectrumKey(d))


def _bracket_bounds(const: int, terms: list, root: AlgebraicReal) -> tuple:
    """Integers l <= B(x) * 2**k <= u, some k, for every x > 2 of root's
    interval: B(x) = const + sum c/(x**n + 1) over the (n, c) of `terms`.
    Each term is monotone, so its floored values at the endpoints bound it,
    the upper one raised by 1; 2**k > 2**64 * x**n keeps 64 bits of each."""
    lo, hi, den = polys.common_den(max(root.interval.lo, Fraction(2)), root.interval.hi)
    k = max((n for n, _ in terms), default=0) * (hi.bit_length() - den.bit_length() + 1) + 64
    lower = upper = const << k
    for n, c in terms:
        dn = den**n
        at_lo, at_hi = (c * dn << k) // (lo**n + dn), (c * dn << k) // (hi**n + dn)
        lower += min(at_lo, at_hi)
        upper += max(at_lo, at_hi) + 1
    return lower, upper


@lru_cache(maxsize=1 << 14)
def compare_keys(s: SpectrumKey, t: SpectrumKey) -> int:
    """Exact trichotomy of lambda(s) against lambda(t) by the bracket B.

    Equal d and entry multisets give EQUAL (one polynomial).  Else B < 0 on
    a cell of lambda(s) gives LESS, B > 0 on one of lambda(t) GREATER, each
    undecided round narrowing the cell 16-fold; then `compare` decides.
    Put the key expected to be smaller first: LESS isolates lambda(s) only.
    """
    if s.d == t.d and sorted(s.tuple) == sorted(t.tuple):
        return EQUAL
    terms = [(n, c) for n in set(s.tuple + t.tuple) if (c := t.tuple.count(n) - s.tuple.count(n))]
    for key, verdict in ((s, LESS), (t, GREATER)):
        root = memo_slot(_dominant_root(key)).root
        for _ in range(8):  # 16-fold narrowings of the cell before moving on
            lower, upper = _bracket_bounds(s.d - t.d, terms, root)
            if upper < 0 if verdict == LESS else lower > 0:
                return verdict
            root = refine(root, root.interval.width / 16)
    return compare(_dominant_root(s), _dominant_root(t))


def is_level_member(key: SpectrumKey) -> bool:
    """Membership of the key's tuple in level m, by the closed form."""
    t = key.tuple
    return len(t) < 2 or t[0] >= 3 and all(b >= a + 2 for a, b in zip(t, t[1:-1])) and t[-1] > t[-2]


def _level_tuples(m: int, bound: int):
    """Level-m members with entries <= bound, in lex order: for k = m - 1 >= 1,
    the image of the k-subsets c of {3, ..., bound - k + 2} under the
    order-preserving n_i = c_i + i - 1 (i < k), n_k = c_k + k - 2.  There
    are none, and no work, when bound < 2k = 2m - 2."""
    if m == 1:
        yield ()
        return
    k = m - 1
    for c in itertools.combinations(range(3, bound - k + 3), k):
        yield (*(x + i for i, x in enumerate(c[:-1])), c[-1] + k - 2)


def enumerate_level_prefix(d: int, m: int, limit: int, bound: int) -> list:
    """First `limit` members of the level-m set in lexicographic order.

    Raises StructureViolation unless lexicographic order and exact value
    order agree along the emitted prefix, and BoundTooSmall when fewer than `limit` member
    tuples exist with entries <= bound.
    """
    if not 1 <= m <= 2 * d - 1:
        raise InvalidKey(f"level m = {m} out of range for d = {d}")
    if limit < 1:
        raise InvalidKey(f"limit = {limit} must be at least 1")
    keys = [SpectrumKey(d, t) for t in itertools.islice(_level_tuples(m, bound), limit)]
    if len(keys) < limit:
        raise BoundTooSmall(f"only {len(keys)} members of level {m} found with entries <= {bound}")
    entries = [classify_entry(k) for k in keys]
    for a, b in zip(entries, entries[1:]):
        if compare_keys(a.key, b.key) != LESS:
            raise StructureViolation(f"lex order disagrees with value order at {a.key}, {b.key}")
    return entries


def verify_monotone_increase(key: SpectrumKey, position: int) -> bool:
    """Exact check that incrementing entry `position` increases the value."""
    t = key.tuple
    if not 0 <= position < len(t):
        raise InvalidKey(f"position {position} out of range for {t}")
    bumped = SpectrumKey(key.d, t[:position] + (t[position] + 1,) + t[position + 1 :])
    return compare_keys(key, bumped) == LESS


def verify_append_decrease(key: SpectrumKey, appended: int) -> bool:
    """Exact check that appending an orbit length decreases the value."""
    if appended < 2:
        raise InvalidKey("appended entries must be >= 2")
    extended = SpectrumKey(key.d, key.tuple + (appended,))
    return compare_keys(extended, key) == LESS


class LimitReport(Frozen):
    __slots__ = ("d", "prefix", "first", "last", "gap_bound", "tolerance")

    def __init__(self, d: int, prefix: tuple, first: int, last: int, gap_bound: Fraction, tolerance: Fraction):
        super().__init__(d, prefix, first, last, gap_bound, tolerance)


def verify_limit_convergence(d: int, prefix: tuple, first: int, last: int, tolerance) -> LimitReport:
    """Certify monotone convergence of the extended values to the prefix value.

    The sequence key = (prefix, n) for n in [first, last] must be strictly
    increasing, and the gap between the top of the range and the prefix value
    must be certified below `tolerance`; otherwise ToleranceNotReached
    carries the best bound achieved.
    """
    if first > last:
        raise InvalidKey(f"empty range: first = {first} > last = {last}")
    tolerance = Fraction(tolerance)
    base = SpectrumKey(d, tuple(prefix))
    keys = [SpectrumKey(d, base.tuple + (n,)) for n in range(first, last + 1)]
    if any(compare_keys(a, b) != LESS for a, b in zip(keys, keys[1:])):
        raise StructureViolation(f"monotone increase failed for d = {d}, prefix {prefix}")
    limit_root = _dominant_root(base)
    top = _dominant_root(keys[-1])
    width = tolerance / 4
    for _ in range(40):
        lr = refine(limit_root, width)
        tr = refine(top, width)
        upper = lr.interval.hi - tr.interval.lo
        lower = lr.interval.lo - tr.interval.hi
        if upper < tolerance:
            return LimitReport(d, tuple(prefix), first, last, upper, tolerance)
        if lower >= tolerance:
            raise ToleranceNotReached(f"gap at n = {last} is at least {lower} >= {tolerance}", achieved=lower)
        width /= 16
    raise ToleranceNotReached("gap bound did not stabilise", achieved=upper)


def classify_entry(key: SpectrumKey) -> SpectrumEntry:
    """Census the key's polynomial and attach a Salem/Pisot-style label."""
    poly = key.polynomial()
    census = unit_circle_census(poly)
    if census.outside != 1:
        raise CensusContradiction(f"{census.outside} roots outside the unit circle for {key}")
    value = dynamical_degree(key)
    return SpectrumEntry(key, value, census, salem_pisot_label(poly, value))

