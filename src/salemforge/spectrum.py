"""Dynamical degrees, level membership and ordered prefix enumeration.

The nested level sets are defined inductively: level 1 holds the single
quadratic value for the degree, level 2 the one-parameter family above
d - 1, and level m >= 3 the strictly increasing tuples whose
decremented-truncated tuple (n_2, ..., n_{m-2}, n_{m-1} - 1) belongs to
level m-1 with a strictly smaller value.  Requiring the plain truncation
(n_2, ..., n_{m-1}) to be a member as well defines the same sets, since the
value grows strictly with the last entry (induction on m).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebraic import (
    GREATER,
    LESS,
    AlgebraicReal,
    compare,
    compare_with_rational,
    isolate_largest_real_root,
    refine,
)
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
    value = isolate_largest_real_root(auxiliary_polynomial(OrbitData(key.d, key.tuple)))
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


def is_level_member(key: SpectrumKey) -> bool:
    """Decide membership of the key's value in the level-m set."""
    m = key.m
    if m == 1:
        return True
    if m == 2:
        return compare_with_rational(_dominant_root(key), key.d - 1) == GREATER
    t = key.tuple
    if any(a >= b for a, b in zip(t, t[1:])):
        return False
    if t[-2] - 1 < 2:
        return False
    smaller = t[:-2] + (t[-2] - 1,)
    smaller_key = SpectrumKey(key.d, smaller)
    if not is_level_member(smaller_key):
        return False
    return compare(_dominant_root(smaller_key), _dominant_root(key)) == LESS


def _level_tuples(d: int, m: int, bound: int):
    """Lexicographically ordered member tuples with entries <= bound."""
    if m == 1:
        yield ()
        return
    if m == 2:
        for n2 in range(2, bound + 1):
            if is_level_member(SpectrumKey(d, (n2,))):
                yield (n2,)
        return
    for q in _level_tuples(d, m - 1, bound):
        prefix = q[:-1] + (q[-1] + 1,)
        if prefix[-1] > bound:
            continue
        lower = _dominant_root(SpectrumKey(d, q))
        for f in range(prefix[-1] + 1, bound + 1):
            key = SpectrumKey(d, prefix + (f,))
            if compare(lower, _dominant_root(key)) == LESS:
                yield key.tuple


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
    keys = []
    for t in _level_tuples(d, m, bound):
        keys.append(SpectrumKey(d, t))
        if len(keys) == limit:
            break
    if len(keys) < limit:
        raise BoundTooSmall(
            f"only {len(keys)} members of level {m} found with entries <= {bound}"
        )
    entries = [classify_entry(k) for k in keys]
    for a, b in zip(entries, entries[1:]):
        if compare(a.value, b.value) != LESS:
            raise StructureViolation(f"lex order disagrees with value order at {a.key}, {b.key}")
    return entries


def verify_monotone_increase(key: SpectrumKey, position: int) -> bool:
    """Exact check that incrementing entry `position` increases the value."""
    t = key.tuple
    if not 0 <= position < len(t):
        raise InvalidKey(f"position {position} out of range for {t}")
    bumped = SpectrumKey(key.d, t[:position] + (t[position] + 1,) + t[position + 1 :])
    return compare(_dominant_root(key), _dominant_root(bumped)) == LESS


def verify_append_decrease(key: SpectrumKey, appended: int) -> bool:
    """Exact check that appending an orbit length decreases the value."""
    if appended < 2:
        raise InvalidKey("appended entries must be >= 2")
    extended = SpectrumKey(key.d, key.tuple + (appended,))
    return compare(_dominant_root(extended), _dominant_root(key)) == LESS


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
    roots = [_dominant_root(k) for k in keys]
    if any(compare(a, b) != LESS for a, b in zip(roots, roots[1:])):
        raise StructureViolation(f"monotone increase failed for d = {d}, prefix {prefix}")
    limit_root = _dominant_root(base)
    top = roots[-1]
    width = tolerance / 4
    gap = None
    for _ in range(40):
        lr = refine(limit_root, width)
        tr = refine(top, width)
        upper = lr.interval.hi - tr.interval.lo
        lower = lr.interval.lo - tr.interval.hi
        if upper < tolerance:
            gap = upper
            break
        if lower >= tolerance:
            raise ToleranceNotReached(
                f"gap at n = {last} is at least {lower} >= {tolerance}", achieved=lower
            )
        width /= 16
    if gap is None:
        raise ToleranceNotReached("gap bound did not stabilise", achieved=upper)
    return LimitReport(d, tuple(prefix), first, last, gap, tolerance)


def classify_entry(key: SpectrumKey) -> SpectrumEntry:
    """Census the key's polynomial and attach a Salem/Pisot-style label."""
    poly = key.polynomial()
    census = unit_circle_census(poly)
    if census.outside != 1:
        raise CensusContradiction(
            f"{census.outside} roots outside the unit circle for {key}"
        )
    value = dynamical_degree(key)
    return SpectrumEntry(key, value, census, salem_pisot_label(poly, value))

