"""Dynamical degrees, level membership, enumeration and the proof identities.

Decimal anchors come from the quadratic formula via integer square roots;
the two polynomial recurrences are asserted as exact identities, which is
how the monotonicity statements are proved in the first place.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemforge import polys, spectrum
from salemforge.algebraic import EQUAL, GREATER, LESS, compare, compare_with_rational
from salemforge.census import unit_circle_census
from salemforge.errors import BoundTooSmall, InvalidKey, StructureViolation, ToleranceNotReached
from salemforge.jonquieres import OrbitData, auxiliary_polynomial
from salemforge.spectrum import (
    LimitReport,
    SpectrumKey,
    classify_entry,
    dynamical_degree,
    enumerate_level_prefix,
    is_level_member,
    level1_value,
    verify_append_decrease,
    verify_limit_convergence,
    verify_monotone_increase,
)

from test_census import oracle_label
import polytools


def oracle_is_level_member(key):
    """Membership by the inductive definition, with exact root comparisons."""
    m = key.m
    if m == 1:
        return True
    if m == 2:
        return compare_with_rational(spectrum._dominant_root(key), key.d - 1) == GREATER
    t = key.tuple
    if any(a >= b for a, b in zip(t, t[1:])):
        return False
    if t[-2] - 1 < 2:
        return False
    smaller = t[:-2] + (t[-2] - 1,)
    smaller_key = SpectrumKey(key.d, smaller)
    if not oracle_is_level_member(smaller_key):
        return False
    return compare(spectrum._dominant_root(smaller_key), spectrum._dominant_root(key)) == LESS


def oracle_level_tuples(d, m, bound):
    """Lexicographically ordered member tuples with entries <= bound, by root comparisons."""
    if m == 1:
        yield ()
        return
    if m == 2:
        for n2 in range(2, bound + 1):
            if oracle_is_level_member(SpectrumKey(d, (n2,))):
                yield (n2,)
        return
    if bound < m:  # m - 1 entries rising strictly from 2 end at m or above
        return
    for q in oracle_level_tuples(d, m - 1, bound):
        prefix = q[:-1] + (q[-1] + 1,)
        if prefix[-1] > bound:
            continue
        lower = spectrum._dominant_root(SpectrumKey(d, q))
        for f in range(prefix[-1] + 1, bound + 1):
            key = SpectrumKey(d, prefix + (f,))
            if compare(lower, spectrum._dominant_root(key)) == LESS:
                yield key.tuple


def sqrt_fraction(n, digits):
    scale = 10**digits
    return Fraction(math.isqrt(n * scale * scale), scale)


def test_key_validation():
    with pytest.raises(InvalidKey):
        SpectrumKey(3)
    with pytest.raises(InvalidKey):
        SpectrumKey(4, (1,))
    with pytest.raises(InvalidKey):
        SpectrumKey(4, (2,) * 7)
    SpectrumKey(4, (2, 3, 4))


def test_key_needs_integers():
    for d, tup in ((4.0, ()), (4.5, ()), ("4", ()), (4, "2"), (4, (2.9,)), (4, (3.0,)), (4, (True, 2))):
        with pytest.raises(InvalidKey, match="integer"):
            SpectrumKey(d, tup)
    assert SpectrumKey(4, [2, 3]).tuple == (2, 3)


def test_dynamical_degree_quadratic_anchor():
    v = dynamical_degree(SpectrumKey(4), Fraction(1, 10**9))
    target = (3 + sqrt_fraction(13, 14)) / 2
    assert abs(Fraction(v.interval.lo + v.interval.hi, 2) - target) < Fraction(1, 10**8)
    assert v.decimal(7) == "3.3027756"


def test_dynamical_degree_d5():
    v = dynamical_degree(SpectrumKey(5), Fraction(1, 10**9))
    target = 2 + sqrt_fraction(5, 14)
    assert abs(Fraction(v.interval.lo + v.interval.hi, 2) - target) < Fraction(1, 10**8)
    assert v.decimal(7) == "4.2360680"


def test_dynamical_degree_bracket():
    v = dynamical_degree(SpectrumKey(4, (2,)), Fraction(1, 10**6))
    assert Fraction(32, 10) < v.interval.lo and v.interval.hi < Fraction(33, 10)


def test_level1_value():
    a = level1_value(4)
    assert compare(a, dynamical_degree(SpectrumKey(4))) == EQUAL
    assert a.defining == (-1, -3, 1)
    b = level1_value(5)
    assert b.decimal(6) == "4.236068"
    with pytest.raises(InvalidKey):
        level1_value(3)


def test_is_level_member_base_cases():
    assert is_level_member(SpectrumKey(4))
    assert is_level_member(SpectrumKey(4, (2,)))  # 3.2269... > 3
    assert is_level_member(SpectrumKey(5, (2,)))


@pytest.mark.parametrize("d, m, bound", [(4, 3, 12), (4, 4, 12), (5, 4, 10), (5, 5, 9)])
def test_is_level_member_matches_level_tuples(d, m, bound):
    # the closed-form membership test against the root-based enumeration, on every tuple
    members = set(oracle_level_tuples(d, m, bound))
    for t in itertools.product(range(2, bound + 1), repeat=m - 1):
        assert is_level_member(SpectrumKey(d, t)) == (t in members), t


def test_is_level_member_level3_threshold():
    # (3, n3) qualifies once its value exceeds the value of (2)
    member_flags = [is_level_member(SpectrumKey(4, (3, n3))) for n3 in range(4, 12)]
    assert any(member_flags)
    first = member_flags.index(True)
    assert all(member_flags[first:])
    # (2, n3) can never qualify: the decremented tuple (1) is not a valid key
    assert not is_level_member(SpectrumKey(4, (2, 9)))
    # non-increasing tuples are excluded
    assert not is_level_member(SpectrumKey(4, (4, 4)))


@pytest.mark.parametrize("d,m,limit,bound", [(4, 4, 20, 30), (5, 4, 20, 25)])
def test_level_members_have_member_truncations(d, m, limit, bound):
    # the value grows strictly with the last entry, so a member's plain
    # truncation is a member too: requiring it would define the same sets
    for e in enumerate_level_prefix(d, m, limit, bound):
        assert is_level_member(SpectrumKey(d, e.key.tuple[:-1])), e.key


def test_enumerate_level1():
    entries = enumerate_level_prefix(4, 1, 1, 10)
    assert len(entries) == 1 and entries[0].key.tuple == ()


def test_enumerate_level2_prefix():
    entries = enumerate_level_prefix(4, 2, 5, 10)
    assert [e.key.tuple for e in entries] == [(2,), (3,), (4,), (5,), (6,)]
    for a, b in zip(entries, entries[1:]):
        assert compare(a.value, b.value) == LESS


def test_enumerate_bound_too_small():
    with pytest.raises(BoundTooSmall):
        enumerate_level_prefix(4, 2, 10, 5)


@pytest.mark.parametrize(
    "d,m,limit,bound,message",
    [
        # m > bound: the level is empty, and no generator nests 1500 deep to find that
        (1000, 1500, 1, 3, "only 0 members of level 1500 found with entries <= 3"),
        (4, 5, 1, 4, "only 0 members of level 5 found with entries <= 4"),
    ],
)
def test_enumerate_level_past_the_bound_is_empty(d, m, limit, bound, message):
    with pytest.raises(BoundTooSmall, match=f"^{message}$"):
        enumerate_level_prefix(d, m, limit, bound)


def test_enumerate_level3_prefix():
    entries = enumerate_level_prefix(4, 3, 4, 25)
    tuples = [e.key.tuple for e in entries]
    assert all(len(t) == 2 and t[0] < t[1] for t in tuples)
    assert tuples == sorted(tuples)
    for a, b in zip(entries, entries[1:]):
        assert compare(a.value, b.value) == LESS
    # every level-3 value sits strictly between the level-2 neighbours
    for e in entries:
        n2 = e.key.tuple[0]
        below = dynamical_degree(SpectrumKey(4, (n2 - 1,)))
        above = dynamical_degree(SpectrumKey(4, (n2,)))
        assert compare(below, e.value) == LESS
        assert compare(e.value, above) == LESS


def test_monotone_increase_examples():
    assert verify_monotone_increase(SpectrumKey(4, (2,)), 0)
    assert verify_monotone_increase(SpectrumKey(4, (2, 4)), 1)
    assert verify_monotone_increase(SpectrumKey(5, (3,)), 0)


@pytest.mark.parametrize("position", [-1, 2])
def test_monotone_increase_position_out_of_range_raises(position):
    # -1 would bump the last entry and 2 would index past the tuple
    with pytest.raises(InvalidKey, match="position"):
        verify_monotone_increase(SpectrumKey(4, (2, 3)), position)


def test_append_decrease_examples():
    assert verify_append_decrease(SpectrumKey(4), 2)
    assert verify_append_decrease(SpectrumKey(4, (2,)), 3)
    assert verify_append_decrease(SpectrumKey(5), 2)


def test_limit_convergence_quick():
    report = verify_limit_convergence(4, (), 2, 12, Fraction(1, 100))
    assert report.gap_bound < Fraction(1, 100)


def test_dominant_root_not_above_two_raises(monkeypatch):
    # each certificate is an exact check that must hold under python -O too
    monkeypatch.setattr(spectrum, "compare_with_rational", lambda value, r: LESS)
    with pytest.raises(StructureViolation, match="dominant root must exceed 2"):
        spectrum._dominant_root.__wrapped__(SpectrumKey(4, (2,)))


def test_enumeration_order_disagreement_raises(monkeypatch):
    # level 2 membership compares with d-1 only, so just the order check sees this
    monkeypatch.setattr(spectrum, "compare_keys", lambda s, t: GREATER)
    with pytest.raises(StructureViolation, match="lex order disagrees with value order"):
        enumerate_level_prefix(4, 2, 3, 10)


def test_limit_convergence_not_increasing_raises(monkeypatch):
    monkeypatch.setattr(spectrum, "compare_keys", lambda s, t: GREATER)
    with pytest.raises(StructureViolation, match="monotone increase failed"):
        verify_limit_convergence(4, (), 2, 12, Fraction(1, 100))


def test_limit_convergence_zero_tolerance_raises():
    with pytest.raises(ValueError, match="positive"):
        verify_limit_convergence(4, (), 2, 3, 0)


def test_limit_convergence_empty_range_raises():
    with pytest.raises(InvalidKey, match="empty range"):
        verify_limit_convergence(4, (), 5, 4, Fraction(1, 10**6))


def test_limit_convergence_not_reached():
    with pytest.raises(ToleranceNotReached) as exc:
        verify_limit_convergence(4, (), 2, 3, Fraction(1, 10**9))
    assert exc.value.achieved is not None
    assert exc.value.achieved >= Fraction(1, 10**9)


def test_classify_entries():
    e = classify_entry(SpectrumKey(4))
    assert (e.census.inside, e.census.on, e.census.outside) == (1, 0, 1)
    assert e.label == "pisot_like"

    e2 = classify_entry(SpectrumKey(4, (2,)))
    assert e2.census.outside == 1 and e2.label == "pisot_like"

    e3 = classify_entry(SpectrumKey(4, (2, 3, 4, 5, 6, 7)))
    assert e3.census.outside == 1
    assert e3.label == "salem_like"
    assert e3.census.on >= 1


def sweep_keys():
    # the 249 orbit data of the acceptance sweep (criteria 1-3)
    for d in (4, 5):
        for length in range(0, 2 * d - 1):
            for tup in itertools.combinations_with_replacement((2, 3, 4), length):
                yield SpectrumKey(d, tup)


def one_census_removed(key):
    """classify_entry against a second census and the stripping oracle; returns the stripped factors."""
    p = key.polynomial()
    entry = classify_entry(key)
    label, _, removed = oracle_label(p)
    assert entry.census == unit_circle_census(p), key
    assert entry.label == label, key
    return removed


def test_classify_entry_one_census_on_sweep():
    keys = list(sweep_keys())
    assert len(keys) == 249
    removed = [one_census_removed(k) for k in keys]
    assert sum(map(bool, removed)) == 233  # most keys strip, some do not


@pytest.mark.parametrize(
    "key,removed",
    [(SpectrumKey(5, (7, 7, 10)), [(2, 1), (14, 1)]), (SpectrumKey(4, (5, 5, 6)), [(2, 1), (10, 1)])],
)
def test_classify_entry_one_census_on_stripping_keys(key, removed):
    assert one_census_removed(key) == removed


def test_classified_values_in_window():
    # every enumerated level >= 2 value lies in (d-1, level-1 value)
    for e in enumerate_level_prefix(4, 2, 4, 10):
        assert compare_with_rational(e.value, 3) == GREATER
        assert compare(e.value, level1_value(4)) == LESS


def test_level_prefixes_disjoint():
    seen = []
    for d, m, limit, bound in ((4, 1, 1, 5), (4, 2, 4, 10), (4, 3, 3, 25), (5, 2, 3, 10)):
        seen.extend(enumerate_level_prefix(d, m, limit, bound))
    for i, a in enumerate(seen):
        for b in seen[i + 1 :]:
            assert compare(a.value, b.value) != EQUAL


def test_sampled_keys_census_and_dominance():
    rng = random.Random(6)
    for _ in range(20):
        d = rng.choice((4, 5))
        length = rng.randrange(0, 4)
        tup = tuple(rng.randrange(2, 9) for _ in range(length))
        key = SpectrumKey(d, tup)
        from salemforge.census import unit_circle_census

        census = unit_circle_census(key.polynomial())
        assert census.outside == 1
        assert compare_with_rational(dynamical_degree(key), 2) == GREATER


def _prod_blocks(tup, skip=None):
    blocks = [polys.binomial_xn_plus_1(n) for i, n in enumerate(tup) if i != skip]
    return polytools.mul_many(blocks)


def test_increase_recurrence_identity():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.choice((4, 5))
        length = rng.randrange(1, 4)
        tup = tuple(rng.randrange(2, 9) for _ in range(length))
        k = rng.randrange(length)
        bumped = tup[:k] + (tup[k] + 1,) + tup[k + 1 :]
        p = auxiliary_polynomial(OrbitData(d, tup))
        pk = auxiliary_polynomial(OrbitData(d, bumped))
        lhs = polys.mul(polys.binomial_xn_plus_1(tup[k]), pk)
        rhs = polys.sub(
            polys.mul(polys.binomial_xn_plus_1(tup[k] + 1), p),
            polys.mul(polys.mul((-1, 1), polys.shift(polys.ONE, tup[k] + 1)), _prod_blocks(tup, skip=k)),
        )
        assert lhs == rhs


def test_append_recurrence_identity():
    rng = random.Random(4)
    for _ in range(25):
        d = rng.choice((4, 5))
        length = rng.randrange(0, 4)
        tup = tuple(rng.randrange(2, 9) for _ in range(length))
        a = rng.randrange(2, 9)
        p = auxiliary_polynomial(OrbitData(d, tup))
        pa = auxiliary_polynomial(OrbitData(d, tup + (a,)))
        rhs = polys.add(
            polys.mul(polys.binomial_xn_plus_1(a), p),
            polys.shift(_prod_blocks(tup), 1),
        )
        assert pa == rhs


def test_limit_convergence_pinned():
    # the paper's accumulation object: the level-2 values (4, (n,)) rise to
    # the level-1 value; pinned to the report of plain bisection from the
    # isolating intervals, and again once the memo holds deeper cells
    expect = LimitReport(4, (), 2, 30, Fraction(1, 4194304), Fraction(1, 10**6))
    assert verify_limit_convergence(4, (), 2, 30, Fraction(1, 10**6)) == expect
    dynamical_degree(SpectrumKey(4), Fraction(1, 10**40))
    dynamical_degree(SpectrumKey(4, (30,)), Fraction(1, 10**40))
    assert verify_limit_convergence(4, (), 2, 30, Fraction(1, 10**6)) == expect


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 7).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(1, 12), max_size=2 * d - 2))))
def test_orbit_sum_identity(dt):
    # P_t = Pi_t (X^2 - (d-1)X - 1) + X sum_j Pi_t/(X^{n_j} + 1), the identity
    # P_t = Pi_t F_t behind every order statement of spectrum
    d, tup = dt
    blocks = [polys.binomial_xn_plus_1(n) for n in tup]
    pi = polytools.mul_many(blocks)
    rhs = polys.mul(pi, (-1, -(d - 1), 1))
    for b in blocks:
        rhs = polys.add(rhs, polys.shift(polys.divexact(pi, b), 1))
    assert auxiliary_polynomial(OrbitData(d, tup)) == rhs


def random_key(rng, d=None):
    d = d or rng.choice((4, 5, 6))
    return SpectrumKey(d, tuple(rng.randrange(2, 10) for _ in range(rng.randrange(0, 4))))


def key_pairs(rng, n):
    # random pairs, most with different d or entries; permuted and
    # equal-multiset pairs, near neighbours and equal-d pairs mixed in
    for i in range(n):
        s = random_key(rng)
        kind = i % 4
        if kind == 0:
            t = random_key(rng)
        elif kind == 1:
            t = SpectrumKey(s.d, tuple(rng.sample(s.tuple, len(s.tuple))))
        elif kind == 2:
            t = random_key(rng, s.d)
        else:
            t = SpectrumKey(s.d, s.tuple + (rng.randrange(2, 30),))
        yield (s, t) if rng.random() < 0.5 else (t, s)


def test_compare_keys_matches_compare():
    spectrum.compare_keys.cache_clear()
    verdicts = set()
    for s, t in key_pairs(random.Random(31), 240):
        verdict = spectrum.compare_keys(s, t)
        assert verdict == compare(spectrum._dominant_root(s), spectrum._dominant_root(t)), (s, t)
        verdicts.add(verdict)
    assert verdicts == {LESS, EQUAL, GREATER}


def test_compare_keys_undecided_bracket_falls_back_to_compare(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return compare(a, b)

    spectrum.compare_keys.cache_clear()
    monkeypatch.setattr(spectrum, "_bracket_bounds", lambda const, terms, root: (-1, 1))
    monkeypatch.setattr(spectrum, "compare", counted)
    try:
        pairs = list(key_pairs(random.Random(32), 40))
        for s, t in pairs:
            expect = compare(spectrum._dominant_root(s), spectrum._dominant_root(t))
            assert spectrum.compare_keys(s, t) == expect, (s, t)
        # equal multisets of one d need no certificate; every other pair needs compare's
        assert len(calls) == sum(s.d != t.d or sorted(s.tuple) != sorted(t.tuple) for s, t in pairs) > 0
    finally:
        spectrum.compare_keys.cache_clear()


def test_bracket_decides_the_acceptance_stream(monkeypatch):
    # criterion 6's 100 draws with every ordering of each tuple (the
    # spectrum-order benchmark reorders them), and its level prefix, with
    # compare unreachable: each verdict comes from the bracket
    def unreachable(a, b):
        raise AssertionError("compare_keys fell back to compare")

    spectrum.compare_keys.cache_clear()
    monkeypatch.setattr(spectrum, "compare", unreachable)
    try:
        rng = random.Random(20240810)
        for _ in range(100):
            d = rng.choice((4, 5))
            length = rng.randrange(1, 4)
            tup = tuple(rng.randrange(2, 9) for _ in range(length))
            position, appended = rng.randrange(length), rng.randrange(2, 9)
            for order in itertools.permutations(range(length)):
                key = SpectrumKey(d, tuple(tup[i] for i in order))
                assert verify_monotone_increase(key, order.index(position)), (key, position)
                assert verify_append_decrease(key, appended), (key, appended)
        assert [e.key.tuple for e in enumerate_level_prefix(4, 3, 10, 30)] == list(itertools.islice(
            spectrum._level_tuples(3, 30), 10))
    finally:
        spectrum.compare_keys.cache_clear()


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("m, bound", [(2, 25), (3, 25), (4, 16), (5, 12)])
def test_level_tuples_closed_form_matches_oracle(d, m, bound):
    assert list(spectrum._level_tuples(m, bound)) == list(oracle_level_tuples(d, m, bound))


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 6).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.integers(2, 14), min_size=1, max_size=2 * d - 2),
    st.integers(2, 4),
    st.lists(st.integers(1, 3), max_size=2 * d - 3),
)))
def test_is_level_member_closed_form_matches_oracle(draw):
    # a random tuple, and one rising from 2..4 by 1..3 per entry, which sits
    # on both sides of the closed form's bounds, up to m = 2d - 1
    d, tup, first, rises = draw
    for t in (tuple(tup), tuple(itertools.accumulate([first, *rises]))):
        key = SpectrumKey(d, t)
        assert is_level_member(key) == oracle_is_level_member(key), key


@pytest.mark.parametrize("d", [4, 5, 6])
def test_least_level_members_match_oracle(d):
    # the least member (3, 5, ..., 2m-3, 2m-2) of every level m >= 3 up to
    # 2d - 1, and each tuple one below it in a single entry
    for m in range(3, 2 * d):
        least = tuple(range(3, 2 * m - 2, 2)) + (2 * m - 2,)
        assert least == next(spectrum._level_tuples(m, 2 * m - 2))
        for t in [least] + [least[:i] + (least[i] - 1,) + least[i + 1 :] for i in range(m - 1)]:
            key = SpectrumKey(d, t)
            assert is_level_member(key) == oracle_is_level_member(key) == (t == least), key
