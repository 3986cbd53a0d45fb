"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The structural sweep (criteria 1-3) covers d in {4, 5} and every multiset
of orbit lengths drawn from {2, 3, 4} with 1 <= m <= 2d-1; orderings of a
tuple act by basis permutation and share the characteristic polynomial
(a sample of shuffled orderings is asserted in test_jonquieres), so the
249 nondecreasing representatives carry the whole sweep.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from salemforge import matrices, polys
from salemforge.algebraic import GREATER, LESS, compare, compare_with_rational, refine
from salemforge.census import unit_circle_census
from salemforge.errors import CensusContradiction
from salemforge.jonquieres import (
    OrbitData,
    auxiliary_polynomial,
    defect_matrix,
    intersection_form,
    jonquieres_matrix,
)
from salemforge.realization import (
    check_affine_recursion,
    check_eigen_system,
    realization_points,
    verify_realization,
)
from salemforge.spectrum import (
    SpectrumKey,
    classify_entry,
    dynamical_degree,
    enumerate_level_prefix,
    level1_value,
    verify_append_decrease,
    verify_limit_convergence,
    verify_monotone_increase,
)
from salemforge.weyl import cremona_involution_on, is_weyl_member


def sweep_orbits():
    for d in (4, 5):
        for length in range(0, 2 * d - 1):
            for tup in itertools.combinations_with_replacement((2, 3, 4), length):
                yield OrbitData(d, tup)


@pytest.fixture(scope="module")
def sweep():
    cases = []
    for o in sweep_orbits():
        j = jonquieres_matrix(o)
        cases.append((o, j, matrices.char_poly(j)))
    return cases


def verdict(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


def test_criterion_1_char_factorization(sweep):
    for o, _, char in sweep:
        assert char == polys.mul((-1, 1), auxiliary_polynomial(o)), o
    verdict(1, f"char(J) = (X-1)p exactly on {len(sweep)} sweep cases")


def test_criterion_2_intersection_identity(sweep):
    for o, j, _ in sweep:
        n = o.matrix_size
        q = intersection_form(n)
        h = matrices.mat_sub(
            matrices.mat_mul(matrices.mat_mul(j, q), matrices.transpose(j)), q
        )
        assert h == defect_matrix(o), o
        c = 2 * o.d - 1 - o.m
        assert (h == matrices.zero(n)) == (o.m == 2 * o.d - 1), o
        expected_char = polys.mul(polys.shift(polys.ONE, n - 1), (-2 * c, 1))
        assert matrices.char_poly(h) == expected_char, o
    verdict(2, "J Q J^T - Q = H, H = 0 iff m = 2d-1, char(H) = (X-2(2d-1-m))X^N")


def test_criterion_3_dominant_root_census(sweep):
    for o, _, _ in sweep:
        p = auxiliary_polynomial(o)
        census = unit_circle_census(p)
        assert census.outside == 1, o
        # sign of p at 2 is negative, so the dominant root is real and > 2
        assert polys.eval_at(p, 2) < 0, o
        key = SpectrumKey(o.d, o.tuple)
        value = dynamical_degree(key)
        assert compare_with_rational(value, 2) == GREATER, o
    verdict(3, f"census outside = 1 and dominant root real > 2 on {len(sweep)} cases")


def test_criterion_4_closed_form_anchor():
    width = Fraction(1, 10**12)
    value = dynamical_degree(SpectrumKey(4), width)
    assert value.interval.width <= width
    # independent square-root oracle: isqrt on scaled integers
    digits = 20
    scale = 10**digits
    sqrt13 = Fraction(math.isqrt(13 * scale * scale), scale)
    formula = (3 + sqrt13) / 2
    assert value.interval.lo - Fraction(1, 10**12) <= formula <= value.interval.hi + Fraction(1, 10**12)
    target = Fraction(3302775637731995, 10**15)
    tight = refine(value, Fraction(1, 10**14))
    assert target - Fraction(1, 10**12) < tight.interval.lo
    assert tight.interval.hi < target + Fraction(1, 10**12)
    verdict(4, "lambda(4, ()) matches 3.302775637731995 within 1e-12")


def test_criterion_5_bracket_anchor():
    p = auxiliary_polynomial(OrbitData(4, (2,)))
    assert polys.eval_at(p, Fraction(32, 10)) < 0
    assert polys.eval_at(p, Fraction(33, 10)) > 0
    value = dynamical_degree(SpectrumKey(4, (2,)), Fraction(1, 10**6))
    assert Fraction(32, 10) < value.interval.lo
    assert value.interval.hi < Fraction(33, 10)
    verdict(5, "lambda(4, (2)) certified inside (3.2, 3.3) by exact signs")


def test_criterion_6_monotonicity_and_interleaving():
    rng = random.Random(20240810)
    checked = 0
    while checked < 100:
        d = rng.choice((4, 5))
        length = rng.randrange(1, 4)
        tup = tuple(rng.randrange(2, 9) for _ in range(length))
        key = SpectrumKey(d, tup)
        position = rng.randrange(length)
        assert verify_monotone_increase(key, position), (key, position)
        appended = rng.randrange(2, 9)
        assert verify_append_decrease(key, appended), (key, appended)
        checked += 1
    verdict(6, "increase/append comparisons exact on 100 randomized keys")


def test_criterion_7_limit_convergence():
    report = verify_limit_convergence(4, (), 2, 30, Fraction(1, 10**6))
    assert report.gap_bound < Fraction(1, 10**6)
    verdict(7, f"lambda(4,(n)) increasing on [2,30], final gap < 1e-6 (bound {float(report.gap_bound):.2e})")


def test_criterion_8_order_agreement():
    level2 = enumerate_level_prefix(4, 2, 20, 30)
    level3 = enumerate_level_prefix(4, 3, 10, 30)
    for entries in (level2, level3):
        for a, b in zip(entries, entries[1:]):
            assert compare(a.value, b.value) == LESS
            assert a.key.tuple < b.key.tuple
    top = level1_value(4)
    for e in level2 + level3:
        assert compare_with_rational(e.value, 3) == GREATER
        assert compare(e.value, top) == LESS
    verdict(
        8,
        f"20 members of level 2 and 10 of level 3 ordered; all inside (3, {top.decimal(6)})",
    )


def test_criterion_9_weyl_membership():
    for d in (4, 5, 6):
        o = OrbitData(d, tuple(range(2, 2 * d)))
        assert o.m == 2 * d - 1
        member, trace = is_weyl_member(jonquieres_matrix(o))
        assert member and trace.quadratic_steps == d - 1, d
        assert trace.replay(jonquieres_matrix(o)) == trace.terminal

    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(4, 11)
        cur = matrices.identity(n)
        for _ in range(rng.randrange(0, 13)):
            if rng.random() < 0.5:
                gen = matrices.permutation_matrix((0, *rng.sample(range(1, n), n - 1)), n)
            else:
                gen = cremona_involution_on(tuple(rng.sample(range(1, n), 3)), n)
            cur = matrices.mat_mul(cur, gen)
        member, trace = is_weyl_member(cur)
        assert member
        assert trace.replay(cur) == trace.terminal
        assert matrices.is_permutation_matrix(trace.terminal)
    verdict(9, "J matrices reduce in d-1 quadratic steps; 200 random words certified")


def test_criterion_10_realization_verification():
    for d, tup in ((4, (2, 3, 4, 5, 6, 7)), (5, (2, 3, 4, 5, 6, 7, 8, 9))):
        key = SpectrumKey(d, tup)
        report = verify_realization(key)
        assert report.overall_pass, (d, tup)
        plan = realization_points(key)
        assert check_affine_recursion(plan), (d, tup)
        assert check_eigen_system(plan), (d, tup)
    verdict(10, "both realization keys pass every exact identity")


def test_criterion_11_salem_pisot_dichotomy():
    observed = {}
    for d, tup in ((4, (2, 3, 4, 5, 6, 7)), (5, (2, 3, 4, 5, 6, 7, 8, 9))):
        entry = classify_entry(SpectrumKey(d, tup))  # CensusContradiction = failure
        assert entry.census.outside == 1
        assert entry.label in ("salem_like", "undetermined"), entry
        if entry.label == "undetermined":
            print(f"  residual unexplained factor for {(d, tup)}")
        observed[(d, tup)] = entry.label
    for tup in ((), (2,), (2, 3), (3, 5), (2, 3, 4)):
        entry = classify_entry(SpectrumKey(4, tup))
        assert entry.census.outside == 1
        assert entry.label in ("pisot_like", "undetermined"), entry
        if entry.label == "undetermined":
            print(f"  residual unexplained factor for {(4, tup)}")
        observed[(4, tup)] = entry.label
    assert observed[(4, (2, 3, 4, 5, 6, 7))] == "salem_like"
    assert observed[(5, (2, 3, 4, 5, 6, 7, 8, 9))] == "salem_like"
    assert observed[(4, (2,))] == "pisot_like"
    verdict(11, f"labels: {sorted(set(observed.values()))} with no census contradiction")
