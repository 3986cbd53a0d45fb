"""Isolation, refinement and certified comparison of real algebraic numbers.

The quadratic-formula oracle below fixes expected digits independently of
the bisection path: sqrt(n) digits come from math.isqrt on scaled integers.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemforge import polys
from salemforge.algebraic import (
    EQUAL,
    GREATER,
    LESS,
    AlgebraicReal,
    RationalInterval,
    compare,
    compare_with_rational,
    isolate_largest_real_root,
    _split_point,
    refine,
    refine_clear_of,
)
from salemforge.errors import NoRealRoot, NoSplitPoint, NotIsolating


def sqrt_fraction(n: int, digits: int) -> Fraction:
    """Rational lower approximation of sqrt(n) with `digits` correct digits."""
    scale = 10**digits
    return Fraction(math.isqrt(n * scale * scale), scale)


GOLDEN = (-1, -3, 1)  # X^2 - 3X - 1, largest root (3 + sqrt(13))/2


def test_isolate_quadratic_against_formula():
    a = isolate_largest_real_root(GOLDEN, width=Fraction(1, 10**9))
    root = (3 + sqrt_fraction(13, 15)) / 2
    assert a.interval.lo <= root <= a.interval.hi or abs(a.approx() - float(root)) < 1e-9
    assert a.interval.lo < root + Fraction(1, 10**9)
    assert a.interval.hi > root - Fraction(1, 10**9)


def test_isolate_rational_root_is_exact():
    a = isolate_largest_real_root((-5, 1))
    assert a.is_exact and a.exact_value == 5


def test_isolate_quartic_bracket():
    # sign-change oracle: p(3.2) < 0 < p(3.3) for X^4-3X^3-2X-1
    p = (-1, -2, 0, -3, 1)
    assert polys.eval_at(p, Fraction(32, 10)) < 0
    assert polys.eval_at(p, Fraction(33, 10)) > 0
    a = isolate_largest_real_root(p, width=Fraction(1, 10**6))
    assert Fraction(32, 10) < a.interval.lo and a.interval.hi < Fraction(33, 10)


def test_isolate_no_real_root():
    with pytest.raises(NoRealRoot):
        isolate_largest_real_root((1, 0, 1))


def test_isolate_picks_largest():
    # roots -1, 1/2, 2: largest is 2 (exactly, via a degenerate or tight interval)
    p = polys.mul_many([(1, 1), (-1, 2), (-2, 1)])
    a = isolate_largest_real_root(p, width=Fraction(1, 1000))
    assert a.interval.lo > Fraction(3, 2)
    assert a.interval.hi < Fraction(5, 2)


def test_refine_idempotent_root():
    a = isolate_largest_real_root(GOLDEN)
    b = refine(a, Fraction(1, 10**6))
    c = refine(b, Fraction(1, 10**12))
    assert b.interval.width <= Fraction(1, 10**6)
    assert c.interval.width <= Fraction(1, 10**12)
    assert compare(a, c) == EQUAL
    root = (3 + sqrt_fraction(13, 20)) / 2
    assert c.interval.lo <= root <= c.interval.hi


def test_refine_exact_noop():
    a = AlgebraicReal.from_rational(5)
    assert refine(a, Fraction(1, 10**9)) is a


@pytest.mark.parametrize("width", [0, Fraction(-1, 2)])
def test_refine_rejects_non_positive_width(width):
    # bisection would never reach a width <= 0
    with pytest.raises(ValueError, match="positive"):
        refine(isolate_largest_real_root(GOLDEN), width)
    with pytest.raises(ValueError, match="positive"):
        refine(AlgebraicReal.from_rational(5), width)


def test_split_point_exhausted_is_typed():
    # the zero polynomial vanishes at every candidate point
    with pytest.raises(NoSplitPoint):
        _split_point(Fraction(0), Fraction(1), ((),))


def test_refine_rejects_non_isolating_interval():
    # both roots of X^2-3X-1 lie in [-1, 4]: equal endpoint signs
    wide = AlgebraicReal(GOLDEN, RationalInterval(Fraction(-1), Fraction(4)))
    with pytest.raises(NotIsolating):
        refine(wide, Fraction(1, 10))


def test_compare_reflexive_and_with_rational():
    a = isolate_largest_real_root(GOLDEN)
    assert compare(a, a) == EQUAL
    assert compare_with_rational(a, 3) == GREATER
    assert compare_with_rational(a, 4) == LESS


def test_compare_same_root_different_intervals():
    a = isolate_largest_real_root(GOLDEN)
    b = refine(a, Fraction(1, 10**15))
    assert compare(a, b) == EQUAL


def test_compare_distinct_roots_of_same_poly():
    p = GOLDEN
    big = isolate_largest_real_root(p)
    # the other root is (3-sqrt(13))/2 < 0: isolate by hand
    small = AlgebraicReal(polys.square_free_part(p), RationalInterval(Fraction(-1), Fraction(0)))
    assert compare(small, big) == LESS
    assert compare(big, small) == GREATER


def test_compare_quartic_below_quadratic():
    # largest root of X^4-3X^3-2X-1 is smaller than that of X^2-3X-1
    quartic = isolate_largest_real_root((-1, -2, 0, -3, 1))
    quadratic = isolate_largest_real_root(GOLDEN)
    assert compare(quartic, quadratic) == LESS


def test_compare_equal_roots_through_multiplied_polys():
    # same root hidden in two different defining polynomials
    p = GOLDEN
    q = polys.mul(GOLDEN, (7, 1))  # extra root -7 far away
    a = isolate_largest_real_root(p)
    b = isolate_largest_real_root(q)
    assert compare(a, b) == EQUAL


def test_refine_clear_of():
    a = isolate_largest_real_root(GOLDEN)
    g = (-7, 2)  # root 7/2, may or may not hit an endpoint; must end clear
    b = refine_clear_of(a, g)
    assert polys.eval_at(g, b.interval.lo) != 0
    assert polys.eval_at(g, b.interval.hi) != 0
    assert compare(a, b) == EQUAL


@given(st.integers(2, 97))
@settings(max_examples=30)
def test_sqrt_roots_ordered(n):
    # compare sqrt(n) and sqrt(n+1) via their defining quadratics
    a = isolate_largest_real_root((-n, 0, 1))
    b = isolate_largest_real_root((-(n + 1), 0, 1))
    assert compare(a, b) == LESS
    assert compare(b, a) == GREATER


@given(st.fractions(min_value=-50, max_value=50), st.fractions(min_value=-50, max_value=50))
@settings(max_examples=40)
def test_compare_rationals(x, y):
    a, b = AlgebraicReal.from_rational(x), AlgebraicReal.from_rational(y)
    expect = (x > y) - (x < y)
    assert compare(a, b) == expect


def test_total_order_on_triples():
    vals = [
        isolate_largest_real_root((-2, 0, 1)),
        isolate_largest_real_root(GOLDEN),
        AlgebraicReal.from_rational(Fraction(3, 2)),
        isolate_largest_real_root((-1, -2, 0, -3, 1)),
    ]
    for a in vals:
        assert compare(a, a) == EQUAL
        for b in vals:
            assert compare(a, b) == -compare(b, a)
            for c in vals:
                if compare(a, b) == LESS and compare(b, c) == LESS:
                    assert compare(a, c) == LESS


@given(
    st.lists(
        st.one_of(
            st.integers(2, 40).map(lambda n: isolate_largest_real_root((-n, 0, 1))),
            st.fractions(min_value=0, max_value=8).map(AlgebraicReal.from_rational),
        ),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=40, deadline=None)
def test_total_order_on_random_triples(vals):
    a, b, c = vals
    assert compare(a, b) == -compare(b, a)
    if compare(a, b) == LESS and compare(b, c) == LESS:
        assert compare(a, c) == LESS
    if compare(a, b) == EQUAL and compare(b, c) == EQUAL:
        assert compare(a, c) == EQUAL


def test_decimal_rendering():
    a = isolate_largest_real_root(GOLDEN)
    assert a.decimal(12) == "3.302775637732"
    five = AlgebraicReal.from_rational(5)
    assert five.decimal(3) == "5.000"


def test_exact_value_of_inexact_root_raises():
    # a typed error, which `python -O` cannot strip
    a = isolate_largest_real_root(GOLDEN)
    assert not a.is_exact
    with pytest.raises(ValueError, match="isolating interval"):
        a.exact_value
