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


def rational(r) -> AlgebraicReal:
    """The rational r as the root of its linear polynomial, isolated like any root."""
    r = Fraction(r)
    return isolate_largest_real_root((-r.numerator, r.denominator))


def test_isolate_quadratic_against_formula():
    a = refine(isolate_largest_real_root(GOLDEN), Fraction(1, 10**9))
    root = (3 + sqrt_fraction(13, 15)) / 2
    assert polys.eval_at(GOLDEN, a.interval.lo) < 0 < polys.eval_at(GOLDEN, a.interval.hi)
    assert a.interval.lo < root + Fraction(1, 10**9)
    assert a.interval.hi > root - Fraction(1, 10**9)


def test_isolate_rational_root_gets_an_isolating_interval():
    # the Cauchy bound B = 1 + 5 exceeds the root, so [-B, B] isolates it
    a = isolate_largest_real_root((-5, 1))
    assert a.interval == RationalInterval(-6, 6)
    assert compare_with_rational(a, 5) == EQUAL


def test_isolate_quartic_bracket():
    # sign-change oracle: p(3.2) < 0 < p(3.3) for X^4-3X^3-2X-1
    p = (-1, -2, 0, -3, 1)
    assert polys.eval_at(p, Fraction(32, 10)) < 0
    assert polys.eval_at(p, Fraction(33, 10)) > 0
    a = refine(isolate_largest_real_root(p), Fraction(1, 10**6))
    assert Fraction(32, 10) < a.interval.lo and a.interval.hi < Fraction(33, 10)


def test_isolate_no_real_root():
    with pytest.raises(NoRealRoot):
        isolate_largest_real_root((1, 0, 1))


def test_isolate_picks_largest():
    # roots -1, 1/2, 2: largest is 2
    p = polys.mul_many([(1, 1), (-1, 2), (-2, 1)])
    a = refine(isolate_largest_real_root(p), Fraction(1, 1000))
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


@pytest.mark.parametrize("width", [0, Fraction(-1, 2)])
def test_refine_rejects_non_positive_width(width):
    # bisection would never reach a width <= 0
    with pytest.raises(ValueError, match="positive"):
        refine(isolate_largest_real_root(GOLDEN), width)
    with pytest.raises(ValueError, match="positive"):
        refine(rational(5), width)


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
    a, b = rational(x), rational(y)
    expect = (x > y) - (x < y)
    assert compare(a, b) == expect


def test_total_order_on_triples():
    vals = [
        isolate_largest_real_root((-2, 0, 1)),
        isolate_largest_real_root(GOLDEN),
        rational(Fraction(3, 2)),
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
            st.fractions(min_value=0, max_value=8).map(rational),
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
    assert rational(5).decimal(3) == "5.000"


def test_decimal_at_zero_places_and_below():
    # no fraction digits at 0 places, and a typed error below
    lam = isolate_largest_real_root((-1, -4, 1))  # 2 + sqrt(5) = 4.236...
    assert lam.decimal(0) == "4"
    assert lam.decimal(1) == "4.2"
    assert rational(Fraction(-5, 2)).decimal(0) == "-2"
    with pytest.raises(ValueError, match="nonnegative"):
        lam.decimal(-1)


def assert_decimal_rounds_half_up(text, exact, digits):
    # text is the exact value rounded half up at `digits` places, by mpmath
    import mpmath

    q = int(mpmath.floor(exact * 10**digits + mpmath.mpf(1) / 2))
    whole, frac = divmod(abs(q), 10**digits)
    assert text == f"{'-' if q < 0 else ''}{whole}" + (f".{frac:0{digits}d}" if digits else "")


@given(st.integers(-30, 30), st.integers(1, 30), st.integers(-30, 30))
@settings(max_examples=40, deadline=None)
def test_decimal_matches_mpmath(a, b, c):
    # the largest root of a X^2 + b X + c, b^2 - 4ac > 0, at 60 digits
    mpmath = pytest.importorskip("mpmath")
    disc = b * b - 4 * a * c
    if a == 0 or disc <= 0 or math.isqrt(disc) ** 2 == disc:
        return
    root = isolate_largest_real_root((c, b, a))
    with mpmath.workdps(120):
        exact = (-b + mpmath.sign(a) * mpmath.sqrt(disc)) / (2 * a)
        assert_decimal_rounds_half_up(root.decimal(60), exact, 60)


@given(st.integers(-10**6, 10**6), st.sampled_from([0, 1, 7, 15, 60]), st.integers(2, 50))
@settings(max_examples=40, deadline=None)
def test_decimal_near_a_rounding_boundary(k, digits, e):
    # c = (k + 1/2) / 10^digits is a rounding boundary; the roots
    # c -+ sqrt(e) / (2 * 10^(digits+3)) lie within 10^-(digits+2) of it
    mpmath = pytest.importorskip("mpmath")
    if math.isqrt(e) ** 2 == e:
        return
    big, num = 2 * 10 ** (digits + 3), (2 * k + 1) * 1000  # c = num / big
    p = polys.sub(polys.mul((-num, big), (-num, big)), (e,))  # (big X - num)^2 - e
    root = isolate_largest_real_root(p)
    with mpmath.workdps(digits + 40):
        exact = (num + mpmath.sqrt(e)) / big
        assert abs(exact - mpmath.mpf(2 * k + 1) / (2 * 10**digits)) < mpmath.mpf(10) ** -(digits + 2)
        assert_decimal_rounds_half_up(root.decimal(digits), exact, digits)


def test_decimal_rounds_correctly_just_below_a_boundary():
    # 2 + sqrt(5) = 4.23606797749979... lies 2.1e-13 below a rounding
    # boundary at 9 places, inside the 10^-11 interval of the first refinement
    lam = isolate_largest_real_root((-1, -4, 1))
    assert lam.decimal(9) == "4.236067977"
    assert lam.decimal(15) == "4.236067977499790"


def test_decimal_of_a_rational_root_on_a_boundary():
    # 1/8 = 0.125, a root of (8X - 1)(X^2 - 2), on an interval it shares with
    # no other root: no refinement moves both endpoints to one side of it
    a = AlgebraicReal(polys.mul((-1, 8), (-2, 0, 1)), RationalInterval(0, Fraction(1, 2)))
    assert a.decimal(2) == "0.13"
    assert a.decimal(3) == "0.125"
    assert rational(Fraction(-1, 8)).decimal(2) == "-0.12"


def test_degenerate_interval_is_not_isolating():
    # lo == hi holds no sign change, so it isolates nothing, even at a root
    five = AlgebraicReal((-5, 1), RationalInterval(5, 5))
    with pytest.raises(NotIsolating):
        refine(five, Fraction(1, 10))
    with pytest.raises(NotIsolating):
        compare(five, rational(5))
    with pytest.raises(NotIsolating):
        compare(rational(5), five)
    with pytest.raises(NotIsolating):
        compare_with_rational(five, 5)
