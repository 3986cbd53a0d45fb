"""Independent oracles for the exact core: sympy and mpmath.

These libraries are optional; the module is skipped when either is
missing (sympy brings mpmath).  sympy's real-root counting and isolation are checked against
`sturm_count` and `isolate_largest_real_root`, and numerical roots from
mpmath against `unit_circle_census` on a stride of the structure sweep.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from salemforge import polys
from salemforge.algebraic import isolate_largest_real_root, refine
from salemforge.census import unit_circle_census
from salemforge.errors import NoRealRoot
from salemforge.jonquieres import OrbitData, auxiliary_polynomial

import polytools

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")
X = sympy.Symbol("X")


def to_sympy(p):
    return sympy.Poly(list(reversed(p)), X)


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


int_polys = st.lists(st.integers(-9, 9), min_size=2, max_size=8).filter(lambda c: c[-1] != 0)
# squaring a factor gives repeated roots, which both sides count once
repeated = st.tuples(int_polys, int_polys).map(lambda pq: polys.mul(pq[0], polytools.pow_int(pq[1], 2)))
endpoints = st.fractions(min_value=-12, max_value=12, max_denominator=16)


@given(st.one_of(int_polys.map(polys.normalize), repeated), endpoints, endpoints)
@settings(max_examples=120, deadline=None)
def test_sturm_count_matches_sympy_count_roots(p, a, b):
    lo, hi = min(a, b), max(a, b)
    assume(polys.eval_at(p, lo) != 0 and polys.eval_at(p, hi) != 0)
    assert polys.sturm_count(p, lo, hi) == to_sympy(p).count_roots(rational(lo), rational(hi))


@given(st.one_of(int_polys.map(polys.normalize), repeated))
@settings(max_examples=80, deadline=None)
@example(p=(1, -4, 5, 2, -12, 8, 4, -8))
def test_largest_root_matches_sympy_intervals(p):
    sp = to_sympy(p)
    # refined by sympy itself: Poly.refine_root fails on a rational root
    # such as 1/2 of (2X - 1)(X + 1)^2(2X^2 - 2X + 1)^2
    intervals = sp.intervals(eps=sympy.Rational(1, 2**40))
    if not intervals:
        with pytest.raises(NoRealRoot):
            isolate_largest_real_root(p)
        return
    width = Fraction(1, 2**20)
    iv = refine(isolate_largest_real_root(p), width).interval
    assert iv.width <= width
    lo, hi = rational(iv.lo), rational(iv.hi)
    # exactly one distinct root in [lo, hi] and none above it
    assert sp.count_roots(lo, hi) == 1
    assert sp.count_roots(lo, None) == 1
    # an exact root (a, a) may share its endpoint with the interval below it
    (a, b), _ = max(intervals, key=lambda item: (item[0][1], item[0][0]))
    assert max(lo, a) <= min(hi, b)


def sweep_orbits():
    for d in (4, 5):
        for length in range(0, 2 * d - 1):
            for tup in itertools.combinations_with_replacement((2, 3, 4), length):
                yield OrbitData(d, tup)


def numerical_census(p):
    """(inside, on, outside) from mpmath roots of sympy's square-free factors.

    Returns None when a root's modulus is too close to 1 to call.
    """
    on_tol, off_tol = mpmath.mpf(10) ** -25, mpmath.mpf(10) ** -6
    counts = [0, 0, 0]
    with mpmath.workdps(40):
        for factor, mult in to_sympy(p).sqf_list()[1]:
            for r in mpmath.polyroots(factor.all_coeffs(), maxsteps=100, extraprec=100):
                gap = abs(r) - 1
                if abs(gap) < on_tol:
                    counts[1] += mult
                elif abs(gap) < off_tol:
                    return None
                else:
                    counts[0 if gap < 0 else 2] += mult
    return tuple(counts)


SWEEP_STRIDE = 6


def test_census_matches_mpmath_roots_on_sweep():
    checked = 0
    for o in itertools.islice(sweep_orbits(), 0, None, SWEEP_STRIDE):
        p = auxiliary_polynomial(o)
        expect = numerical_census(p)
        if expect is None:
            continue
        c = unit_circle_census(p)
        assert (c.inside, c.on, c.outside) == expect, o
        checked += 1
    assert checked >= 40
