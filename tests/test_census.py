"""Unit-circle censuses.

Random inputs are built as products of factors with root locations known by
construction (rational roots, circle pairs z^2 - az + 1 with |a| < 2,
complex pairs of modulus sqrt(m/k)), which is the independent oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemforge import census as cen
from salemforge import polys
from salemforge.census import UnitCircleCensus, unit_circle_census
from salemforge.errors import CensusContradiction


def C(i, o, u):
    return UnitCircleCensus(i, o, u)


def test_roots_of_unity():
    assert unit_circle_census((1, 0, 1)) == C(0, 2, 0)
    assert unit_circle_census(polys.cyclotomic(12)) == C(0, 4, 0)
    assert unit_circle_census((-1, 1)) == C(0, 1, 0)


def test_golden_quadratic():
    # roots (3 +- sqrt(13))/2: one in, one out (their product is -1)
    assert unit_circle_census((-1, -3, 1)) == C(1, 0, 1)


def test_quartic_dominant_root():
    assert unit_circle_census((-1, -2, 0, -3, 1)) == C(3, 0, 1)


def test_origin_roots_count_inside():
    p = polys.mul((0, 1), (-2, 1))  # X(X-2)
    assert unit_circle_census(p) == C(1, 0, 1)


def test_multiplicities():
    p = polys.mul(polys.pow_int((-1, 1), 2), (1, 1))  # (X-1)^2 (X+1)
    assert unit_circle_census(p) == C(0, 3, 0)


def test_reciprocal_pair_without_circle_roots():
    # (z-2)(2z-1): self-inversive but no roots on the circle
    p = polys.mul((-2, 1), (-1, 2))
    assert unit_circle_census(p) == C(1, 0, 1)


def test_equal_end_coefficients_without_reciprocal_pair():
    # roots 2, 3, 1/6: |a_0| == |a_lead| like every auxiliary polynomial's
    # factors, yet there is no reciprocal pair to extract
    p = polys.mul_many([(-2, 1), (-3, 1), (-1, 6)])
    assert unit_circle_census(p) == C(1, 0, 2)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9),
)
@settings(max_examples=60, deadline=None)
def test_chebyshev_series_identity(coeffs, z):
    # with c = (z + 1/z)/2: T_j(c) = (z^j + z^-j)/2 and
    # U_{j-1}(c) (z - 1/z)/2 = (z^j - z^-j)/2, the identities both halves use
    c = (z + 1 / z) / 2
    even = polys.eval_at(cen._chebyshev_series(coeffs, cen._chebyshev_t), c)
    odd = polys.eval_at(cen._chebyshev_series(coeffs, cen._chebyshev_u), c) * (z - 1 / z) / 2
    assert even == sum(a * (z**j + z**-j) / 2 for j, a in enumerate(coeffs))
    assert odd == sum(a * (z ** (j + 1) - z ** -(j + 1)) / 2 for j, a in enumerate(coeffs))


# --- randomized factored inputs with known censuses ---------------------

rational_roots = st.tuples(st.integers(-9, 9), st.integers(1, 9))

circle_pairs = st.integers(-3, 3)  # z^2 - a z + 1 with |a| <= 2·1

modulus_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(-3, 3))


def known_factors():
    def from_rational(ab):
        a, b = ab
        loc = C(1, 0, 0) if abs(a) < b else (C(0, 1, 0) if abs(a) == b else C(0, 0, 1))
        return (-a, b), loc

    def from_circle(a):
        if abs(a) >= 2:
            return None
        return (1, -a, 1), C(0, 2, 0)

    def from_modulus(mka):
        m, k, a = mka
        if a * a >= 4 * m * k:
            return None  # roots real, covered by the rational generator
        loc = C(2, 0, 0) if m < k else (C(0, 2, 0) if m == k else C(0, 0, 2))
        return (m, -a, k), loc

    return st.one_of(
        rational_roots.map(from_rational),
        circle_pairs.map(from_circle),
        modulus_pairs.map(from_modulus),
    ).filter(lambda v: v is not None)


@given(st.lists(known_factors(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_census_matches_constructed_roots(factors):
    p = polys.ONE
    expect = C(0, 0, 0)
    for f, loc in factors:
        p = polys.mul(p, f)
        expect = expect + loc
    assert unit_circle_census(p) == expect


@given(st.lists(known_factors(), min_size=1, max_size=3), st.lists(known_factors(), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_census_additive_over_products(fs, gs):
    p = polys.mul_many([f for f, _ in fs])
    q = polys.mul_many([g for g, _ in gs])
    assert unit_circle_census(polys.mul(p, q)) == unit_circle_census(p) + unit_circle_census(q)


@given(st.lists(rational_roots, min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_winding_matches_constructed_roots(roots):
    # the winding count needs a cofactor without circle roots
    roots = [(a, b) for a, b in roots if abs(a) != b]
    if not roots:
        return
    p = polys.mul_many([(-a, b) for a, b in roots])
    expect = sum(1 for a, b in roots if abs(a) < b)
    assert cen._winding_inside(p) == expect


def inversion_closed_factors():
    """Palindromic factors with known censuses, plus z - 1 and z + 1."""

    def circle_pair(ka):
        k, a = ka  # k z^2 - a z + k, |a| < 2k: a conjugate pair on the circle
        return ((k, -a, k), C(0, 2, 0)) if abs(a) < 2 * k else None

    def real_pair(pq):
        p, q = pq  # (q z - p)(p z - q): roots p/q and q/p
        return (polys.mul((-p, q), (-q, p)), C(1, 0, 1)) if abs(p) != q else None

    def quadruple(mka):
        m, k, a = mka  # complex roots of modulus sqrt(k/m) and their inverses
        if m == k or a * a >= 4 * m * k:
            return None
        return polys.mul((k, -a, m), (m, -a, k)), C(2, 0, 2)

    return st.one_of(
        st.tuples(st.integers(1, 4), st.integers(-7, 7)).map(circle_pair),
        st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 6)).map(real_pair),
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(-4, 4)).map(quadruple),
        st.sampled_from([((-1, 1), C(0, 1, 0)), ((1, 1), C(0, 1, 0))]),
    ).filter(lambda v: v is not None)


@given(st.lists(inversion_closed_factors(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_self_inversive_census_matches_constructed_roots(factors):
    s = polys.mul_many([f for f, _ in factors])
    assume(polys.degree(polys.gcd(s, polys.derivative(s))) == 0)
    expect = C(0, 0, 0)
    for _, loc in factors:
        expect = expect + loc
    assert cen._census_self_inversive(s) == expect


@pytest.mark.parametrize("s", [(1, 2, 3), (1, -2, 1), (2, 1, 1, 2, 5)])
def test_self_inversive_census_rejects_non_palindrome(s):
    # (1, -2, 1) = (z - 1)^2 keeps odd degree once one z - 1 is stripped
    with pytest.raises(CensusContradiction, match="even palindrome"):
        cen._census_self_inversive(s)


def test_strip_cyclotomic_factors():
    p = polys.mul_many([polys.cyclotomic(1), polys.cyclotomic(4), (-1, -3, 1)])
    stripped, removed = cen.strip_cyclotomic_factors(p, 4)
    assert stripped == (-1, -3, 1)
    assert sorted(removed) == [(1, 1), (4, 1)]


def test_strip_respects_degree_bound():
    p = polys.mul(polys.cyclotomic(12), (-1, -3, 1))  # phi(12) = 4
    stripped, removed = cen.strip_cyclotomic_factors(p, 2)
    assert stripped == p and removed == []


def test_label_pisot():
    label, stripped, _ = cen.salem_pisot_label((-1, -2, 0, -3, 1), 4)
    assert label == "pisot_like"


def test_label_salem_shape():
    # Lehmer's polynomial: the classical degree-10 Salem minimal polynomial
    lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    assert cen.is_self_reciprocal(lehmer)
    label, stripped, removed = cen.salem_pisot_label(lehmer, 6)
    assert label == "salem_like"
    c = unit_circle_census(lehmer)
    assert (c.inside, c.on, c.outside) == (1, 8, 1)


def test_label_undetermined():
    # (X^2-3X-1) times a non-cyclotomic, non-reciprocal-completing factor
    # with both roots on the circle: 2z^2 - 3z + 2
    p = polys.mul((-1, -3, 1), (2, -3, 2))
    label, stripped, _ = cen.salem_pisot_label(p, 8)
    assert label == "undetermined"
    assert unit_circle_census(p) == C(1, 2, 1)


@pytest.mark.parametrize("max_degree", range(31))
def test_cyclotomic_indices(max_degree):
    limit = max(2 * max_degree * max_degree + 2, 6)
    expect = [n for n in range(1, limit + 1) if cen.euler_phi(n) <= max_degree]
    assert list(cen._cyclotomic_indices(max_degree)) == expect


def test_census_lost_roots_raises(monkeypatch):
    # the root total is an exact check that must hold under python -O too
    monkeypatch.setattr(cen, "_census_square_free", lambda f: C(0, 0, 0))
    with pytest.raises(CensusContradiction, match="census lost roots"):
        unit_circle_census((-1, -3, 1))


@pytest.mark.parametrize("h", [(-1, 1), (1, 1), polys.mul((-1, 1), (1, 0, 3))])
def test_winding_with_root_on_circle_raises(h):
    with pytest.raises(CensusContradiction, match="root on the circle"):
        cen._winding_inside(h)


LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
UNDETERMINED = polys.mul((-1, -3, 1), (2, -3, 2))


@pytest.mark.parametrize(
    "p",
    [
        (-1, -2, 0, -3, 1),
        LEHMER,
        UNDETERMINED,
        polys.mul_many([polys.cyclotomic(1), polys.cyclotomic(4), (-1, -3, 1)]),
        polys.mul_many([polys.cyclotomic(12), polys.cyclotomic(12), polys.cyclotomic(2), LEHMER]),
        polys.mul_many([polys.cyclotomic(5), polys.cyclotomic(3), UNDETERMINED]),
    ],
)
@pytest.mark.parametrize("bound", [1, 2, 4, 8])
def test_label_from_known_on_count_matches_second_census(p, bound):
    # classify_entry passes the on-count of p in place of a census of the stripped p
    assert cen.salem_pisot_label(p, bound, unit_circle_census(p).on) == cen.salem_pisot_label(p, bound)


def unbounded_label(p, strip_degree_bound):
    """salem_pisot_label as defined before the on-bound: strip to the full bound, census the rest."""
    stripped, removed = cen.strip_cyclotomic_factors(p, strip_degree_bound)
    if unit_circle_census(stripped).on == 0:
        return "pisot_like", stripped, removed
    if cen.is_self_reciprocal(stripped):
        return "salem_like", stripped, removed
    return "undetermined", stripped, removed


def benchmark_keys():
    """The 249 sweep orbits, the 26 classify-cache keys and the (4, 3, 10, 30) prefix keys."""
    import importlib.util
    from pathlib import Path

    from salemforge.spectrum import SpectrumKey, enumerate_level_prefix

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    keys = [SpectrumKey(d, tuple(t)) for d, t in workloads.sweep_orbits() + workloads.classify_keys()]
    return keys + [e.key for e in enumerate_level_prefix(4, 3, 10, 30)]


def test_on_bounded_strip_matches_unbounded_strip():
    keys = benchmark_keys()
    assert len(keys) == 249 + 26 + 10
    seen = set()
    for key in keys:
        p, bound = key.polynomial(), 2 * max(key.tuple, default=2)
        on = unit_circle_census(p).on
        got = cen.salem_pisot_label(p, bound, on)
        assert got == unbounded_label(p, bound) == cen.salem_pisot_label(p, bound), key
        seen.add((got[0], bool(got[2]), on < bound))
    # both labels, with and without removed factors, and keys where on < bound
    # (the bound that now applies) as well as on >= bound
    assert {label for label, _, _ in seen} == {"pisot_like", "salem_like"}
    assert {removed for _, removed, _ in seen} == {True, False}
    assert {below for _, _, below in seen} == {True, False}
