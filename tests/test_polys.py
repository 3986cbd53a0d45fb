"""Integer-polynomial core: arithmetic, gcd, Sturm counts.

Expected values come from independent oracles: schoolbook multiplication
written inline, hand long division, the quadratic formula, and a
sign-change count on a refined rational grid.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemforge import polys
from salemforge.errors import EndpointIsRoot


def schoolbook_mul(p, q):
    """Independent O(n*m) product used as the multiplication oracle."""
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i in range(len(p)):
        for j in range(len(q)):
            out[i + j] += p[i] * q[j]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(polys.normalize)


def test_mul_difference_of_squares():
    assert polys.mul((1, 1), (-1, 1)) == (-1, 0, 1)


def test_mul_matches_hand_expansion():
    # (X^2-3X-1)(X^2+1) = X^4-3X^3-3X-1, cross-checked by the oracle
    p, q = (-1, -3, 1), (1, 0, 1)
    expect = (-1, -3, 0, -3, 1)
    assert polys.mul(p, q) == expect
    assert schoolbook_mul(p, q) == expect


def test_add_zero_identity():
    p = (-1, -3, 1)
    assert polys.add(p, ()) == p
    assert polys.add((), p) == p


@given(small_polys, small_polys)
def test_mul_matches_schoolbook(p, q):
    assert polys.mul(p, q) == schoolbook_mul(p, q)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert polys.add(p, q) == polys.add(q, p)
    assert polys.mul(p, q) == polys.mul(q, p)
    assert polys.mul(p, polys.add(q, r)) == polys.add(polys.mul(p, q), polys.mul(p, r))


def test_normalize_strips_leading_zeros():
    assert polys.normalize([1, 2, 0, 0]) == (1, 2)
    assert polys.normalize([0, 0]) == ()
    assert polys.degree(()) == -1


def test_binomial_xn_plus_1():
    assert polys.binomial_xn_plus_1(1) == (1, 1)
    assert polys.binomial_xn_plus_1(3) == (1, 0, 0, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_binomial_xn_plus_1_needs_a_positive_exponent(n):
    # X^0 + 1 is 2, not X + 1; every orbit length is >= 1
    with pytest.raises(ValueError, match="n >= 1"):
        polys.binomial_xn_plus_1(n)


def test_monic_divmod_roundtrip():
    p = (5, -2, 7, 1, 3)
    m = (-1, -3, 1)
    q, r = polys.monic_divmod(p, m)
    assert polys.add(polys.mul(q, m), r) == p
    assert polys.degree(r) < polys.degree(m)


def test_divexact():
    a = (-1, -3, 1)
    b = (2, 0, 5)
    assert polys.divexact(polys.mul(a, b), b) == a


def test_gcd_of_products():
    a, b, c = (-1, 1), (1, 1), (-2, 1)
    left = polys.mul(a, b)
    right = polys.mul(a, c)
    assert polys.gcd(left, right) == a
    assert polys.gcd(left, (1,)) == (1,)


def divides(d, f):
    """Exact divisibility test over Q."""
    if polys.is_zero(f):
        return True
    if polys.is_zero(d) or polys.degree(d) > polys.degree(f):
        return False
    num = [Fraction(c) for c in f]
    dd = polys.degree(d)
    lead = Fraction(d[-1])
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd] / lead
        for i, dc in enumerate(d):
            num[k + i] -= c * dc
    return all(x == 0 for x in num[:dd])


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_gcd_divides_both(p, q, g):
    pg, qg = polys.mul(p, g), polys.mul(q, g)
    if polys.is_zero(pg) and polys.is_zero(qg):
        return
    d = polys.gcd(pg, qg)
    assert divides(d, pg) and divides(d, qg)
    if not polys.is_zero(g):
        assert divides(polys.primitive(g), d)


def test_square_free_decomposition():
    # (X-1)^2 (X+2)^3
    p = polys.mul(polys.pow_int((-1, 1), 2), polys.pow_int((2, 1), 3))
    dec = dict()
    for f, m in polys.square_free_decomposition(p):
        dec[m] = f
    assert dec[2] == (-1, 1)
    assert dec[3] == (2, 1)


def test_square_free_part():
    p = polys.mul((-1, 1), (-1, 1))
    assert polys.square_free_part(p) == (-1, 1)


def test_eval_exact():
    p = (-1, -3, 1)  # X^2 - 3X - 1
    assert polys.eval_at(p, 0) == -1
    assert polys.eval_at(p, Fraction(7, 2)) == Fraction(49, 4) - Fraction(21, 2) - 1


def test_eval_interval_contains_values():
    p = (-1, -2, 0, -3, 1)
    lo, hi = Fraction(32, 10), Fraction(33, 10)
    vlo, vhi = polys.eval_interval(p, lo, hi)
    for t in range(11):
        x = lo + (hi - lo) * Fraction(t, 10)
        assert vlo <= polys.eval_at(p, x) <= vhi


def grid_sign_changes(p, lo, hi, pieces):
    """Brute-force root-count oracle: sign changes on a rational grid."""
    xs = [lo + (hi - lo) * Fraction(k, pieces) for k in range(pieces + 1)]
    vals = [polys.eval_at(p, x) for x in xs]
    count = 0
    for a, b in zip(vals, vals[1:]):
        if a == 0 or b == 0:
            raise ValueError("grid node hit a root; refine differently")
        if (a > 0) != (b > 0):
            count += 1
    return count


def test_sturm_count_examples():
    assert polys.sturm_count((-2, 0, 1), 0, 2) == 1          # sqrt(2)
    assert polys.sturm_count((-1, -3, 1), 3, 4) == 1         # (3+sqrt(13))/2
    assert polys.sturm_count((1, 0, 1), -10, 10) == 0        # X^2+1


def test_sturm_endpoint_error():
    with pytest.raises(EndpointIsRoot):
        polys.sturm_count((0, 1), 0, 1)
    with pytest.raises(EndpointIsRoot):
        polys.sturm_count((-4, 0, 1), -3, 2)


def test_sturm_count_constants_and_degenerate_intervals():
    assert polys.sturm_count((5,), -1, 1) == 0               # a constant has no root
    assert polys.sturm_count((-2, 0, 1), 1, 1) == 0          # lo == hi at a non-root
    with pytest.raises(EndpointIsRoot):
        polys.sturm_count((-4, 0, 1), 2, 2)                  # lo == hi at a root
    with pytest.raises(EndpointIsRoot):
        # the non-canonical zero a stored record can parse to vanishes everywhere
        polys.sturm_count((0,), -1, 1)


def test_sturm_counts_multiple_roots_once():
    p = polys.pow_int((-2, 1), 2)  # (X-2)^2
    assert polys.sturm_count(p, 1, 3) == 1


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=7).map(polys.normalize))
@settings(max_examples=120, deadline=None)
def test_sturm_matches_grid_oracle(p):
    if polys.degree(p) < 1:
        return
    sf = polys.square_free_part(p)
    if polys.degree(sf) < 1:
        return
    bound = polys.cauchy_bound(sf)
    lo, hi = -bound - Fraction(1, 3), bound + Fraction(1, 3)
    # grid oracle, refined until two consecutive resolutions agree
    counts = []
    for pieces in (256, 512, 1024, 2048, 4096, 8192):
        try:
            counts.append(grid_sign_changes(sf, lo, hi, pieces))
        except ValueError:
            counts.append(None)
        if len(counts) >= 2 and counts[-1] is not None and counts[-1] == counts[-2]:
            break
    else:
        return  # oracle did not stabilise; skip this sample
    assert counts[-1] == polys.sturm_count(sf, lo, hi)


def test_cyclotomic_small():
    assert polys.cyclotomic(1) == (-1, 1)
    assert polys.cyclotomic(2) == (1, 1)
    assert polys.cyclotomic(4) == (1, 0, 1)
    assert polys.cyclotomic(6) == (1, -1, 1)
    assert polys.cyclotomic(12) == (1, 0, -1, 0, 1)


def test_reverse():
    assert polys.reverse((2, 0, 1)) == (1, 0, 2)
    assert polys.reverse((0, 1)) == (1,)


@pytest.mark.parametrize("p", [(), (5,), (-3,)])
def test_cauchy_bound_rejects_constants(p):
    with pytest.raises(ValueError, match="nonconstant"):
        polys.cauchy_bound(p)


def test_cauchy_bound_contains_roots():
    p = (-1, -3, 1)
    b = polys.cauchy_bound(p)
    # both roots of X^2-3X-1 lie within (-b, b)
    assert polys.sturm_count(p, -b, b) == 2
