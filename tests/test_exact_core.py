"""Integer evaluation and division core against the Fraction algorithms it replaced.

The oracles below are the earlier Fraction implementations, kept verbatim
in spirit: Horner with a gcd at every step, Fraction interval Horner,
the classical Sturm chain of the gcd-based square-free part over Q,
bisection by its variations at `_split_point` candidates, long division
over Q, Knuth's pseudo-division (Algorithm R) and the extended Euclidean
algorithm over Q[X].
The integer core must reproduce their values, bounds, intervals, quotients,
remainder chains and inverses exactly.  The power table of a root cell must enclose every
power of every point of a cell of any sign.
"""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from salemforge import algebraic, polys
from salemforge.algebraic import (
    EQUAL,
    GREATER,
    LESS,
    AlgebraicReal,
    RationalInterval,
    compare_with_rational,
    isolate_largest_real_root,
    refine,
    refine_clear_of,
)


# -- Fraction oracles ------------------------------------------------------


def oracle_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def oracle_eval_interval(p, lo, hi):
    alo, ahi = Fraction(0), Fraction(0)
    for c in reversed(p):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def oracle_variations(chain, x):
    return polys.sign_variations([oracle_eval(f, x) for f in chain])


def oracle_split_point(lo, hi, avoid):
    for den in range(2, 64):
        for num in range(1, den):
            x = lo + (hi - lo) * Fraction(num, den)
            if all(oracle_eval(f, x) != 0 for f in avoid):
                return x
    raise AssertionError("could not find an interior non-root point")


def oracle_divmod(a, b):
    """Quotient and remainder over Q, as Fraction coefficient lists."""
    r, q = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, k = r[-1] / b[-1], len(r) - len(b)
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
        while r and r[-1] == 0:
            r.pop()
    return q, r


def oracle_pseudo_divmod(p, q):
    """Knuth, TAOCP vol. 2, 4.6.1, Algorithm R: each step scales the remainder
    by l = lc(q), so the quotient coefficient found at X**k gains the factor l**k."""
    dq, l = polys.degree(q), q[-1]
    s = polys.degree(p) - dq
    r = list(p)
    quo = [0] * (s + 1)
    for k in range(s, -1, -1):
        c = r.pop()
        quo[k] = c * l**k
        r = [x * l for x in r]
        if c:
            for i in range(dq):
                r[k + i] -= c * q[i]
    return polys.normalize(quo), polys.normalize(r)


def oracle_derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def oracle_square_free_part(p):
    """p / gcd(p, p') by the Euclidean algorithm over Q, made primitive with positive lead."""
    a, b = [Fraction(c) for c in p], oracle_derivative(p)
    while b:
        a, b = b, oracle_divmod(a, b)[1]
    sf = oracle_divmod(p, a)[0]
    den = math.lcm(*(c.denominator for c in sf))
    ints = [int(c * den) for c in sf]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // g for c in ints)


def oracle_sturm_chain(p):
    """Classical Sturm chain sf, sf', -rem, ... of the square-free part, over Q."""
    chain = [list(oracle_square_free_part(p))]
    chain.append(oracle_derivative(chain[0]))
    while chain[-1]:
        chain.append([-c for c in oracle_divmod(chain[-2], chain[-1])[1]])
    return chain[:-1]


def oracle_refine(defining, lo, hi, width, extra_avoid=()):
    """Sturm-chain bisection over Fraction; returns (lo, hi)."""
    avoid = (defining, *extra_avoid)
    chain = oracle_sturm_chain(defining)
    v_lo = oracle_variations(chain, lo)
    while hi - lo > width:
        m = oracle_split_point(lo, hi, avoid)
        v_m = oracle_variations(chain, m)
        if v_lo - v_m == 1:
            hi = m
        else:
            lo, v_lo = m, v_m
    return lo, hi


def oracle_refine_clear_of(defining, lo, hi, g):
    while oracle_eval(g, lo) == 0 or oracle_eval(g, hi) == 0:
        lo, hi = oracle_refine(defining, lo, hi, (hi - lo) / 2, extra_avoid=(g,))
    return lo, hi


def oracle_divexact(p, d):
    """Long division over Q; the quotient must be integral."""
    if not p:
        return polys.ZERO
    num = [Fraction(c) for c in p]
    dd = polys.degree(d)
    q = [Fraction(0)] * (len(p) - dd)
    for k in range(len(num) - 1 - dd, -1, -1):
        c = num[k + dd] / d[-1]
        q[k] = c
        if c:
            for i, dc in enumerate(d):
                num[k + i] -= c * dc
    assert all(x == 0 for x in num[:dd]), "division was not exact"
    assert all(x.denominator == 1 for x in q), "quotient not integral"
    return polys.normalize(int(x) for x in q)


def oracle_inverse(num, modulus):
    """Extended Euclid over Q[X]: (ints, den) with ints/den the inverse of num, or None."""

    def fnorm(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    def fdivmod(a, b):
        q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
        r = list(a)
        db = len(b) - 1
        for k in range(len(r) - 1 - db, -1, -1):
            c = r[k + db] / b[-1]
            q[k] = c
            if c:
                for i, bc in enumerate(b):
                    r[k + i] -= c * bc
        return q, fnorm(r[:db])

    def fsub_mul(u0, q, u1):
        out = [Fraction(0)] * max(len(u0), len(q) + len(u1) - 1)
        for i, a in enumerate(u0):
            out[i] += a
        for i, a in enumerate(q):
            for j, b in enumerate(u1):
                out[i + j] -= a * b
        return fnorm(out) or [Fraction(0)]

    r0, r1 = [Fraction(c) for c in modulus], fnorm([Fraction(c) for c in num])
    u0, u1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = fdivmod(r0, r1)
        r0, r1, u0, u1 = r1, r, u1, fsub_mul(u0, q, u1)
    if len(r0) != 1:
        return None
    inv = [c / r0[0] for c in u0]
    den = math.lcm(*(c.denominator for c in inv))
    return polys.normalize(int(c * den) for c in inv), den


# -- strategies --------------------------------------------------------------

polys_small = st.lists(st.integers(-12, 12), min_size=1, max_size=9).map(polys.normalize)
denominators = st.one_of(
    st.integers(1, 40),
    st.integers(0, 420).map(lambda k: 2**k),
    st.integers(1, 2**300),
)
rationals = st.builds(lambda n, d: Fraction(n, d), st.integers(-(2**310), 2**310), denominators)
small_rationals = st.builds(lambda n, d: Fraction(n, d), st.integers(-200, 200), st.integers(1, 64))


def with_real_root(p):
    if polys.degree(p) < 1:
        return False
    b = polys.cauchy_bound(p)
    return polys.sturm_count(p, -b, b) >= 1


# -- point evaluation ---------------------------------------------------------


@given(polys_small, st.integers(-(2**200), 2**200), denominators)
@settings(max_examples=200, deadline=None)
def test_eval_hom_is_homogenised_value(p, num, den):
    x = Fraction(num, den)
    assert polys.eval_hom(p, num, den) == den ** max(polys.degree(p), 0) * oracle_eval(p, x)
    assert polys.eval_at(p, x) == oracle_eval(p, x)


@given(polys_small, st.integers(-50, 50))
@settings(max_examples=100, deadline=None)
def test_eval_at_int_matches_oracle(p, x):
    assert polys.eval_at(p, x) == oracle_eval(p, x)


def test_eval_at_result_types():
    p = (1, -3, 2)  # 2X^2 - 3X + 1
    assert type(polys.eval_at(p, 2)) is int and polys.eval_at(p, 2) == 3
    assert type(polys.eval_at(p, Fraction(2))) is Fraction and polys.eval_at(p, Fraction(2)) == 3
    assert polys.eval_at(p, Fraction(1, 3)) == Fraction(2, 9)
    # a float is taken exactly, as Fraction(0.25)
    assert polys.eval_at(p, 0.25) == Fraction(3, 8)


@given(polys_small, st.one_of(rationals, small_rationals, st.integers(-20, 20)))
@settings(max_examples=150, deadline=None)
def test_chain_variations_match_oracle(p, x):
    if polys.degree(p) < 1:
        return
    chain = polys.sturm_chain(p)
    assert polys.chain_variations_at(chain, x) == oracle_variations(chain, Fraction(x))
    # the chain of p itself (not of its square-free part) agrees with the
    # classical chain of the square-free part wherever p does not vanish
    if oracle_eval(p, Fraction(x)) != 0:
        assert polys.chain_variations_at(chain, x) == oracle_variations(oracle_sturm_chain(p), Fraction(x))


def gcd_square_free_part(p):
    """square_free_part as defined before it read gcd(p, p') off sturm_chain(p)."""
    if polys.degree(p) <= 0:
        return polys.primitive(p) if p else polys.ZERO
    return polys.divexact(polys.primitive(p), polys.gcd(p, polys.derivative(p)))


def gcd_square_free_decomposition(p):
    """Yun's algorithm with its first gcd taken by polys.gcd, as defined before."""
    p = polys.primitive(p)
    if polys.degree(p) <= 0:
        return []
    g = polys.gcd(p, polys.derivative(p))
    if polys.degree(g) == 0:
        return [(p, 1)]
    out, i = [], 1
    w = polys.divexact(p, g)
    z = polys.sub(polys.divexact(polys.derivative(p), g), polys.derivative(w))
    while polys.degree(w) > 0:
        f = polys.gcd(w, z)
        if polys.degree(f) > 0:
            out.append((polys.primitive(f), i))
        w = polys.divexact(w, f)
        z = polys.sub(polys.divexact(z, f), polys.derivative(w))
        i += 1
    return out


factors_small = st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(polys.normalize)
with_repeated_factors = st.lists(st.tuples(factors_small, st.integers(1, 3)), min_size=1, max_size=3).map(
    lambda fs: polys.mul_many([polys.pow_int(f, k) for f, k in fs if f])
)


@given(with_repeated_factors, small_rationals, small_rationals)
@settings(max_examples=200, deadline=None)
def test_square_free_data_from_one_chain_match_gcd_definitions(p, a, b):
    if polys.degree(p) < 1:
        return
    sf = polys.square_free_part(p)
    assert sf == gcd_square_free_part(p) == oracle_square_free_part(p)
    decomposition = polys.square_free_decomposition(p)
    assert decomposition == gcd_square_free_decomposition(p)
    # the factors rebuild the primitive part of p
    rebuilt = polys.mul_many([polys.pow_int(f, k) for f, k in decomposition])
    assert rebuilt == polys.primitive(p)
    lo, hi = ordered(a, b)
    if oracle_eval(p, lo) != 0 and oracle_eval(p, hi) != 0:
        chain = oracle_sturm_chain(p)
        expect = oracle_variations(chain, lo) - oracle_variations(chain, hi) if lo < hi else 0
        assert polys.sturm_count(p, lo, hi) == expect


# -- interval evaluation ---------------------------------------------------------


def ordered(a, b):
    return (a, b) if a <= b else (b, a)


def outward(lo, hi, k):
    """[lo, hi] rounded outward to multiples of 2^-k, as (lo', hi', 2^k)."""
    return (lo.numerator << k) // lo.denominator, -((-hi.numerator << k) // hi.denominator), 1 << k


@given(polys_small, rationals, rationals)
@settings(max_examples=150, deadline=None)
def test_eval_interval_bounds_match_oracle(p, a, b):
    lo, hi = ordered(a, b)
    assert polys.eval_interval(p, lo, hi) == oracle_eval_interval(p, lo, hi)


nonneg_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda n, d: Fraction(n, d), st.integers(0, 2**310), denominators),
    st.builds(lambda n, d: Fraction(n, d), st.integers(0, 200), st.integers(1, 64)),
)


def interval_hom_bounds(p, lo, hi):
    ilo, ihi, den = polys.common_den(lo, hi)
    alo, ahi = polys._interval_hom(p, ilo, ihi, den)
    scale = den ** polys.degree(p)
    return Fraction(alo, scale), Fraction(ahi, scale)


@given(polys_small.filter(bool), nonneg_rationals, nonneg_rationals)
@settings(max_examples=250, deadline=None)
def test_interval_hom_nonnegative_matches_oracle(p, a, b):
    # on lo >= 0 the integer bounds equal the Fraction oracle's
    lo, hi = ordered(a, b)
    assert interval_hom_bounds(p, lo, hi) == oracle_eval_interval(p, lo, hi)


@given(polys_small.filter(bool), nonneg_rationals, st.integers(0, 400), st.integers(0, 400))
@settings(max_examples=150, deadline=None)
def test_interval_hom_nonnegative_on_rounded_deep_intervals(p, x, k1, k2):
    # a deep interval around x >= 0 rounded outward to 2^-64
    lo, hi = max(x - Fraction(1, 2**k1), Fraction(0)), x + Fraction(1, 3 * 2**k2)
    ilo, ihi, den = outward(lo, hi, 64)
    assert ilo >= 0
    alo, ahi = polys._interval_hom(p, ilo, ihi, den)
    scale = den ** polys.degree(p)
    assert (Fraction(alo, scale), Fraction(ahi, scale)) == oracle_eval_interval(
        p, Fraction(ilo, den), Fraction(ihi, den)
    )


@pytest.mark.parametrize(
    "p, lo, hi, acc",
    [
        ((-2, 3, -4, 1), Fraction(0), Fraction(7, 2), "straddles"),
        ((1, -3, 1), Fraction(1, 3), Fraction(5, 2), "negative"),
        ((-7, 1, 1), Fraction(0), Fraction(2), "positive"),
        ((3, -1, 2), Fraction(0), Fraction(0), "negative"),
    ],
)
def test_interval_hom_nonnegative_sign_cases(p, lo, hi, acc):
    # the accumulator entering the last Horner step holds the bounds of the
    # polynomial p[1:]; each case puts it on one side of 0 or across it
    alo, ahi = oracle_eval_interval(p[1:], lo, hi)
    assert acc == ("straddles" if alo < 0 < ahi else "negative" if ahi < 0 else "positive")
    assert interval_hom_bounds(p, lo, hi) == oracle_eval_interval(p, lo, hi)


# -- the power table of a root cell ---------------------------------------------


@st.composite
def cells(draw):
    """(lo, hi, den) with lo >= 0, with hi <= 0 or with lo < 0 < hi, wide or narrow."""
    den = draw(denominators)
    kind = draw(st.sampled_from((1, -1, 0)))
    w = draw(st.one_of(st.integers(0, 3), st.integers(0, 4 * den)))
    if kind == 0:
        return -1 - draw(st.integers(0, w)), 1 + draw(st.integers(0, w)), den
    a = draw(st.integers(0, 4 * den))
    return (a, a + w, den) if kind == 1 else (-a - w, -a, den)


def table_sign(g, cell):
    """The sign of g on the cell decided by its power table, 0 if undecided."""
    _, mid, rad = algebraic._power_table(cell, len(g))
    c = sum(map(operator.mul, g, mid))
    return (1 if c > 0 else -1) if abs(c) > sum(abs(a) * r for a, r in zip(g, rad)) else 0


@given(cells(), polys_small)
@settings(max_examples=300, deadline=None)
def test_power_table_encloses_powers_on_cells_of_any_sign(cell, g):
    lo, hi, den = cell
    xs = [Fraction(lo * (8 - t) + hi * t, 8 * den) for t in range(9)]
    scale = 2 ** (den.bit_length() + 33)  # 2**(B+1)
    _, mid, rad = algebraic._power_table(cell, 9)
    assert (mid[0], rad[0]) == (scale, 0)  # x**0 is exactly 1, also on a cell holding 0
    for k, (m, r) in enumerate(zip(mid, rad)):
        assert all(m - r <= x**k * scale <= m + r for x in xs), k
    # sound: sampled points of the cell carry a sign the table decides
    s = table_sign(g, cell)
    if s:
        assert all(oracle_eval(g, x) * s > 0 for x in xs)


@given(
    polys_small,
    st.integers(-60, 60),
    st.integers(1, 60),
    st.integers(0, 400),
    st.integers(0, 400),
)
@settings(max_examples=120, deadline=None)
def test_power_table_undecided_across_a_root(q, n, d, k1, k2):
    # p vanishes at r inside [lo, hi], which may hold 0 or lie on either side
    r = Fraction(n, d)
    p = polys.mul((-n, d), q or (1,))
    lo, hi = r - Fraction(1, 3 * 2**k1), r + Fraction(1, 5 * 2**k2)
    assert table_sign(p, polys.common_den(lo, hi)) == 0


def test_power_table_decides_on_deep_cells():
    # X - 3 and X + 3 on cells of width 2^-399 around 10 and -10
    for x in (10, -10):
        cell = (x * 2**400 - 1, x * 2**400 + 1, 2**400)
        assert table_sign((-3, 1), cell) == table_sign((3, 1), cell) == (1 if x > 0 else -1)
        assert table_sign((3, -1), cell) == -table_sign((-3, 1), cell)
        assert table_sign((-x, 1), cell) == 0
    # even powers on [-2^-401, 2^-401], which holds 0: X^2 - 1 < 0 < 1 - 2X^2
    # decide, and X^2, zero at 0, does not
    cell = (-1, 1, 2**401)
    assert (table_sign((-1, 0, 1), cell), table_sign((1, 0, -2), cell), table_sign((0, 0, 1), cell)) == (-1, 1, 0)
    # 3X - 1 on [1/3 + 2^-100, 1/3 + 2^-99]: the table's precision follows
    # the cell's denominator, so it decides where a 2^-64 grid could not
    p, cell = (-1, 3), polys.common_den(Fraction(1, 3) + Fraction(1, 2**100), Fraction(1, 3) + Fraction(1, 2**99))
    assert table_sign(p, cell) == 1 and table_sign(polys.neg(p), cell) == -1


# -- refinement ------------------------------------------------------------------


@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=8).map(polys.normalize),
    st.sampled_from([Fraction(1, 10**6), Fraction(1, 2**40), Fraction(1, 3**20), Fraction(1, 7)]),
)
@settings(max_examples=80, deadline=None)
def test_refine_matches_sturm_bisection(p, width):
    if not with_real_root(p):
        return
    a = isolate_largest_real_root(p)
    lo, hi = oracle_refine(a.defining, a.interval.lo, a.interval.hi, width)
    b = refine(a, width)
    assert (b.interval.lo, b.interval.hi) == (lo, hi)


@given(
    st.lists(st.integers(-9, 9), min_size=3, max_size=7).map(polys.normalize),
    st.integers(1, 7),
    st.integers(0, 4),
)
@settings(max_examples=80, deadline=None)
def test_refine_avoiding_dyadic_roots_matches_oracle(p, t, depth):
    # refine_clear_of g, which vanishes at an endpoint (lo for odd t, else
    # hi) and at a dyadic point of the interval, which the midpoint rule
    # would otherwise pick at some bisection step
    if not with_real_root(p):
        return
    a = isolate_largest_real_root(p)
    lo, hi = a.interval.lo, a.interval.hi
    x = lo + (hi - lo) * Fraction(t, 8) / 2**depth
    end = lo if t % 2 else hi
    g = polys.mul(*(polys.primitive((-r.numerator, r.denominator)) for r in (x, end)))
    b = refine_clear_of(a, g)
    assert (b.interval.lo, b.interval.hi) == oracle_refine_clear_of(a.defining, lo, hi, g)


def test_refine_clear_of_dyadic_midpoint_root():
    # sqrt(2) in [1, 2]; g = (X-1)(2X-3) vanishes at lo and at the midpoint
    a = AlgebraicReal((-2, 0, 1), RationalInterval(Fraction(1), Fraction(2)))
    g = polys.mul((-1, 1), (-3, 2))
    b = refine_clear_of(a, g)
    assert (b.interval.lo, b.interval.hi) == oracle_refine_clear_of(a.defining, Fraction(1), Fraction(2), g)
    assert b.interval.lo == Fraction(4, 3)


def test_refine_midpoint_root_of_defining():
    # a rational root held in a non-degenerate interval: the midpoint 1/2 is
    # the root itself, so the split point comes from the fallback search
    a = AlgebraicReal((-1, 2), RationalInterval(Fraction(0), Fraction(1)))
    b = refine(a, Fraction(1, 1000))
    assert (b.interval.lo, b.interval.hi) == oracle_refine(a.defining, Fraction(0), Fraction(1), Fraction(1, 1000))
    assert b.interval.lo < Fraction(1, 2) < b.interval.hi


def oracle_side(defining, lo, hi, r):
    """Position of the root isolated by [lo, hi] relative to r, by Sturm
    counts: the chain's variation drop from lo to r counts the roots in (lo, r]."""
    if r < lo:
        return GREATER
    if r >= hi:
        return LESS
    chain = oracle_sturm_chain(defining)
    if oracle_variations(chain, lo) == oracle_variations(chain, r):
        return GREATER
    return EQUAL if oracle_eval(defining, r) == 0 else LESS


@given(
    st.lists(st.integers(-9, 9), min_size=2, max_size=7).map(polys.normalize),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
    st.integers(1, 60),
    st.lists(small_rationals, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_compare_with_rational_matches_sturm_oracle(p, root, depth, extra):
    # p times X - root, so a rational root is often an extreme one; the
    # largest and the smallest root are each compared with the endpoints and
    # midpoint of their cell, that rational root and random rationals, before
    # and after a deeper refine
    p = polys.mul(p, (-root.numerator, root.denominator))
    if not with_real_root(p):
        return
    a = isolate_largest_real_root(p)
    # the smallest root of p is minus the largest of p(-X)
    b = isolate_largest_real_root(tuple(-c if i % 2 else c for i, c in enumerate(p)))
    smallest = AlgebraicReal(a.defining, RationalInterval(-b.interval.hi, -b.interval.lo))

    def check(y, lo, hi):
        for r in (y.interval.lo, y.interval.hi, (y.interval.lo + y.interval.hi) / 2, root, *extra):
            assert compare_with_rational(y, r) == oracle_side(y.defining, lo, hi, r)

    for x in (a, smallest):
        lo, hi = x.interval.lo, x.interval.hi
        check(x, lo, hi)
        check(refine(x, x.interval.width / 2**depth), lo, hi)
        check(x, lo, hi)


def test_refine_deep_matches_oracle_on_realization_key():
    # the d=4 full-orbit key, refined to 2^-400: 400-bit endpoints, far
    # deeper than any sign decision of the realization check needs
    from salemforge.spectrum import SpectrumKey

    a = isolate_largest_real_root(SpectrumKey(4, (2, 3, 4, 5, 6, 7)).polynomial())
    width = Fraction(1, 2**400)
    lo, hi = oracle_refine(a.defining, a.interval.lo, a.interval.hi, width)
    b = refine(a, width)
    assert (b.interval.lo, b.interval.hi) == (lo, hi)


# -- division -------------------------------------------------------------------

nonzero_polys = polys_small.filter(bool)
monic_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6).map(lambda c: tuple(c) + (1,))


@given(polys_small, nonzero_polys, st.integers(1, 6), st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_divexact_matches_oracle(a, b, k, s):
    # divisors with content k > 1 and either sign of leading coefficient
    d = polys.scale(b, k * s)
    p = polys.mul(a, d)
    assert polys.divexact(p, d) == oracle_divexact(p, d) == a
    g = polys.gcd(p, d)
    assert polys.divexact(p, g) == oracle_divexact(p, g)


@given(polys_small, monic_polys)
@settings(max_examples=200, deadline=None)
def test_monic_divmod_identity(p, m):
    q, r = polys.monic_divmod(p, m)
    assert polys.add(polys.mul(q, m), r) == p
    assert polys.degree(r) < polys.degree(m)


@given(polys_small, nonzero_polys)
@settings(max_examples=200, deadline=None)
def test_pseudo_divmod_identity(p, q):
    quo, rem = polys.pseudo_divmod(p, q)
    e = max(polys.degree(p) - polys.degree(q) + 1, 0)
    assert polys.scale(p, q[-1] ** e) == polys.add(polys.mul(quo, q), rem)
    assert polys.degree(rem) < polys.degree(q)


@given(polys_small, nonzero_polys, st.integers(1, 6), st.sampled_from([1, -1]))
@example(p=(), q=(1, 2), k=3, s=-1)  # p = 0
@example(p=(5, -7), q=(1, 0, 4), k=1, s=-1)  # deg p < deg q
@example(p=(3, 1, 4, 1, 5), q=(2,), k=1, s=1)  # constant divisor
@settings(max_examples=300, deadline=None)
def test_pseudo_divmod_matches_algorithm_r(p, q, k, s):
    # divisors with content k > 1 and either sign of leading coefficient
    q = polys.scale(q, k * s)
    assert polys.pseudo_divmod(p, q) == oracle_pseudo_divmod(p, q)


def test_remainder_chains_of_the_sweep_match_algorithm_r(monkeypatch):
    # every Sturm chain and census chain of the 249 acceptance orbit data,
    # once through pseudo_divmod and once through Algorithm R
    from test_spectrum import sweep_keys

    from salemforge.census import _chebyshev_pair

    pairs = []
    for key in sweep_keys():
        p = polys.primitive(key.polynomial())
        pairs += [(p, polys.derivative(p)), _chebyshev_pair(p)]
    chains = [polys.signed_remainder_chain(*pair) for pair in pairs]
    monkeypatch.setattr(polys, "pseudo_divmod", oracle_pseudo_divmod)
    assert len(pairs) == 2 * 249
    assert [polys.signed_remainder_chain(*pair) for pair in pairs] == chains


def test_divexact_rejects_non_integral_quotient():
    with pytest.raises(ValueError, match="not integral"):
        polys.divexact((1, 1), (2, 2))


def test_divexact_rejects_nonzero_remainder():
    with pytest.raises(ValueError, match="not exact"):
        polys.divexact((1, 0, 1), (1, 1))


def test_monic_divmod_rejects_non_monic_divisor():
    with pytest.raises(ValueError, match="monic"):
        polys.monic_divmod((1, 0, 1), (1, 2))
    with pytest.raises(ValueError, match="monic"):
        polys.monic_divmod((1, 0, 1), (1, -1))


# -- inverses --------------------------------------------------------------------


def is_inverse(u, den, a, m):
    return not polys.monic_divmod(polys.sub(polys.mul(u, a), (den,)), m)[1]


@given(
    monic_polys.filter(lambda m: polys.degree(m) >= 1),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.integers(1, 6),
    st.sampled_from([1, -1]),
)
@settings(max_examples=250, deadline=None)
def test_inverse_mod_matches_oracle(m, coeffs, k, s):
    # representatives of degree 0 up to deg m - 1, with content k > 1 and
    # either sign of leading coefficient
    a = polys.scale(polys.normalize(coeffs[: polys.degree(m)]), k * s)
    assume(a)
    got = polys.inverse_mod(a, m)
    assert got == oracle_inverse(a, m)
    if got is not None:
        u, den = got
        assert den > 0 and polys.degree(u) < polys.degree(m)
        assert math.gcd(polys.content(u), den) == 1
        assert is_inverse(u, den, a, m)


@given(
    monic_polys.filter(lambda f: polys.degree(f) >= 1),
    monic_polys.filter(lambda f: polys.degree(f) >= 1),
    polys_small,
    st.integers(1, 6),
)
@settings(max_examples=150, deadline=None)
def test_inverse_mod_none_on_shared_factor(f, g, c, k):
    # m = f*g: any multiple of f reduced mod m shares the factor f with m
    m = polys.mul(f, g)
    a = polys.monic_divmod(polys.scale(polys.mul(f, c or (1,)), k), m)[1]
    assume(a)
    assert polys.inverse_mod(a, m) is None
    assert oracle_inverse(a, m) is None


def test_inverse_mod_constants_and_units():
    m = (-2, 0, 1)  # X^2 - 2
    assert polys.inverse_mod((-3,), m) == ((-1,), 3)
    assert polys.inverse_mod((0, 1), m) == ((0, 1), 2)  # 1/X = X/2
    assert polys.inverse_mod((), m) is None


@pytest.mark.parametrize("d, tup", [(4, (2, 3, 4, 5, 6, 7)), (5, (2, 3, 4, 5, 6, 7, 8, 9))])
def test_inverses_on_realization_keys_match_oracle(monkeypatch, d, tup):
    # every inverse the realization plan takes, against the Fraction oracle
    from salemforge.realization import realization_points
    from salemforge.spectrum import SpectrumKey

    calls = []
    inverse_mod = polys.inverse_mod

    def recording(a, m):
        out = inverse_mod(a, m)
        calls.append((a, m, out))
        return out

    monkeypatch.setattr(polys, "inverse_mod", recording)
    realization_points(SpectrumKey(d, tup))
    # 1/(X^n + 1) once for each orbit, in the eigenvector, and 1/(X - 1)
    assert len(calls) == len(tup) + 1
    for a, m, out in calls:
        assert out is not None and out == oracle_inverse(a, m)


# -- realization check results ----------------------------------------------------


@given(st.integers(-(2**80), 2**80), st.integers(1, 2**40), st.integers(1, 12))
@settings(max_examples=200, deadline=None)
def test_ratio_to_str_matches_frac_to_str(c, den, k):
    from salemforge.serialize import frac_to_str, ratio_to_str

    # k gives c and den a common factor
    for num, d in ((c, den), (c * k, den * k), (0, den), (-abs(c) * k, k)):
        assert ratio_to_str(num, d) == frac_to_str(Fraction(num, d))


def test_ratio_to_str_cases():
    from salemforge.serialize import ratio_to_str

    assert ratio_to_str(0, 7) == "0"
    assert ratio_to_str(-6, 4) == "-3/2"
    assert ratio_to_str(12, 4) == "3"
    assert ratio_to_str(-5, 1) == "-5"


REALIZATION_KEYS = [(4, (2, 3, 4, 5, 6, 7)), (5, (2, 3, 4, 5, 6, 7, 8, 9))]


def test_check_result_expression_is_representative():
    from salemforge import realization
    from salemforge.spectrum import SpectrumKey

    ctx = realization._context_for(SpectrumKey(*REALIZATION_KEYS[0]))
    lam = ctx.x_power(1)
    inv = (lam - 1).inverse()
    for e in (ctx.zero, ctx.one, -3 * lam, (2 - lam) * inv, lam * inv + ctx.x_power(9)):
        for check in (realization._nonzero, realization._zero, realization._positive):
            r = check("e", e)
            assert r.den > 0
            assert r.expression == e.representative()


@pytest.mark.parametrize("d, tup", REALIZATION_KEYS)
def test_monomial_identities_from_memoised_powers(d, tup):
    # lambda^a(lambda^b+1) = lambda^(a+b) + lambda^a for every (a, b) that
    # the distinctness cross-checks and the group-4 sign checks use
    from salemforge import realization
    from salemforge.spectrum import SpectrumKey

    ctx = realization._context_for(SpectrumKey(d, tup))
    pairs = {(k + 1, nj) for i, ni in enumerate(tup) for j, nj in enumerate(tup) if i != j for k in range(ni)}
    pairs |= {(2, n) for n in tup}
    for a, b in sorted(pairs):
        assert ctx.x_power(a + b) + ctx.x_power(a) == ctx.x_power(a) * (ctx.x_power(b) + 1)
