"""Residue arithmetic at the distinguished root.

Long-division oracles are computed inline with Fractions; the context
polynomial X^2-3X-1 has lambda = (3+sqrt(13))/2 as its distinguished root.
"""

import itertools
import math
import operator
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemforge import algebraic, polys, residues
from salemforge.errors import ModulusMismatch, NotInvertible, NotIsolating
from salemforge.residues import (
    ResidueContext,
    reduced_modulus_context,
    residue_is_zero,
    residue_sign,
)

GOLDEN = (-1, -3, 1)


@pytest.fixture()
def ctx():
    return ResidueContext.for_largest_root(GOLDEN)


def long_division_remainder(coeffs, modulus):
    """Oracle: plain rational long division, returns remainder coefficients."""
    num = [Fraction(c) for c in coeffs]
    dm = len(modulus) - 1
    lead = Fraction(modulus[-1])
    while len(num) - 1 >= dm and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < dm:
            break
        c = num[-1] / lead
        k = len(num) - 1 - dm
        for i, mc in enumerate(modulus):
            num[k + i] -= c * mc
        num.pop()
    return num[:dm] + [Fraction(0)] * (dm - len(num[:dm]))


def test_reduce_x4(ctx):
    # X^4 mod X^2-3X-1 = 33X + 10 (long-division oracle cross-checks)
    e = ctx.reduce([0, 0, 0, 0, 1])
    assert e.representative() == [Fraction(10), Fraction(33)]
    assert long_division_remainder([0, 0, 0, 0, 1], GOLDEN) == [10, 33]


def test_residue_reduce_function():
    # a context built straight from the modulus reduces like the fixture's
    e = ResidueContext.for_largest_root(GOLDEN).reduce([0, 0, 0, 0, 1])
    assert e.representative() == [Fraction(10), Fraction(33)]


def test_reduce_modulus_is_zero(ctx):
    assert ctx.reduce(GOLDEN).is_zero_poly


def test_reduce_constant(ctx):
    e = ctx.reduce([Fraction(7, 3)])
    assert e.representative() == [Fraction(7, 3)]


def test_is_zero_basics(ctx):
    assert residue_is_zero(ctx.zero)
    assert residue_is_zero(ctx.reduce(GOLDEN))
    # X - 3 is not zero at lambda = 3.3027...
    assert not residue_is_zero(ctx.reduce([-3, 1]))


def test_is_zero_on_reducible_modulus():
    # modulus (X^2-3X-1)(X-7): lambda is still the largest root = 7
    m = polys.mul(GOLDEN, (-7, 1))
    ctx = ResidueContext.for_largest_root(m)
    assert residue_is_zero(ctx.reduce([-7, 1]))        # X-7 vanishes at 7
    assert not residue_is_zero(ctx.reduce(GOLDEN))     # the quadratic does not
    # the quadratic's own root is not in the isolating interval of 7


def test_signs_at_a_rational_root():
    # 5 is held in an isolating interval like any root; on (X-5)(X^2-2) the
    # zero of X-5 goes through the gcd certificate, not through reduction
    for modulus in ((-5, 1), polys.mul((-5, 1), (-2, 0, 1))):
        ctx = ResidueContext.for_largest_root(modulus)
        assert residue_sign(ctx.reduce([-5, 1])) == 0
        assert residue_sign(ctx.reduce([-4, 1])) == 1
        assert residue_sign(ctx.reduce([-6, 1])) == -1


def test_signs(ctx):
    assert residue_sign(ctx.zero) == 0
    assert residue_sign(ctx.reduce([-2, 1])) == 1      # lambda - 2 > 0
    assert residue_sign(ctx.reduce([2, -1])) == -1     # 2 - lambda < 0
    assert residue_sign(ctx.reduce([0, 0, 1]) - ctx.reduce([0, 3]) - 1) == 0


def test_arithmetic_matches_reduction(ctx):
    x = ctx.x_power(1)
    assert (x * x).representative() == ctx.reduce([0, 0, 1]).representative()
    assert (x**4).representative() == [Fraction(10), Fraction(33)]
    assert (x + 1 - x - 1).is_zero_poly


def test_modulus_mismatch(ctx):
    other = ResidueContext.for_largest_root((-2, 0, 1))
    with pytest.raises(ModulusMismatch):
        _ = ctx.one + other.one


def test_contexts_at_two_roots_of_one_modulus_do_not_mix():
    # sqrt(2) and -sqrt(2) are roots of one modulus; if their contexts mixed,
    # sqrt(2) - (-sqrt(2)) would be the zero polynomial
    m = (-2, 0, 1)
    pos = ResidueContext(m, algebraic.AlgebraicReal(m, algebraic.RationalInterval(1, 2)))
    neg = ResidueContext(m, algebraic.AlgebraicReal(m, algebraic.RationalInterval(-2, -1)))
    with pytest.raises(ModulusMismatch, match="different residue contexts"):
        residue_is_zero(pos.x_power(1) - neg.x_power(1))
    assert residue_sign(pos.x_power(1)) == 1 and residue_sign(neg.x_power(1)) == -1


def test_inverse_roundtrip(ctx):
    e = ctx.reduce([-1, 1])  # lambda - 1
    inv = e.inverse()
    assert (e * inv - 1).is_zero_poly
    q = ctx.reduce([Fraction(1, 2), Fraction(-2, 3)])
    assert ((q * q.inverse()) - 1).is_zero_poly


def test_inverse_not_invertible():
    m = polys.mul(GOLDEN, (-7, 1))
    ctx = ResidueContext.for_largest_root(m)
    with pytest.raises(NotInvertible):
        ctx.reduce([-7, 1]).inverse()
    with pytest.raises(NotInvertible):
        ctx.zero.inverse()


def test_reduced_modulus_context_strips_shared_factor():
    # modulus (X^2-3X-1)(X-1) shares X-1 with the denominator list
    m = polys.mul(GOLDEN, (-1, 1))
    ctx = reduced_modulus_context(m, [(-1, 1)])
    assert ctx.modulus == GOLDEN
    inv = ctx.reduce([-1, 1]).inverse()
    assert ((ctx.reduce([-1, 1]) * inv) - 1).is_zero_poly


def test_reduced_modulus_context_rejects_vanishing_denominator():
    m = polys.mul(GOLDEN, (-7, 1))  # largest root 7
    with pytest.raises(NotInvertible):
        reduced_modulus_context(m, [(-7, 1)])


def test_reduced_modulus_context_rejects_lost_isolation(monkeypatch):
    # an interval holding both real roots of X^2-3X-1 must be refused with a
    # typed error, which `python -O` cannot strip
    from salemforge import residues
    from salemforge.algebraic import AlgebraicReal, RationalInterval

    wide = AlgebraicReal(GOLDEN, RationalInterval(Fraction(-1), Fraction(4)))
    monkeypatch.setattr(residues, "isolate_largest_real_root", lambda p: wide)
    with pytest.raises(NotIsolating):
        reduced_modulus_context(polys.mul(GOLDEN, (-1, 1)), [(-1, 1)])


def test_zero_product_on_irreducible_context(ctx):
    # modulus irreducible over Q: is_zero(e1*e2) == is_zero(e1) or is_zero(e2)
    samples = [
        ctx.zero,
        ctx.one,
        ctx.reduce([-3, 1]),
        ctx.reduce(GOLDEN),
        ctx.reduce([0, 1]) - 3 - ctx.reduce([0, 1]).inverse(),  # X-3-1/X = 0 at lambda? no
        ctx.reduce([1, 1]),
    ]
    for a in samples:
        for b in samples:
            assert residue_is_zero(a * b) == (residue_is_zero(a) or residue_is_zero(b))


def test_sign_multiplicative(ctx):
    samples = [ctx.one, ctx.reduce([-3, 1]), ctx.reduce([2, -1]), ctx.reduce([0, 1]), ctx.reduce([5])]
    for a in samples:
        for b in samples:
            sa, sb = residue_sign(a), residue_sign(b)
            if sa and sb:
                assert residue_sign(a * b) == sa * sb


def test_negative_power_is_a_power_of_the_inverse(ctx):
    x = ctx.x_power(1)
    assert x**-1 == x.inverse() == x - 3  # lambda^2 = 3 lambda + 1
    assert x**-3 == x.inverse() ** 3
    assert (x**-2 * x**2 - 1).is_zero_poly
    shared = ResidueContext.for_largest_root(polys.mul(GOLDEN, (-7, 1)))
    with pytest.raises(NotInvertible):
        shared.reduce([-7, 1]) ** -1
    with pytest.raises(NotInvertible):
        ctx.zero**-2


def test_negative_x_power_is_a_power_of_the_inverse(ctx):
    assert ctx.x_power(-1) == ctx.x_power(1).inverse() == ctx.reduce([-3, 1])
    assert ctx.x_power(-3) * ctx.x_power(3) == ctx.one
    assert ctx.x_power(-3) == ctx.x_power(1) ** -3
    # X divides X^2 - 3X, so X has no inverse modulo it
    divisible = ResidueContext.for_largest_root((0, -3, 1))
    with pytest.raises(NotInvertible):
        divisible.x_power(-1)


def test_float_operand_is_refused(ctx):
    # 0.1 is not 1/10; an exact ring takes only exact operands
    x = ctx.x_power(1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, 0.1)
        with pytest.raises(TypeError):
            op(0.1, x)
    assert x + Fraction(1, 10) == ctx.reduce([Fraction(1, 10), 1])
    assert x - 2 == ctx.reduce([-2, 1]) and 2 - x == ctx.reduce([2, -1])


@pytest.mark.parametrize("bad", [0.1, "1/2", 1.0, None, complex(1, 0)])
def test_reduce_refuses_all_but_int_and_fraction(ctx, bad):
    # reduce([0.1]) once gave .../36028797018963968 and reduce(["1/2"]) parsed the string
    with pytest.raises(TypeError):
        ctx.reduce([1, bad])
    assert ctx.reduce([2, Fraction(1, 2)]) == 2 + ctx.x_power(1) * Fraction(1, 2)


fracs = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), max_size=4)


@given(fracs, fracs, st.integers(-6, 6))
@settings(max_examples=80, deadline=None)
def test_ring_ops_give_the_reduced_representative(p, q, k):
    # sums, differences and integer multiples against Fraction arithmetic;
    # the representative is num/den in lowest terms with den > 0
    ctx = ResidueContext.for_largest_root(GOLDEN)
    a, b = ctx.reduce(p), ctx.reduce(q)
    pad = lambda c: list(c) + [Fraction(0)] * (4 - len(c))
    pp, qq = pad(p), pad(q)
    cases = (
        (a + b, [x + y for x, y in zip(pp, qq)]),
        (a - b, [x - y for x, y in zip(pp, qq)]),
        (k * a, [k * x for x in pp]),
        (a * k - b, [k * x - y for x, y in zip(pp, qq)]),
        (k - a, [k - pp[0]] + [-x for x in pp[1:]]),
    )
    for got, coeffs in cases:
        assert got == ctx.reduce(coeffs)
        assert got.den > 0 and (not got.num or math.gcd(got.den, *got.num) == 1)
        assert not got.num or got.num[-1] != 0


@given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_reduce_matches_long_division(coeffs):
    ctx = ResidueContext.for_largest_root(GOLDEN)
    e = ctx.reduce(coeffs)
    expect = long_division_remainder(coeffs, GOLDEN)
    got = e.representative() + [Fraction(0)] * (2 - len(e.representative()))
    assert got == expect


def test_certificate_finds_no_zero_then_sign_narrows_on(monkeypatch):
    # p/q, a continued-fraction convergent of lambda = [3; 3, 3, ...] within
    # 2^-100: qX - p stays undecided through three rounds, the certificate
    # rules a zero out, and narrowing goes on until the sign is certified
    p0, q0, p, q = 1, 0, 3, 1
    while q * q0 <= 2**100:  # |lambda - p/q| < 1/(q * q0)
        p0, q0, p, q = p, q, 3 * p + p0, 3 * q + q0
    certified = []
    vanishes_at = algebraic.vanishes_at

    def recorded(g, root):
        certified.append(vanishes_at(g, root))
        return certified[-1]

    monkeypatch.setattr(algebraic, "vanishes_at", recorded)
    # a fresh refinement memo, so lambda starts from its isolating interval;
    # the sign of lambda - p/q = (3 + sqrt(13))/2 - p/q comes from integers
    monkeypatch.setattr(algebraic, "_MEMO", {})
    r = 2 * p - 3 * q
    expect = 1 if r < 0 or 13 * q * q > r * r else -1
    plain = ResidueContext.for_largest_root(GOLDEN)
    # modulo GOLDEN * (X + 2) the element shares the factor X + 2 with the
    # modulus, which is the root's defining polynomial, but X + 2 is nonzero
    # at lambda
    shared = ResidueContext.for_largest_root(polys.mul(GOLDEN, (2, 1)))
    for e in (plain.reduce([-p, q]), shared.reduce(polys.mul((2, 1), (-p, q)))):
        certified.clear()
        assert not residue_is_zero(e)
        assert certified == [False]
        assert residue_sign(e) == expect


def test_x_minus_lambda_is_zero_check():
    # lambda itself as a residue: X - lambda = 0 exactly
    ctx = ResidueContext.for_largest_root(GOLDEN)
    lam = ctx.x_power(1)
    assert residue_is_zero(lam * lam - 3 * lam - 1)


# -- one context shared across threads ------------------------------------------


def run_threads(n, target):
    barrier = threading.Barrier(n)
    errors = []

    def body(i):
        try:
            barrier.wait(timeout=30)
            target(i)
        except BaseException as exc:  # reported after join
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors


def test_x_power_memo_shared_across_threads():
    # six threads ask one context for powers up to X^300; then every power
    # equals X reduced and repeated squaring of X, which needs no long division
    # of X^k, unlike `reduce`
    modulus = polys.mul(GOLDEN, polys.binomial_xn_plus_1(9))
    for _ in range(5):
        ctx = ResidueContext.for_largest_root(modulus)
        run_threads(6, lambda i: ctx.x_power(300 - i))
        for k in range(301):
            assert ctx.x_power(k) == ctx.reduce([0] * k + [1])
            assert ctx.x_power(k) == ctx.x_power(1) ** k


def test_realization_verdicts_shared_across_threads():
    # the d=4 realization checks, run by 6 threads on one context: each
    # verdict equals the serial one and the shared root only narrows
    from salemforge import realization
    from salemforge.spectrum import SpectrumKey

    key = SpectrumKey(4, (2, 3, 4, 5, 6, 7))
    report = realization.verify_realization(key)
    checks = [r for _, results in report.groups for r in results]
    ctx = realization._context_for(key)

    def verdict(r):
        e = ctx.reduce(r.expression)
        return residue_sign(e) == 1 if r.expected == "positive" else residue_is_zero(e) == (r.expected == "zero")

    got = [None] * len(checks)
    widths = [[] for _ in range(6)]
    order = list(range(len(checks)))
    random.Random(0).shuffle(order)

    def work(i):
        # a sixth of the checks each, plus a sample that other threads also run
        extra = random.Random(i).sample(order, len(order) // 6)
        for n in order[i::6] + extra:
            got[n] = verdict(checks[n])
            widths[i].append(ctx.root.interval.width)

    run_threads(6, work)
    assert got == [r.passed for r in checks]
    assert all(r.passed for r in checks)
    for seen in widths:
        assert all(b <= a for a, b in zip(seen, seen[1:]))


def test_narrow_root_keeps_the_narrower_interval(monkeypatch):
    # the context reads its root from the refinement memo, on a fresh memo
    # here: a wider cell never replaces a narrower one, and the root cannot
    # be assigned
    monkeypatch.setattr(algebraic, "_MEMO", {})
    ctx = ResidueContext.for_largest_root(GOLDEN)
    wide = ctx.root
    narrow = algebraic.refine(wide, wide.interval.width / 2**30)
    assert ctx.root == narrow
    wider = algebraic.refine(wide, wide.interval.width / 2**10)
    algebraic._remember(ctx._slot, algebraic._cell(wider))
    assert ctx.root == narrow
    with pytest.raises(AttributeError):
        ctx.root = wide


def within(fn, seconds=60):
    # fn() in a daemon thread: a sign loop that stops narrowing fails here
    # instead of hanging the suite
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert out, f"no verdict within {seconds} s"
    return out[0]


def sign_within(e, seconds=60):
    return within(lambda: residue_sign(e), seconds)


SQRT2 = (-2, 0, 1)


def test_sign_narrows_a_context_whose_interval_does_not_nest(monkeypatch):
    # the memo holds sqrt(2) on the grid of [1, 2], at [11/8, 23/16]; the
    # context's [7/5, 3/2] overlaps that cell without nesting, so it narrows
    # a slot of its own; X - 1.414 needs a cell narrower than 2.1e-4
    monkeypatch.setattr(algebraic, "_MEMO", {})
    memo = algebraic.AlgebraicReal(SQRT2, algebraic.RationalInterval(1, 2))
    algebraic.refine(memo, Fraction(1, 16))
    own = algebraic.AlgebraicReal(SQRT2, algebraic.RationalInterval(Fraction(7, 5), Fraction(3, 2)))
    ctx = ResidueContext(SQRT2, own)
    assert sign_within(ctx.reduce([Fraction(-1414, 1000), 1])) == 1
    assert sign_within(ctx.reduce([Fraction(-1415, 1000), 1])) == -1
    assert ctx.root.interval.width <= Fraction(1, 10) / 2**20
    assert Fraction(7, 5) < ctx.root.interval.lo < ctx.root.interval.hi < Fraction(3, 2)


def test_sign_narrows_a_context_whose_memo_entry_was_evicted(monkeypatch):
    # the memo drops its oldest polynomial when full; a context that still
    # holds the dropped slot keeps narrowing it
    monkeypatch.setattr(algebraic, "_MEMO", {})
    ctx = ResidueContext(SQRT2, algebraic.AlgebraicReal(SQRT2, algebraic.RationalInterval(1, 2)))
    algebraic._MEMO.clear()
    assert sign_within(ctx.reduce([Fraction(-1414, 1000), 1])) == 1
    assert ctx.root.interval.width <= Fraction(1, 2**20)
    assert residue_is_zero(ctx.reduce([-2, 0, 0]) + ctx.x_power(2))


# -- the power table of a memo slot -----------------------------------------


def loop_sign(f, cell, g):
    """Reference: the sign of g at the root of f in the cell as interval
    Horner decided it, 20 halvings per undecided round and `vanishes_at`
    at round 3."""
    for undecided in itertools.count(1):
        lo, hi = polys.eval_interval(g, Fraction(cell[0], cell[2]), Fraction(cell[1], cell[2]))
        s = 1 if lo > 0 else -1 if hi < 0 else 0
        if s or (undecided == 3 and algebraic.vanishes_at(g, algebraic._real(f, cell))):
            return s
        for _ in range(20):
            cell = algebraic._halve(f, cell)


def first_table_undecided(monkeypatch):
    """Make the first table that each sign builds undecided, so that such
    a sign narrows its cell at least once; returns the list of the cells
    of the tables made undecided."""
    power_table, sign = algebraic._power_table, algebraic.MemoSlot.sign
    first, forced = [], []

    def table(cell, n):
        cell, mid, rad = power_table(cell, n)
        if first and first.pop():
            # a radius of |mid| + rad makes r >= |c|
            rad = tuple(abs(m) + r for m, r in zip(mid, rad))
            forced.append(cell)
        return cell, mid, rad

    def first_undecided(slot, g):
        first[:] = [True]
        return sign(slot, g)

    monkeypatch.setattr(algebraic, "_power_table", table)
    monkeypatch.setattr(algebraic.MemoSlot, "sign", first_undecided)
    return forced


@st.composite
def defining_and_signs(draw):
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=3, max_size=8).filter(lambda c: c[-1] and c[0]))
    f = polys.primitive(polys.square_free_part(tuple(coeffs)))
    b = polys.cauchy_bound(f)
    assume(polys.sturm_count(f, -b, b) > 0)
    # the largest root's cell, a few halvings deep: lo >= 0, hi <= 0 or lo < 0 < hi
    cell = algebraic._cell(algebraic.isolate_largest_real_root(f))
    for _ in range(draw(st.integers(0, 4))):
        cell = algebraic._halve(f, cell)
    short = st.lists(st.integers(-40, 40), min_size=1, max_size=len(f) - 1)
    gs = draw(st.lists(short.map(polys.normalize).filter(bool), min_size=1, max_size=6))
    # 2 den X - (lo + hi) for the midpoint of a deeper cell, so that some
    # signs need a narrow cell
    for depth in draw(st.lists(st.integers(8, 40), max_size=2)):
        deep = cell
        for _ in range(depth):
            deep = algebraic._halve(f, deep)
        gs.append((-(deep[0] + deep[1]), 2 * deep[2]))
    return f, cell, gs


@given(defining_and_signs())
@settings(max_examples=60, deadline=None)
def test_table_signs_match_the_loop(case):
    f, cell, gs = case
    reference = [loop_sign(f, cell, g) for g in gs]
    assert [algebraic.MemoSlot(f, cell).sign(g) for g in gs] == reference
    with pytest.MonkeyPatch.context() as monkeypatch:
        forced = first_table_undecided(monkeypatch)
        assert [algebraic.MemoSlot(f, cell).sign(g) for g in gs] == reference
        assert forced == [cell] * len(gs)
    # and one slot answering every g in turn, its table growing with g
    slot = algebraic.MemoSlot(f, cell)
    assert [slot.sign(g) for g in gs] == reference


def test_root_at_zero_in_a_cell_holding_zero():
    # 0 is the only real root of X^3 + X^2 + X; on (-2, 2) the table holds
    # x**0 = 1 exactly, so the constant signs decide at once
    slot = algebraic.MemoSlot((0, 1, 1, 1), (-2, 2, 1, -1))
    gs = [(15, -4), (0, 1), (1,), (-1, 0, 2), (0, 0, 1), (0, -1)]
    assert [within(lambda: slot.sign(g)) for g in gs] == [1, 0, 1, -1, 0, 0]
    assert [loop_sign((0, 1, 1, 1), (-2, 2, 1, -1), g) for g in gs] == [1, 0, 1, -1, 0, 0]


def test_zero_verdicts_go_through_the_certificate(monkeypatch):
    # multiples of the quadratic factor vanish at its root lambda = 3.30...,
    # the largest root of the reducible modulus; each zero is certified
    certified = []
    vanishes_at = algebraic.vanishes_at

    def counted(g, root):
        certified.append(vanishes_at(g, root))
        return certified[-1]

    monkeypatch.setattr(algebraic, "vanishes_at", counted)
    monkeypatch.setattr(algebraic, "_MEMO", {})
    ctx = ResidueContext.for_largest_root(polys.mul(GOLDEN, (-2, 0, 0, 1)))
    rng = random.Random(7)
    for n in range(1, 13):
        h = polys.normalize(rng.randint(-30, 30) for _ in range(3)) or (1,)
        e = ctx.reduce(polys.mul(GOLDEN, h))
        assert not e.is_zero_poly and residue_sign(e) == 0
        assert certified == [True] * n
    assert ctx._slot._powers is not None and ctx._slot.cell[0] >= 0


def test_negative_root_takes_the_loop(monkeypatch):
    # the largest root of X^2 + 3X + 1 is (-3 + sqrt(5))/2 = -0.3819...,
    # isolated in the cell (-2, 0, 1): it takes the one loop of every root,
    # a table of its cell first, and gets the reference loop's verdicts
    monkeypatch.setattr(algebraic, "_MEMO", {})
    ctx = ResidueContext.for_largest_root((1, 3, 1))
    f, cell = ctx._slot.defining, ctx._slot.cell
    assert cell[:3] == (-2, 0, 1)
    es = [ctx.x_power(1), ctx.reduce([Fraction(38, 100), 1]), ctx.reduce([Fraction(382, 1000), 1])]
    assert [residue_sign(e) for e in es] == [-1, -1, 1]
    assert [loop_sign(f, cell, e.num) for e in es] == [-1, -1, 1]
    assert residue_is_zero(ctx.x_power(2) + 3 * ctx.x_power(1) + 1)
    # a multiple of the defining polynomial, which the ring would reduce to 0
    g = polys.mul((1, 3, 1), (-5, 1))
    assert ctx._slot.sign(g) == loop_sign(f, cell, g) == 0
    assert ctx._slot._powers is not None and ctx._slot._powers[0][1] <= 0


def realize_checks():
    from salemforge import realization
    from salemforge.spectrum import SpectrumKey

    key = SpectrumKey(4, (2, 3, 4, 5, 6, 7))
    report = realization.verify_realization(key)
    return key, [r for _, results in report.groups for r in results]


def test_undecided_table_gives_the_same_verdicts(monkeypatch):
    # each sign narrows its cell at least once, and every verdict matches
    # the reference loop on the root's starting cell
    from salemforge import realization

    key, checks = realize_checks()
    monkeypatch.setattr(algebraic, "_MEMO", {})
    ctx = realization._context_for(key)
    f, cell = ctx._slot.defining, ctx._slot.cell
    reference = [loop_sign(f, cell, r.num) if r.num else 0 for r in checks]
    forced = first_table_undecided(monkeypatch)
    monkeypatch.setattr(algebraic, "_MEMO", {})
    report = realization.verify_realization(key)
    assert cell in forced
    assert [r for _, results in report.groups for r in results] == checks
    ctx = realization._context_for(key)
    assert [residue_sign(ctx.reduce(r.expression)) for r in checks] == reference


def test_table_signs_shared_across_threads(monkeypatch):
    # 4 threads sign every realize check expression on one context, from a
    # fresh memo, so the cell narrows and its table is rebuilt while others
    # read it; every sign equals the one-thread sign on a context of its own
    from salemforge import realization

    key, checks = realize_checks()
    monkeypatch.setattr(algebraic, "_MEMO", {})
    serial_ctx = realization._context_for(key)
    serial = [residue_sign(serial_ctx.reduce(r.expression)) for r in checks]
    monkeypatch.setattr(algebraic, "_MEMO", {})
    ctx = realization._context_for(key)
    exprs = [ctx.reduce(r.expression) for r in checks]
    got = [[None] * len(exprs) for _ in range(4)]

    def work(i):
        order = list(range(len(exprs)))
        random.Random(i).shuffle(order)
        for n in order:
            got[i][n] = residue_sign(exprs[n])

    run_threads(4, work)
    assert all(signs == serial for signs in got)
    cell, mid, rad = ctx._slot._powers
    assert (mid, rad) == algebraic._power_table(cell, len(mid))[1:]
