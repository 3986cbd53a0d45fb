"""Residue arithmetic at the distinguished root.

Long-division oracles are computed inline with Fractions; the context
polynomial X^2-3X-1 has lambda = (3+sqrt(13))/2 as its distinguished root.
"""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    vanishes_at = residues._vanishes_at

    def recorded(g, root):
        certified.append(vanishes_at(g, root))
        return certified[-1]

    monkeypatch.setattr(residues, "_vanishes_at", recorded)
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
    # every thread extends the memo to X^300; a racy append would store a
    # power twice and shift every later one
    modulus = polys.mul(GOLDEN, polys.binomial_xn_plus_1(9))
    for _ in range(5):
        ctx = ResidueContext.for_largest_root(modulus)
        run_threads(6, lambda i: ctx.x_power(300 - i))
        for k in range(301):
            assert ctx.x_power(k) == ctx.reduce([0] * k + [1])


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


def sign_within(e, seconds=60):
    # residue_sign in a daemon thread: a sign loop that stops narrowing
    # fails here instead of hanging the suite
    out = []
    worker = threading.Thread(target=lambda: out.append(residue_sign(e)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert out, f"residue_sign gave no verdict within {seconds} s"
    return out[0]


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
