"""The refinement memo: interval bytes never depend on what was refined before.

Every irrational root keeps its deepest known cell in one process-wide memo.
`refine(x, w)` must still return exactly the cell that plain bisection of
x's interval stops at, whatever the memo holds: after a deeper refine, after
a compare that bisected the root, and after a refine of the same root from
an interval that is not a grid ancestor.  Plain bisection below is the
oracle; each case starts from a fresh memo.
"""

import contextlib
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from salemforge import algebraic, polys
from salemforge.algebraic import AlgebraicReal, RationalInterval, compare, compare_with_rational, refine
from salemforge.cli import main
from salemforge.spectrum import SpectrumKey, _dominant_root, dynamical_degree, enumerate_level_prefix
from test_golden import GOLDEN, sha256
from test_residues import run_threads


@contextlib.contextmanager
def fresh_memo():
    saved = algebraic._MEMO
    algebraic._MEMO = {}
    try:
        yield
    finally:
        algebraic._MEMO = saved


def plain_bisection(f, lo, hi, width):
    """Halve [lo, hi] at midpoints by the sign of f until at most `width` wide."""
    s = polys.sign(polys.eval_at(f, lo))
    while hi - lo > width:
        m = (lo + hi) / 2
        s_m = polys.sign(polys.eval_at(f, m))
        assert s_m != 0
        lo, hi = (lo, m) if s_m != s else (m, hi)
    return lo, hi


def bounds(a):
    return a.interval.lo, a.interval.hi


def off_grid(x, width):
    """A non-ancestor interval of x's root: a plain cell, at least two levels
    deep so that it stays inside x's interval, widened by a third."""
    lo, hi = plain_bisection(x.defining, x.interval.lo, x.interval.hi, min(width, x.interval.width / 4))
    third = (hi - lo) / 3
    lo, hi = (lo - third, hi) if lo - third > x.interval.lo else (lo, hi + third)
    return AlgebraicReal(x.defining, RationalInterval(lo, hi))


keys = st.builds(
    SpectrumKey,
    st.integers(4, 5),
    st.lists(st.integers(2, 7), max_size=3).map(tuple),
)
widths = st.one_of(
    st.integers(1, 10**40).map(lambda n: Fraction(1, n)),
    st.integers(0, 130).map(lambda k: Fraction(1, 2**k)),
)


@given(keys, widths, st.integers(1, 90), keys)
@settings(max_examples=40, deadline=None)
def test_refine_bytes_do_not_depend_on_the_memo(key, width, deeper, other_key):
    x, other = _dominant_root(key), _dominant_root(other_key)
    expect = plain_bisection(x.defining, x.interval.lo, x.interval.hi, width)
    with fresh_memo():
        assert bounds(refine(x, width)) == expect
        refine(x, width / 2**deeper)
        assert bounds(refine(x, width)) == expect
    with fresh_memo():
        # a rational a quarter into a deep cell: the compare bisects x past it
        lo, hi = plain_bisection(x.defining, x.interval.lo, x.interval.hi, width / 2**deeper)
        assert compare_with_rational(x, (3 * lo + hi) / 4) in (-1, 1)
        compare(x, other)
        assert bounds(refine(x, width)) == expect
    with fresh_memo():
        refine(x, width / 2**deeper)
        y = off_grid(x, width)
        y_width = y.interval.width / 2**deeper
        assert bounds(refine(y, y_width)) == plain_bisection(y.defining, y.interval.lo, y.interval.hi, y_width)
        assert bounds(refine(x, width)) == expect


def test_off_grid_refine_leaves_the_memo_cell():
    x = _dominant_root(SpectrumKey(4, (2, 3)))
    with fresh_memo():
        refine(x, Fraction(1, 10**30))
        cell = algebraic.memo_slot(x).cell
        refine(off_grid(x, Fraction(1, 10**6)), Fraction(1, 10**40))
        assert algebraic.memo_slot(x).cell == cell


def golden_key(argv):
    entries = argv[argv.index("--tuple") + 1]
    return SpectrumKey(int(argv[argv.index("--d") + 1]), tuple(int(n) for n in entries.split(",") if n))


def test_lambda_and_classify_golden_twice(capsys, monkeypatch):
    # the second run follows refinement of the same keys far past what the
    # commands ask, so every cell they print is an ancestor of the memo's
    monkeypatch.delenv("SALEMFORGE_CACHE", raising=False)
    cases = [(argv, digest) for argv, digest in GOLDEN if argv[0] in ("lambda", "classify")]
    for _ in range(2):
        for argv, digest in cases:
            assert main(list(argv)) == 0
            assert sha256(capsys.readouterr().out) == digest
        for argv, _ in cases:
            dynamical_degree(golden_key(argv), Fraction(1, 10**80))


def test_compare_and_refine_shared_across_threads():
    # the level prefix the spectrum-order benchmark enumerates, plus each
    # key's bumped and appended neighbours; 6 threads compare and refine
    # them on one memo, and every verdict and interval equals the serial one
    keys = set()
    for e in enumerate_level_prefix(4, 3, 10, 30):
        t = e.key.tuple
        keys |= {e.key, SpectrumKey(4, t[:-1] + (t[-1] + 1,)), SpectrumKey(4, t + (9,))}
    keys = sorted(keys, key=lambda k: k.tuple)
    roots = [_dominant_root(k) for k in keys]
    rng = random.Random(0)
    ops = [("compare", i, j) for i in range(len(roots)) for j in range(len(roots)) if i != j]
    ops += [("refine", i, Fraction(1, 10 ** rng.randrange(5, 60))) for i in range(len(roots)) for _ in range(4)]
    rng.shuffle(ops)

    def run(op):
        if op[0] == "compare":
            return compare(roots[op[1]], roots[op[2]])
        return bounds(refine(roots[op[1]], op[2]))

    with fresh_memo():
        serial = [run(op) for op in ops]
    with fresh_memo():
        got = [None] * len(ops)
        seen = [[] for _ in range(6)]

        def work(i):
            for n in list(range(i, len(ops), 6)) + random.Random(i).sample(range(len(ops)), len(ops) // 6):
                got[n] = run(ops[n])
                seen[i].append([algebraic.memo_slot(x).cell for x in roots])

        run_threads(6, work)
    assert got == serial
    for snapshots in seen:
        for before, after in zip(snapshots, snapshots[1:]):
            for a, b in zip(before, after):
                assert a == b or algebraic._descent(a, b)
