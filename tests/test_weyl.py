"""Quadratic steps and the greedy membership reduction.

For rank 3 (size-4 matrices) the group generated by the simple reflections
is finite, so a breadth-first closure serves as an exhaustive oracle both
for members and for the signed-permutation non-member.
"""

import random

import pytest

from salemforge import matrices
from salemforge.errors import IndexClash, NotAnIsometry
from salemforge.jonquieres import OrbitData, jonquieres_matrix
from salemforge.weyl import (
    NotReduced,
    ReductionTrace,
    _quadratic_step,
    cremona_involution_on,
    is_weyl_member,
    preserves_form,
    reduce,
)

CREMONA_BLOCK = (
    (2, 1, 1, 1),
    (-1, 0, -1, -1),
    (-1, -1, 0, -1),
    (-1, -1, -1, 0),
)


def test_reflection_gives_cremona_block():
    r = cremona_involution_on((1, 2, 3), 4)
    assert r == CREMONA_BLOCK
    assert matrices.mat_mul(r, r) == matrices.identity(4)
    assert preserves_form(r)


def _reflection_in(alpha):
    # x -> x + (x . alpha) alpha, for a root with alpha . alpha = -2
    n = len(alpha)
    sign = (1,) + (-1,) * (n - 1)
    return tuple(
        tuple(int(r == c) + sign[c] * alpha[c] * alpha[r] for c in range(n)) for r in range(n)
    )


def test_reflection_involution_and_form():
    for alpha, r in (
        ((1, -1, -1, -1), cremona_involution_on((1, 2, 3), 4)),
        ((0, 1, -1, 0), matrices.permutation_matrix((0, 2, 1, 3), 4)),
        ((0, 0, 1, -1), matrices.permutation_matrix((0, 1, 3, 2), 4)),
    ):
        assert r == _reflection_in(alpha)
        assert matrices.mat_mul(r, r) == matrices.identity(4)
        assert preserves_form(r)


def test_quadratic_step_matches_reflection():
    # oracle: x -> x + (x . alpha) alpha on each column, for the form
    # x . y = x0 y0 - x1 y1 - ... - x_{n-1} y_{n-1}
    rng = random.Random(18)
    for _ in range(200):
        n = rng.randrange(4, 31)
        t = tuple(rng.sample(range(1, n), 3))
        alpha = [1] + [-1 if r in t else 0 for r in range(1, n)]
        m = tuple(tuple(rng.randrange(-50, 51) for _ in range(n)) for _ in range(n))
        cols = []
        for c in range(n):
            x = [row[c] for row in m]
            dot = x[0] * alpha[0] - sum(x[r] * alpha[r] for r in range(1, n))
            cols.append([x[r] + dot * alpha[r] for r in range(n)])
        want = tuple(tuple(col[r] for col in cols) for r in range(n))
        assert _quadratic_step(m, t) == want


def test_cremona_involution_on_padding_and_conjugation():
    m = cremona_involution_on((1, 2, 3), 6)
    for i in range(4):
        for j in range(4):
            assert m[i][j] == CREMONA_BLOCK[i][j]
    for i in range(4, 6):
        assert m[i][i] == 1
    # acting on (1, 4, 5) is the permutation-conjugated copy
    g = cremona_involution_on((1, 4, 5), 6)
    assert matrices.mat_mul(g, g) == matrices.identity(6)
    assert preserves_form(g)


def test_cremona_involution_on_index_clash():
    with pytest.raises(IndexClash):
        cremona_involution_on((1, 1, 2), 6)
    with pytest.raises(IndexClash):
        cremona_involution_on((0, 1, 2), 6)
    with pytest.raises(IndexClash):
        cremona_involution_on((1, 2, 9), 6)
    with pytest.raises(IndexClash):
        cremona_involution_on((1, 2), 6)
    with pytest.raises(IndexClash):
        cremona_involution_on((1, 2, 3, 4), 6)


def test_reduce_identity():
    trace = reduce(matrices.identity(5))
    assert isinstance(trace, ReductionTrace)
    assert trace.steps == () and trace.terminal == matrices.identity(5)


def test_reduce_rejects_non_isometry():
    j = jonquieres_matrix(OrbitData(4, (2,)))  # m < 2d-1: J Q J^T != Q
    with pytest.raises(NotAnIsometry):
        reduce(j)


def random_word_matrix(rng, n, length):
    cur = matrices.identity(n)
    for _ in range(length):
        if rng.random() < 0.5:
            g = matrices.permutation_matrix((0, *rng.sample(range(1, n), n - 1)), n)
        else:
            g = cremona_involution_on(tuple(rng.sample(range(1, n), 3)), n)
        cur = matrices.mat_mul(cur, g)
    return cur


def test_random_words_certify_membership():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(4, 11)
        m = random_word_matrix(rng, n, rng.randrange(0, 13))
        member, trace = is_weyl_member(m)
        assert member
        assert trace.replay(m) == trace.terminal
        assert matrices.is_permutation_matrix(trace.terminal)


def test_jonquieres_membership_step_counts():
    for d in (4, 5, 6):
        o = OrbitData(d, tuple(range(2, 2 * d)))
        assert o.m == 2 * d - 1
        member, trace = is_weyl_member(jonquieres_matrix(o))
        assert member
        assert trace.quadratic_steps == d - 1


def test_signed_permutation_is_not_member():
    n = 6
    m = tuple(
        tuple((-1 if i == n - 1 else 1) if i == j else 0 for j in range(n)) for i in range(n)
    )
    assert preserves_form(m)
    member, obstruction = is_weyl_member(m)
    assert not member
    assert isinstance(obstruction, NotReduced)


def bfs_closure_rank3():
    """All of the rank-3 group, generated by the simple reflections."""
    gens = [
        cremona_involution_on((1, 2, 3), 4),
        matrices.permutation_matrix((0, 2, 1, 3), 4),
        matrices.permutation_matrix((0, 1, 3, 2), 4),
    ]
    seen = {matrices.identity(4)}
    frontier = [matrices.identity(4)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                c = matrices.mat_mul(g, m)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def test_rank3_exhaustive_closure():
    group = bfs_closure_rank3()
    # the rank-3 diagram is a chain of three nodes: the group is finite
    assert 1 < len(group) < 10000
    for m in sorted(group)[:50]:
        member, trace = is_weyl_member(m)
        assert member and trace.replay(m) == trace.terminal
    bad = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1))
    assert bad not in group
    assert not is_weyl_member(bad)[0]


def test_char_poly_invariant_under_conjugation():
    rng = random.Random(5)
    o = OrbitData(4, (2, 3, 4, 5, 6, 7))
    j = jonquieres_matrix(o)
    n = len(j)
    base = matrices.char_poly(j)
    for _ in range(3):
        g = cremona_involution_on(tuple(rng.sample(range(1, n), 3)), n)
        conj = matrices.mat_mul(matrices.mat_mul(g, j), g)  # g is an involution
        assert matrices.char_poly(conj) == base


def test_generators_preserve_form_exactly():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(4, 9)
        g = cremona_involution_on(tuple(rng.sample(range(1, n), 3)), n)
        assert preserves_form(g)
        perm = [0] + rng.sample(range(1, n), n - 1)
        assert preserves_form(matrices.permutation_matrix(tuple(perm), n))
