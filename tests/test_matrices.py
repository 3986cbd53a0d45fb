"""Sparse integer matrix kernels against the dense algorithms they replaced.

The oracles below are the earlier implementations: the characteristic
polynomial from Bareiss determinants of k*I - M at the nodes k = 0..n,
re-assembled by Fraction Lagrange interpolation, and the dense
transpose-and-zip product.  The Berkowitz `char_poly` and the sparse-row
`mat_mul` must reproduce them exactly.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemforge import matrices, polys
from salemforge.jonquieres import OrbitData, jonquieres_matrix


# -- oracles ---------------------------------------------------------------


def oracle_lagrange_integer(xs, ys):
    acc = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(basis) + 1)
            for t, c in enumerate(basis):
                nxt[t] -= c * xj
                nxt[t + 1] += c
            basis = nxt
            denom *= xi - xj
        w = Fraction(yi) / denom
        for t, c in enumerate(basis):
            acc[t] += w * c
    assert all(c.denominator == 1 for c in acc)
    return polys.normalize(int(c) for c in acc)


def oracle_char_poly(m):
    """det(X*I - M) from Bareiss determinants at n+1 integer nodes."""
    n = len(m)
    if n == 0:
        return polys.ONE
    values = [
        matrices.det(
            tuple(tuple((k if i == j else 0) - m[i][j] for j in range(n)) for i in range(n))
        )
        for k in range(n + 1)
    ]
    return oracle_lagrange_integer(list(range(n + 1)), values)


def oracle_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


# -- strategies ------------------------------------------------------------

ENTRY = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))


@st.composite
def sparse_square(draw, max_n=8):
    """Mostly-zero rows, with whole rows and columns cleared."""
    n = draw(st.integers(0, max_n))
    index = st.integers(0, max(n - 1, 0))
    m = [[0] * n for _ in range(n)]
    for row in m:
        for j in draw(st.sets(index, max_size=n)):
            row[j] = draw(ENTRY)
    for i in draw(st.sets(index, max_size=n)):
        m[i] = [0] * n
    for j in draw(st.sets(index, max_size=n)):
        for row in m:
            row[j] = 0
    return tuple(tuple(row) for row in m)


def rect(rows, cols, entry=st.one_of(st.just(0), ENTRY)):
    row = st.lists(entry, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


# -- char_poly -------------------------------------------------------------


@given(sparse_square())
@settings(max_examples=150, deadline=None)
def test_char_poly_matches_bareiss_lagrange(m):
    char = matrices.char_poly(m)
    assert char == oracle_char_poly(m)
    assert len(char) == len(m) + 1 and char[-1] == 1


@given(sparse_square())
@settings(max_examples=60, deadline=None)
def test_char_poly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    n = len(m)
    coeffs = sympy.Matrix(n, n, sum(m, ())).charpoly(sympy.Symbol("X")).all_coeffs()
    assert matrices.char_poly(m) == tuple(int(c) for c in reversed(coeffs))


def test_char_poly_of_dense_and_empty():
    assert matrices.char_poly(()) == polys.ONE
    dense = tuple(tuple(10**6 - 7 * i - 3 * j for j in range(8)) for i in range(8))
    assert matrices.char_poly(dense) == oracle_char_poly(dense)


def test_char_poly_of_sweep_matrices_up_to_size_17():
    checked = set()
    for d in (4, 5):
        for length in range(2 * d - 1):
            for tup in itertools.combinations_with_replacement((2, 3, 4), length):
                o = OrbitData(d, tup)
                if o.matrix_size <= 17:
                    j = jonquieres_matrix(o)
                    assert matrices.char_poly(j) == oracle_char_poly(j), o
                    checked.add(o.matrix_size)
    assert checked == {3, *range(5, 18)}


# -- mat_mul ---------------------------------------------------------------


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_dense_product(n, k, p, data):
    a = data.draw(rect(n, k))
    b = data.draw(rect(k, p))
    assert matrices.mat_mul(a, b) == oracle_mat_mul(a, b)


@given(st.integers(1, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_mat_mul_dense_left_factor(n, data):
    a = data.draw(rect(n, n, st.integers(-(10**6), 10**6).filter(bool)))
    b = data.draw(rect(n, n, ENTRY))
    assert matrices.mat_mul(a, b) == oracle_mat_mul(a, b)


def test_mat_mul_empty_shapes():
    assert matrices.mat_mul((), ()) == ()
    assert matrices.mat_mul(((), ()), ()) == ((), ())
    assert matrices.mat_mul(((1, 2),), ((), ())) == ((),)


# -- vec_mat ---------------------------------------------------------------


@given(sparse_square(), st.data())
@settings(max_examples=150, deadline=None)
def test_vec_mat_matches_dense_product(a, data):
    # sparse_square clears whole rows and columns, so zero columns occur
    v = data.draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
    assert matrices.vec_mat(v, a) == oracle_mat_mul((tuple(v),), a)[0]


def test_vec_mat_skips_zero_entries():
    # a zero entry never multiplies its coordinate, so a zero column is the int 0
    row = matrices.vec_mat((5, None), ((1, 0), (0, 0)))
    assert row == (5, 0) and type(row[1]) is int


# -- typed errors ----------------------------------------------------------


def test_permutation_matrix_rejects_non_permutation():
    with pytest.raises(ValueError):
        matrices.permutation_matrix((0, 0, 2), 3)
    with pytest.raises(ValueError):
        matrices.permutation_matrix((0, 1), 3)
