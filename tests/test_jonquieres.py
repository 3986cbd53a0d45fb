"""Matrix and polynomial constructions for orbit data.

The characteristic-polynomial oracle here is a naive cofactor-expansion
determinant over the polynomial ring, fully independent of the Berkowitz
recurrence used by the library.
"""

import itertools
import random

import pytest

from salemforge import matrices, polys
from salemforge.errors import InvalidOrbitData, StructureViolation
from salemforge.jonquieres import (
    OrbitData,
    auxiliary_polynomial,
    basis_labels,
    defect_matrix,
    intersection_form,
    jonquieres_matrix,
    verify_structure,
)

import polytools


def poly_mat_det(entries):
    """Cofactor-expansion determinant of a matrix of polynomial tuples."""
    n = len(entries)
    if n == 1:
        return entries[0][0]
    out = ()
    for j in range(n):
        if polys.is_zero(entries[0][j]):
            continue
        minor = [row[:j] + row[j + 1 :] for row in entries[1:]]
        term = polys.mul(entries[0][j], poly_mat_det(minor))
        out = polys.add(out, term) if j % 2 == 0 else polys.sub(out, term)
    return out


def char_oracle(m):
    """det(X*I - M) by cofactor expansion; exponential, keep sizes small."""
    n = len(m)
    entries = [
        [polys.sub((0, 1) if i == j else (), (m[i][j],)) for j in range(n)]
        for i in range(n)
    ]
    return poly_mat_det(entries)


def test_auxiliary_polynomial_examples():
    assert auxiliary_polynomial(OrbitData(4)) == (-1, -3, 1)
    assert auxiliary_polynomial(OrbitData(4, (2,))) == (-1, -2, 0, -3, 1)
    assert auxiliary_polynomial(OrbitData(1)) == (-1, 0, 1)


def test_auxiliary_polynomial_symmetric_in_tuple():
    a = auxiliary_polynomial(OrbitData(4, (2, 3, 4)))
    for perm in itertools.permutations((2, 3, 4)):
        assert auxiliary_polynomial(OrbitData(4, perm)) == a


def sum_of_products_auxiliary(d, tup):
    """(X^2-(d-1)X-1) prod_i (X^{n_i}+1) + X sum_i prod_{j != i} (X^{n_j}+1), multiplied out."""
    blocks = [polys.binomial_xn_plus_1(n) for n in tup]
    out = polys.mul((-1, -(d - 1), 1), polytools.mul_many(blocks))
    for i in range(len(blocks)):
        out = polys.add(out, polys.shift(polytools.mul_many(blocks[:i] + blocks[i + 1 :]), 1))
    return out


def test_auxiliary_polynomial_matches_sum_of_products():
    # the one-pass recurrence against the formula of the module docstring
    rng = random.Random(23)
    for _ in range(300):
        d = rng.randrange(1, 8)
        tup = tuple(rng.randrange(1, 12) for _ in range(rng.randrange(0, 2 * d - 1)))
        assert auxiliary_polynomial(OrbitData(d, tup)) == sum_of_products_auxiliary(d, tup)


def test_orbit_data_validation():
    with pytest.raises(InvalidOrbitData):
        OrbitData(4, (2,) * 7)  # m = 8 > 2d-1 = 7
    with pytest.raises(InvalidOrbitData):
        OrbitData(0)
    with pytest.raises(InvalidOrbitData):
        OrbitData(4, (0,))
    OrbitData(4, (2,) * 6)  # m = 7 is allowed


def test_orbit_data_needs_integers():
    for d, tup in ((4.0, ()), ("4", ()), (4, "2"), (4, (2.9,)), (4, (1, True))):
        with pytest.raises(InvalidOrbitData, match="integers"):
            OrbitData(d, tup)
    assert OrbitData(4, [2, 3]).tuple == (2, 3)


def test_matrix_sizes():
    assert len(jonquieres_matrix(OrbitData(4, (2,)))) == 5
    assert len(jonquieres_matrix(OrbitData(4, (2, 3, 4, 5, 6, 7)))) == 30
    assert len(jonquieres_matrix(OrbitData(4))) == 3


def test_matrix_explicit_small_case():
    # d=4, tuple=(2): written out by hand from the column description
    j = jonquieres_matrix(OrbitData(4, (2,)))
    assert j == (
        (4, 0, 3, 0, 1),
        (-3, 0, -2, 0, -1),
        (0, 1, 0, 0, 0),
        (-1, 0, -1, 0, -1),
        (0, 0, 0, 1, 0),
    )


def test_terminal_orbit_columns():
    # column of E(i, n_i - 1) is unit(L) - unit(E(1,0)) - unit(E(i,0))
    o = OrbitData(4, (2, 3, 4))
    j = jonquieres_matrix(o)
    labels = basis_labels(o)
    for i, n in enumerate(o.tuple, start=2):
        c = labels.index(f"E({i},{n-1})")
        column = tuple(j[r][c] for r in range(len(j)))
        expect = [0] * len(j)
        expect[0] = 1
        expect[labels.index("E(1,0)")] = -1
        expect[labels.index(f"E({i},0)")] = -1
        assert column == tuple(expect)


def test_basis_labels():
    o = OrbitData(4, (2, 3))
    assert basis_labels(o) == [
        "L", "E(1,0)", "E(1,1)", "E(2,0)", "E(2,1)", "E(3,0)", "E(3,1)", "E(3,2)",
    ]


def test_intersection_form():
    q = intersection_form(2)
    assert q == ((1, 0), (0, -1))
    q3 = intersection_form(3)
    assert matrices.mat_mul(q3, q3) == matrices.identity(3)
    assert matrices.char_poly(q3) == polys.mul((-1, 1), polytools.pow_int((1, 1), 2))


def test_intersection_form_rejects_empty_size():
    with pytest.raises(ValueError):
        intersection_form(0)


def test_auxiliary_polynomial_degree_check_raises(monkeypatch):
    # a block factor of the wrong degree must not pass silently, even under -O
    monkeypatch.setattr(polys, "binomial_xn_plus_1", lambda n: (1, 1))
    with pytest.raises(StructureViolation):
        auxiliary_polynomial(OrbitData(4, (2, 3)))


def test_char_poly_basics():
    assert matrices.char_poly(matrices.identity(3)) == polytools.pow_int((-1, 1), 3)
    j = jonquieres_matrix(OrbitData(4, (2,)))
    assert matrices.char_poly(j) == polys.mul((-1, 1), (-1, -2, 0, -3, 1))


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        m = tuple(tuple(rng.randrange(-4, 5) for _ in range(n)) for _ in range(n))
        assert matrices.char_poly(m) == char_oracle(m)
    j = jonquieres_matrix(OrbitData(4, (2,)))
    assert matrices.char_poly(j) == char_oracle(j)


def test_defect_matrix():
    assert defect_matrix(OrbitData(4, (2, 3, 4, 5, 6, 7))) == matrices.zero(30)
    h = defect_matrix(OrbitData(4, (2,)))
    assert h[0][0] == 5 and h[0][1] == -5 and h[1][1] == 5
    assert all(sum(row) == 0 for row in h)
    c = 2 * 5 - 1 - 1
    h5 = defect_matrix(OrbitData(5))
    assert h5[0][0] == c == 8


def test_defect_char_poly():
    o = OrbitData(4, (2,))
    h = defect_matrix(o)
    n = len(h)
    c = 2 * o.d - 1 - o.m
    expect = polys.mul(polys.shift(polys.ONE, n - 1), (-2 * c, 1))
    assert matrices.char_poly(h) == expect


def test_verify_structure_full_orbit():
    report = verify_structure(OrbitData(4, (2, 3, 4, 5, 6, 7)))
    assert report.defect_scale == 0
    assert report.canonical_row_fixed


def test_verify_structure_partial_orbit():
    report = verify_structure(OrbitData(4, (2,)))
    assert not report.canonical_row_fixed
    # the L-entry of (3,1,...,1).J is 2d+2-m
    assert report.canonical_row[0] == 2 * 4 + 2 - 2


def test_verify_structure_empty_tuple():
    report = verify_structure(OrbitData(5))
    assert report.defect_scale == 8 and not report.canonical_row_fixed


def test_determinant_is_unit():
    for o in (OrbitData(4), OrbitData(4, (2,)), OrbitData(4, (2, 3)), OrbitData(5, (3, 3, 4))):
        j = jonquieres_matrix(o)
        d = matrices.det(j)
        assert d in (1, -1)
        # det(J)^2 det(Q) = det(J Q J^T) = det(Q + H) exactly
        n = len(j)
        q = intersection_form(n)
        qh = tuple(tuple(x + y for x, y in zip(rq, rh)) for rq, rh in zip(q, defect_matrix(o)))
        assert d * d * matrices.det(q) == matrices.det(qh)


def test_x_minus_one_divides_char_once_more():
    for o in (OrbitData(4, (2,)), OrbitData(4, (2, 2)), OrbitData(5, (2, 3, 4))):
        char = matrices.char_poly(jonquieres_matrix(o))
        p = auxiliary_polynomial(o)

        def mult_at_one(f):
            count = 0
            while True:
                # X - 1 divides the zero polynomial forever
                assert f, "zero polynomial"
                q, r = polys.monic_divmod(f, (-1, 1))
                if r:
                    return count
                f = q
                count += 1

        assert mult_at_one(char) == mult_at_one(p) + 1


def test_canonical_row_L_entry_closed_form():
    for o in (OrbitData(4), OrbitData(4, (2, 4)), OrbitData(5, (2, 2, 2)), OrbitData(6, (3,) * 9)):
        j = jonquieres_matrix(o)
        n = len(j)
        row = matrices.vec_mat((3,) + (1,) * (n - 1), j)
        assert row[0] == 2 * o.d + 2 - o.m


def test_char_identity_shuffled_orderings():
    rng = random.Random(11)
    for _ in range(5):
        entries = [rng.randrange(2, 5) for _ in range(rng.randrange(1, 5))]
        rng.shuffle(entries)
        o = OrbitData(4, tuple(entries))
        char = matrices.char_poly(jonquieres_matrix(o))
        assert char == polys.mul((-1, 1), auxiliary_polynomial(o))
