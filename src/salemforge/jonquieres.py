"""Construction of the degree-d one-large-multiplicity lattice maps.

An orbit datum is a degree d together with orbit lengths (n_2, ..., n_m);
the first orbit length is fixed at 2 by convention.  The associated matrix
acts on the ordered basis L, E(1,0), E(1,1), E(2,0), ..., E(m, n_m - 1) of
a rank-(N+1) lattice, N = 2 + sum(n_i), and its characteristic polynomial
factors as (X - 1) times the auxiliary polynomial

    (X^2-(d-1)X-1) prod_i (X^{n_i}+1) + X sum_i prod_{j != i} (X^{n_j}+1).
"""

from __future__ import annotations

from . import matrices, polys
from .errors import InvalidOrbitData, StructureViolation
from .frozen import Frozen, _set, _tuple


class OrbitData(Frozen):
    """Integer degree d >= 1 and integer orbit lengths (n_2, ..., n_m), each >= 1.

    m = 1 + len(tuple) must satisfy m <= 2d - 1.  Entries >= 2 are required
    only by the root-theoretic operations, which enforce it themselves.
    """

    __slots__ = ("d", "tuple")

    def __init__(self, d: int, tuple: tuple = ()):
        _set(self, "d", d)
        _set(self, "tuple", _tuple(tuple))
        if not all(type(n) is int for n in (self.d, *self.tuple)):  # no float, str or bool
            raise InvalidOrbitData(f"degree and orbit lengths must be integers, got {self.d!r}, {self.tuple!r}")
        if self.d < 1:
            raise InvalidOrbitData(f"degree must be >= 1, got {self.d}")
        if any(n < 1 for n in self.tuple):
            raise InvalidOrbitData(f"orbit lengths must be >= 1, got {self.tuple}")
        if self.m > 2 * self.d - 1:
            raise InvalidOrbitData(
                f"m = {self.m} exceeds 2d-1 = {2 * self.d - 1} for d = {self.d}"
            )

    @property
    def m(self) -> int:
        return 1 + len(self.tuple)

    @property
    def matrix_size(self) -> int:
        return 3 + sum(self.tuple)


def auxiliary_polynomial(o: OrbitData) -> tuple:
    """The degree-(2 + sum n_i) factor of the characteristic polynomial."""
    out, prod = (-1, -(o.d - 1), 1), polys.ONE
    for n in o.tuple:
        # appending n: P_{s,n} = (X^n + 1) P_s + X Pi_s, with prod = Pi_s = prod_i (X^{s_i} + 1)
        block = polys.binomial_xn_plus_1(n)
        out, prod = polys.add(polys.mul(block, out), polys.shift(prod, 1)), polys.mul(block, prod)
    if polys.degree(out) != 2 + sum(o.tuple):
        raise StructureViolation(f"auxiliary polynomial of {o} has degree {polys.degree(out)}")
    return out


def basis(o: OrbitData) -> list:
    """The exceptional classes (i, j) for E(i,j), in basis order after L."""
    return [(1, 0), (1, 1)] + [(i, j) for i, n in enumerate(o.tuple, start=2) for j in range(n)]


def basis_labels(o: OrbitData) -> list:
    return ["L"] + [f"E({i},{j})" for i, j in basis(o)]


def jonquieres_matrix(o: OrbitData) -> tuple:
    """The lattice action on the ordered basis; columns are images."""
    d = o.d
    n_total = o.matrix_size
    # allocated before basis(o): an orbit length past the index range raises OverflowError here
    col = [[0] * n_total for _ in range(n_total)]
    heads = [k for k, (i, j) in enumerate(basis(o), start=1) if i >= 2 and j == 0]  # E(i,0), i >= 2

    # image of L
    col[0][0] = d
    col[0][1] = -(d - 1)
    for h in heads:
        col[0][h] = -1
    # orbit 1 (length 2 by convention): E(1,0) -> E(1,1)
    col[1][2] = 1
    # image of E(1,1)
    col[2][0] = d - 1
    col[2][1] = -(d - 2)
    for h in heads:
        col[2][h] = -1
    # orbits i >= 2
    for start, n in zip(heads, o.tuple):
        for j in range(n - 1):
            col[start + j][start + j + 1] = 1
        last = start + n - 1
        col[last][0] = 1
        col[last][1] = -1
        col[last][start] = -1

    return tuple(tuple(col[j][i] for j in range(n_total)) for i in range(n_total))


def intersection_form(n: int) -> tuple:
    """diag(1, -1, ..., -1), the form of the lattice Z^{1,n-1}."""
    if n < 1:
        raise ValueError(f"intersection form needs size n >= 1, got {n}")
    return tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n)) for i in range(n)
    )


def defect_matrix(o: OrbitData) -> tuple:
    """J Q J^T - Q: rank <= 1 perturbation supported on the first two rows."""
    c = 2 * o.d - 1 - o.m
    n = o.matrix_size
    h = [[0] * n for _ in range(n)]
    h[0][0] = c
    h[0][1] = -c
    h[1][0] = -c
    h[1][1] = c
    return tuple(tuple(row) for row in h)


class StructureReport(Frozen):
    __slots__ = ("orbit", "canonical_row", "canonical_row_fixed", "defect_scale")

    def __init__(self, orbit: OrbitData, canonical_row: tuple, canonical_row_fixed: bool, defect_scale: int):
        super().__init__(orbit, canonical_row, canonical_row_fixed, defect_scale)


def verify_structure(o: OrbitData) -> StructureReport:
    """Check the three structural identities exactly.

    (a) char(J) = (X-1) * auxiliary polynomial; (b) J Q J^T - Q equals the
    defect matrix; (c) the row vector (3,1,...,1) is fixed by J exactly when
    m = 2d-1.  Failures of (a), (b) or of the iff in (c) raise
    StructureViolation: they cannot happen for valid inputs unless the
    construction itself is wrong.
    """
    j = jonquieres_matrix(o)
    n = o.matrix_size
    q = intersection_form(n)

    char = matrices.char_poly(j)
    expected_char = polys.mul((-1, 1), auxiliary_polynomial(o))
    char_ok = char == expected_char

    defect = matrices.mat_sub(matrices.mat_mul(matrices.mat_mul(j, q), matrices.transpose(j)), q)
    defect_ok = defect == defect_matrix(o)

    canonical = (3,) + (1,) * (n - 1)
    row = matrices.vec_mat(canonical, j)
    fixed = row == canonical

    c = 2 * o.d - 1 - o.m
    if not char_ok:
        raise StructureViolation(f"char(J) != (X-1)*p for {o}")
    if not defect_ok:
        raise StructureViolation(f"J Q J^T - Q != H for {o}")
    if fixed != (c == 0):
        raise StructureViolation(f"canonical row fixed <=> m = 2d-1 failed for {o}")
    return StructureReport(o, row, fixed, c)
