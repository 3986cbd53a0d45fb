"""Square integer matrices as tuples of row tuples, with exact kernels.

Products walk the nonzero entries of each row of the left factor, which
suits the sparse lattice maps and generators.  Determinants use
fraction-free Bareiss elimination.  Characteristic polynomials use the
division-free Berkowitz recurrence over sparse rows, so every kernel stays
in integer ring arithmetic.
"""

from __future__ import annotations

Matrix = tuple  # tuple[tuple[int, ...], ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero(n: int) -> Matrix:
    return tuple((0,) * n for _ in range(n))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product a*b, summing the rows of b picked by the nonzeros of each row of a."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def vec_mat(v, a: Matrix) -> tuple:
    return tuple(sum(v[i] * a[i][j] for i in range(len(v))) for j in range(len(v)))


# kept: perfbench/tracing.py binds this name
def det(m: Matrix) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def char_poly(m: Matrix) -> tuple:
    """Exact characteristic polynomial det(X*I - M), ascending coefficients.

    Berkowitz recurrence: with A the leading r x r block, R = M[r][:r] and
    S = M[:r][r], the characteristic polynomial of the leading r+1 block is
    that of A convolved with the Toeplitz column
    (1, -M[r][r], -R S, -R A S, ..., -R A^(r-1) S).  Only integer additions
    and multiplications occur, so the result is integral and monic of
    degree n by construction.
    """
    n = len(m)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in m]
    desc = [1]  # char poly of the leading r x r block, leading coefficient first
    for r in range(n):
        block = [[(j, c) for j, c in rows[i] if j < r] for i in range(r)]
        s = [(i, m[i][r]) for i in range(r) if m[i][r]]
        w = list(m[r][:r])  # R A^k
        toeplitz = [1, -m[r][r]]
        for k in range(r):
            if k:
                nxt = [0] * r
                for i, x in enumerate(w):
                    if x:
                        for j, c in block[i]:
                            nxt[j] += x * c
                w = nxt
            toeplitz.append(-sum(w[i] * c for i, c in s))
        desc = [
            sum(toeplitz[i - j] * desc[j] for j in range(min(i, r) + 1)) for i in range(r + 2)
        ]
    return tuple(reversed(desc))


def is_permutation_matrix(m: Matrix) -> bool:
    n = len(m)
    for row in m:
        if sum(row) != 1 or any(c not in (0, 1) for c in row):
            return False
    return all(sum(m[i][j] for i in range(n)) == 1 for j in range(n))


def permutation_matrix(perm, n: int) -> Matrix:
    """Matrix sending basis vector j to basis vector perm[j]."""
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{n - 1}")
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def to_json_dict(m: Matrix, labels=None) -> dict:
    out = {
        "size": len(m),
        "entries": [[str(c) for c in row] for row in m],
    }
    if labels is not None:
        out["labels"] = list(labels)
    return out
