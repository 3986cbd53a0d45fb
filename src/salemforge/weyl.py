"""The reflection group on Z^{1,n} and an explicit membership reduction.

Generators are the coordinate permutations fixing index 0 and the quadratic
involutions obtained by reflecting in e0 - e_i - e_j - e_k.  Membership of
an isometry is decided by greedily shrinking the (0,0) entry: each step
applies the quadratic generator on the three indices carrying the largest
multiplicities in the first column, which strictly decreases the degree for
genuine group elements and certifies membership once a permutation matrix
remains.  A stuck reduction is returned as evidence of non-membership
without any completeness claim for arbitrary isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices
from .errors import IndexClash, InvalidRoot, NotAnIsometry, RankTooSmall
from .jonquieres import intersection_form


@dataclass(frozen=True)
class WeylGenerator:
    """kind 'permutation' (data: image tuple) or 'quadratic' (data: triple)."""

    kind: str
    data: tuple

    def matrix(self, n: int) -> tuple:
        if self.kind == "permutation":
            return matrices.permutation_matrix(self.data, n)
        return cremona_involution_on(self.data, n)


@dataclass(frozen=True)
class ReductionTrace:
    """Quadratic generators, each multiplied on the left in turn."""

    steps: tuple
    terminal: tuple

    @property
    def quadratic_steps(self) -> int:
        return len(self.steps)

    def replay(self, start: tuple) -> tuple:
        cur = start
        n = len(start)
        for gen in self.steps:
            cur = matrices.mat_mul(gen.matrix(n), cur)
        return cur

    def to_json_list(self) -> list:
        return [{"side": "left", "kind": g.kind, "indices": list(g.data)} for g in self.steps]


@dataclass(frozen=True)
class NotReduced:
    terminal: tuple
    reason: str


def q_dot(x, y) -> int:
    return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))


def preserves_form(m: tuple) -> bool:
    q = intersection_form(len(m))
    return matrices.mat_mul(matrices.mat_mul(m, q), matrices.transpose(m)) == q


def reflection_matrix(alpha) -> tuple:
    """Matrix of x -> x + (x . alpha) alpha for a vector with alpha.alpha = -2."""
    alpha = tuple(int(a) for a in alpha)
    if q_dot(alpha, alpha) != -2:
        raise InvalidRoot(f"alpha.alpha = {q_dot(alpha, alpha)} != -2")
    n = len(alpha)
    cols = []
    for i in range(n):
        e = tuple(1 if t == i else 0 for t in range(n))
        coeff = q_dot(e, alpha)
        cols.append(tuple(e[t] + coeff * alpha[t] for t in range(n)))
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def cremona_involution_on(indices, n: int) -> tuple:
    """Quadratic generator acting on e0 and three chosen exceptional indices."""
    i, j, k = indices
    if len({i, j, k}) != 3 or not all(1 <= t <= n - 1 for t in (i, j, k)):
        raise IndexClash(f"need three distinct indices in 1..{n - 1}, got {indices}")
    alpha = tuple(
        1 if t == 0 else (-1 if t in (i, j, k) else 0) for t in range(n)
    )
    return reflection_matrix(alpha)


def permutation_generator(perm) -> WeylGenerator:
    if perm[0] != 0:
        raise ValueError("permutations must fix index 0")
    return WeylGenerator("permutation", tuple(perm))


def quadratic_generator(indices) -> WeylGenerator:
    return WeylGenerator("quadratic", tuple(sorted(indices)))


def reduce(m: tuple):
    """Greedy degree reduction; ReductionTrace on success, else NotReduced.

    Raises NotAnIsometry when m does not preserve the form.  The terminal of
    a successful trace is a permutation matrix fixing index 0 and the steps
    replay from the input to the terminal.
    """
    if not preserves_form(m):
        raise NotAnIsometry("matrix does not preserve the quadratic form")
    n = len(m)
    steps = []
    cur = m
    while True:
        deg = cur[0][0]
        if deg == 1:
            # an isometry with (0,0) = 1 fixes e0 on both sides, so the rest
            # is a signed permutation; only unsigned ones are group elements
            if matrices.is_permutation_matrix(cur):
                return ReductionTrace(tuple(steps), cur)
            return NotReduced(cur, "terminal is a signed permutation with a -1 entry")
        if deg < 1:
            return NotReduced(cur, f"degree {deg} is not positive")
        if n < 4:
            return NotReduced(cur, "no quadratic generator exists below rank 3")
        mults = sorted(((-cur[i][0], i) for i in range(1, n)), key=lambda t: (t[0], -t[1]), reverse=True)
        top = sorted(idx for _, idx in mults[:3])
        drop = sum(mu for mu, _ in mults[:3]) - deg
        if drop <= 0:
            return NotReduced(cur, "no quadratic step decreases the degree")
        gen = quadratic_generator(top)
        cur = matrices.mat_mul(gen.matrix(n), cur)
        steps.append(gen)


def is_weyl_member(m: tuple):
    """Decide membership with a replayable certificate.

    Returns (True, ReductionTrace) or (False, NotReduced).  The input must
    be square of size >= 4 and preserve the form (RankTooSmall, NotAnIsometry otherwise).
    """
    if len(m) < 4:
        raise RankTooSmall(f"membership needs lattice rank n >= 3 (size >= 4), got size {len(m)}")
    result = reduce(m)
    if isinstance(result, ReductionTrace):
        return True, result
    return False, result
