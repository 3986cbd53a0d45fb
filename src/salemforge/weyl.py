"""The reflection group on Z^{1,n} and an explicit membership reduction.

Generators are the quadratic steps, reflections in e0 - e_i - e_j - e_k,
which act on rows 0, i, j and k only.  Membership of an isometry is decided
by greedily shrinking the (0,0) entry: each step acts on the three indices
carrying the largest multiplicities in the first column, which strictly
decreases the degree for genuine group elements and certifies membership
once a permutation matrix remains; permutations appear only as terminals.
A stuck reduction is returned as evidence of non-membership without any
completeness claim for arbitrary isometries.
"""

from __future__ import annotations

from . import matrices
from .errors import IndexClash, NotAnIsometry, RankTooSmall
from .frozen import Frozen
from .jonquieres import intersection_form


class ReductionTrace(Frozen):
    """Index triples (i, j, k) of quadratic steps, each applied on the left in turn."""

    __slots__ = ("steps", "terminal")

    def __init__(self, steps: tuple, terminal: tuple):
        super().__init__(steps, terminal)

    @property
    def quadratic_steps(self) -> int:
        return len(self.steps)

    def replay(self, start: tuple) -> tuple:
        cur = start
        for indices in self.steps:
            cur = _quadratic_step(cur, indices)
        return cur

    def to_json_list(self) -> list:
        return [{"side": "left", "kind": "quadratic", "indices": list(t)} for t in self.steps]


class NotReduced(Frozen):
    __slots__ = ("terminal", "reason")

    def __init__(self, terminal: tuple, reason: str):
        super().__init__(terminal, reason)


def preserves_form(m: tuple) -> bool:
    q = intersection_form(len(m))
    return matrices.mat_mul(matrices.mat_mul(m, q), matrices.transpose(m)) == q


def _quadratic_step(m: tuple, indices) -> tuple:
    """R.m for the reflection R in alpha = e0 - e_i - e_j - e_k.

    R = I + alpha (Q alpha)^T with Q alpha = e0 + e_i + e_j + e_k, so with
    w = row 0 + row i + row j + row k, row 0 gains w, rows i, j and k each
    lose w, and every other row is unchanged.
    """
    i, j, k = indices
    w = tuple(a + b + c + e for a, b, c, e in zip(m[0], m[i], m[j], m[k]))
    rows = list(m)
    rows[0] = tuple(a + b for a, b in zip(m[0], w))
    for t in (i, j, k):
        rows[t] = tuple(a - b for a, b in zip(m[t], w))
    return tuple(rows)


def cremona_involution_on(indices, n: int) -> tuple:
    """Matrix of the quadratic step on e0 and three chosen exceptional indices."""
    if len(indices) != 3 or len(set(indices)) != 3 or not all(1 <= t <= n - 1 for t in indices):
        raise IndexClash(f"need three distinct indices in 1..{n - 1}, got {indices}")
    return _quadratic_step(matrices.identity(n), indices)


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
        top = tuple(sorted(idx for _, idx in mults[:3]))
        drop = sum(mu for mu, _ in mults[:3]) - deg
        if drop <= 0:
            return NotReduced(cur, "no quadratic step decreases the degree")
        cur = _quadratic_step(cur, top)
        steps.append(top)


def is_weyl_member(m: tuple):
    """Decide membership with a replayable certificate.

    Returns (True, ReductionTrace) or (False, NotReduced).  The input must
    be square of size >= 4 and preserve the form (RankTooSmall, NotAnIsometry otherwise).
    """
    if len(m) < 4:
        raise RankTooSmall(f"membership needs lattice rank n >= 3 (size >= 4), got size {len(m)}")
    result = reduce(m)
    return isinstance(result, ReductionTrace), result
