"""Exact root censuses of integer polynomials relative to the unit circle.

The census of a polynomial is the triple (inside, on, outside) of root
counts with multiplicity.  Everything is decided in integer/rational
arithmetic:

* roots at the origin are stripped first (counted as inside),
* a square-free decomposition reduces to the square-free case,
* each square-free factor f, once z - 1 and z + 1 are divided out, goes
  through one Chebyshev pair (u, w) in c = cos(theta), z = e**(i theta),
  and one signed remainder sequence of (u, w): its variations give the
  winding number, and its last member, gcd(u, w), is the image of the
  self-inversive part gcd(f, reverse f), whose roots in (-1, 1) are the
  circle pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import polys
from .errors import CensusContradiction


@dataclass(frozen=True)
class UnitCircleCensus:
    inside: int
    on: int
    outside: int

    def __add__(self, other: "UnitCircleCensus") -> "UnitCircleCensus":
        return UnitCircleCensus(
            self.inside + other.inside, self.on + other.on, self.outside + other.outside
        )

    def scaled(self, k: int) -> "UnitCircleCensus":
        return UnitCircleCensus(self.inside * k, self.on * k, self.outside * k)

    @property
    def total(self) -> int:
        return self.inside + self.on + self.outside


_EMPTY = UnitCircleCensus(0, 0, 0)


def unit_circle_census(p) -> UnitCircleCensus:
    """Exact (inside, on, outside) counts, with multiplicity.

    Roots at the origin count as inside.  The result always satisfies
    inside + on + outside == degree(p).
    """
    if polys.is_zero(p):
        raise ValueError("census of the zero polynomial")
    if polys.degree(p) == 0:
        return _EMPTY
    k = 0
    while p[k] == 0:
        k += 1
    census = UnitCircleCensus(k, 0, 0)
    p = polys.normalize(p[k:])
    for factor, mult in polys.square_free_decomposition(p):
        census = census + _census_square_free(factor).scaled(mult)
    if census.total != polys.degree(p) + k:
        raise CensusContradiction(f"census lost roots: {census}")
    return census


def _census_square_free(f) -> UnitCircleCensus:
    """Census of a square-free f with f(0) != 0, from one remainder sequence.

    Each of z - 1, z + 1 dividing f is one root on the circle.  For the rest,
    c = (z + 1/z)/2 gives f(z) = u(c) + ((z - 1/z)/2) w(c) with
    u = sum_j a_j T_j(c) and w = sum_{j>=1} a_j U_{j-1}(c), both from one
    Clenshaw pass (`_chebyshev_pair`).  Let g be the last
    member of the signed remainder sequence of (u, w) and s = gcd(f, reverse f):

    * a common root of u and w is the image of a root pair z, 1/z of f, so g
      is the image of s, and deg g = k = deg s / 2;
    * r roots of g lie in (-1, 1), each a circle pair; every other root of g
      stands for one root inside and one outside;
    * I = Var(-1) - Var(1) is the Cauchy index of w/u on (-1, 1) (Basu, Pollack
      & Roy, Algorithms in Real Algebraic Geometry, ch. 2), the winding number
      of z**k (f/s), so I = k + inside(f/s) and inside(f) = (k - r) + inside(f/s) = I - r;
    * u(+-1) = f(+-1) != 0, so neither u nor g has a root at +-1.
    """
    n, on = polys.degree(f), 0
    for value, root_poly in ((1, (-1, 1)), (-1, (1, 1))):
        if polys.eval_at(f, value) == 0:
            f = polys.divexact(f, root_poly)
            on += 1
    if polys.degree(f) == 0:
        return UnitCircleCensus(0, on, 0)
    u, w = _chebyshev_pair(f)
    chain = polys.signed_remainder_chain(u, w)
    g = chain[-1]
    r = polys.sturm_count(g, -1, 1) if polys.degree(g) >= 1 else 0
    inside = polys.chain_variations_at(chain, -1) - polys.chain_variations_at(chain, 1) - r
    return UnitCircleCensus(inside, on + 2 * r, n - inside - on - 2 * r)


def _chebyshev_pair(f):
    """(u, w) = (sum_j a_j T_j, sum_{j>=1} a_j U_{j-1}) for f = sum_j a_j z**j, by Clenshaw:
    b_k = a_k + 2c b_{k+1} - b_{k+2} from b_{n+1} = b_{n+2} = 0 down to b_1,
    then w = b_1 and u = a_0 + c b_1 - b_2."""
    b1, b2 = [], []  # b_{k+1}, b_{k+2}
    for k in range(len(f) - 1, -1, -1):
        two = 2 if k else 1  # the last step builds u instead of b_0
        b = [f[k]] + [two * c for c in b1]
        for i, c in enumerate(b2):
            b[i] -= c
        b1, b2 = b, b1
    return polys.normalize(b1), polys.normalize(b2)


def euler_phi(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def _cyclotomic_indices(max_degree: int) -> tuple:
    """Every n with phi(n) <= max_degree, ascending."""
    # phi(n) >= sqrt(n/2), so phi(n) <= D forces n <= 2 D^2 (+ slack for n=1,2)
    limit = max(2 * max_degree * max_degree + 2, 6)
    return tuple(n for n in range(1, limit + 1) if euler_phi(n) <= max_degree)


def strip_cyclotomic_factors(p, max_degree: int):
    """Divide out every cyclotomic factor of degree <= max_degree.

    Returns (stripped, removed) where removed lists (n, multiplicity).
    """
    removed = []
    q = p
    for n in _cyclotomic_indices(max_degree):
        c = polys.cyclotomic(n)
        mult = 0
        while polys.degree(q) >= polys.degree(c):
            quot, rem = polys.monic_divmod(q, c)
            if rem:
                break
            q = quot
            mult += 1
        if mult:
            removed.append((n, mult))
    return q, removed


def is_self_reciprocal(p) -> bool:
    """True when reverse(p) == +-p (root multiset closed under inversion)."""
    r = polys.reverse(p)
    return r == p or r == polys.neg(p)


def salem_pisot_label(p, on=None):
    """Best-effort Salem/Pisot label for the dominant root of p, as
    (label, stripped, removed); `on` is p's on-circle count if known.

    After removing cyclotomic factors: no roots on the circle means every
    non-dominant conjugate is strictly inside (pisot_like); remaining circle
    roots on a self-reciprocal cofactor match the Salem shape (salem_like);
    circle roots on a non-reciprocal cofactor cannot be attributed without
    factoring, so the label stays undetermined.

    Every root of a cyclotomic factor lies on the circle, so Phi_n**k | p
    forces k * phi(n) <= on: stripping to degree `on` is exact, and the
    stripped on-count is `on` less the removed degrees.
    """
    if on is None:
        on = unit_circle_census(p).on
    stripped, removed = strip_cyclotomic_factors(p, on)
    on -= sum(mult * euler_phi(n) for n, mult in removed)
    if on < 0:
        raise CensusContradiction("stripped cyclotomic roots outnumber the circle roots")
    if on == 0:
        return "pisot_like", stripped, removed
    if is_self_reciprocal(stripped):
        return "salem_like", stripped, removed
    return "undetermined", stripped, removed
