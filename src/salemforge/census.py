"""Exact root censuses of integer polynomials relative to the unit circle.

The census of a polynomial is the triple (inside, on, outside) of root
counts with multiplicity.  Everything is decided in integer/rational
arithmetic:

* roots at the origin are stripped first (counted as inside),
* a square-free decomposition reduces to the square-free case,
* the self-inversive part gcd(f, reverse(f)) carries every root on the
  circle plus the reciprocal off-circle pairs; the cofactor has no circle
  roots, since each circle root of f is also a root of reverse(f).

Both halves go through one Chebyshev series in c = cos(theta), z = e**(i
theta): the self-inversive part becomes a half-degree polynomial whose real
roots in (-1, 1) are its circle pairs, and the cofactor's inside count is a
Cauchy index on (-1, 1).
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
    s = polys.gcd(f, polys.reverse(f))
    h = polys.divexact(f, s)
    out = _census_self_inversive(s) if polys.degree(s) >= 1 else _EMPTY
    if polys.degree(h) >= 1:
        inside = _winding_inside(h)
        out = out + UnitCircleCensus(inside, 0, polys.degree(h) - inside)
    return out


def _census_self_inversive(s) -> UnitCircleCensus:
    """Census of a square-free polynomial whose root set is inversion-closed."""
    on = 0
    for value, root_poly in ((1, (-1, 1)), (-1, (1, 1))):
        if polys.eval_at(s, value) == 0:
            s = polys.divexact(s, root_poly)
            on += 1
    n = polys.degree(s)
    if n == 0:
        return UnitCircleCensus(0, on, 0)
    if n % 2 or polys.reverse(s) != s:
        raise CensusContradiction("self-inversive part is not an even palindrome")
    # s(z) = z**k * g(c) with g = s_k + 2 * sum_j s_{k+j} T_j(c)
    k = n // 2
    s = polys.primitive(s)
    g = _chebyshev_series((s[k],) + tuple(2 * c for c in s[k + 1 :]), _chebyshev_t)
    r_in = polys.sturm_count(g, -1, 1)
    r_all = polys.count_real_roots(g)
    r_out = r_all - r_in
    cplx = k - r_all
    # real c in (-1,1): conjugate pair on the circle; real c outside: real
    # reciprocal pair (one in, one out); complex c: quadruple (two in, two out)
    return UnitCircleCensus(r_out + cplx, on + 2 * r_in, r_out + cplx)


def _winding_inside(h) -> int:
    """Inside count as the winding number of h around the unit circle.

    With z = e**(i theta) and c = cos(theta), h(z) = u(c) + i sin(theta) w(c)
    where u, w expand over Chebyshev polynomials.  The winding number equals
    the Cauchy index of w/u on (-1, 1), a generalized Sturm count.  Requires
    h without roots on the circle (h(1) != 0 != h(-1) in particular).
    """
    u = _chebyshev_series(h, _chebyshev_t)
    w = _chebyshev_series(h[1:], _chebyshev_u)
    if polys.eval_at(u, 1) == 0 or polys.eval_at(u, -1) == 0:
        raise CensusContradiction("winding count met a root on the circle")
    chain = polys.signed_remainder_chain(u, w)
    return polys.chain_variations_at(chain, -1) - polys.chain_variations_at(chain, 1)


def _chebyshev_series(coeffs, basis):
    """sum_j coeffs[j] * basis(j), for basis _chebyshev_t or _chebyshev_u."""
    out = ()
    for j, c in enumerate(coeffs):
        if c:
            out = polys.add(out, polys.scale(basis(j), c))
    return out


@lru_cache(maxsize=None)
def _chebyshev_t(k: int):
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 1)
    return polys.sub(polys.scale(polys.mul((0, 1), _chebyshev_t(k - 1)), 2), _chebyshev_t(k - 2))


@lru_cache(maxsize=None)
def _chebyshev_u(k: int):
    if k == 0:
        return (1,)
    if k == 1:
        return (0, 2)
    return polys.sub(polys.scale(polys.mul((0, 1), _chebyshev_u(k - 1)), 2), _chebyshev_u(k - 2))


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
