"""Dense exact arithmetic for integer-coefficient univariate polynomials.

A polynomial is a tuple of Python ints in ascending degree order with no
trailing zero; the zero polynomial is the empty tuple.  Keeping the
representation hashable lets expensive derived data (Sturm chains) be
cached per polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from .errors import EndpointIsRoot

IntPoly = tuple  # tuple[int, ...], ascending degree, canonical form

ZERO: IntPoly = ()
ONE: IntPoly = (1,)
X: IntPoly = (0, 1)


def normalize(coeffs: Iterable[int]) -> IntPoly:
    """Strip trailing zero coefficients and return the canonical tuple."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: IntPoly) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: IntPoly) -> bool:
    return not p


def is_monic(p: IntPoly) -> bool:
    return bool(p) and p[-1] == 1


def add(p: IntPoly, q: IntPoly) -> IntPoly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def neg(p: IntPoly) -> IntPoly:
    return tuple([-c for c in p])


def sub(p: IntPoly, q: IntPoly) -> IntPoly:
    return add(p, neg(q))


def scale(p: IntPoly, k: int) -> IntPoly:
    if k == 0:
        return ZERO
    if k == 1:
        return p
    return tuple([c * k for c in p])


def shift(p: IntPoly, k: int) -> IntPoly:
    """Multiply by X**k."""
    if not p:
        return ZERO
    return (0,) * k + tuple(p)


def mul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def binomial_xn_plus_1(n: int) -> IntPoly:
    """X**n + 1, for n >= 1."""
    if n < 1:
        raise ValueError(f"X^n + 1 needs n >= 1, got {n}")
    return normalize([1] + [0] * (n - 1) + [1])


def derivative(p: IntPoly) -> IntPoly:
    return normalize(i * c for i, c in enumerate(p) if i >= 1)


def reverse(p: IntPoly) -> IntPoly:
    """Coefficient reversal X**deg(p) * p(1/X)."""
    return normalize(reversed(p))


def eval_hom(p: IntPoly, num: int, den: int) -> int:
    """den**deg(p) * p(num/den) by homogenised integer Horner.

    For den > 0 the result has the sign of p(num/den); no gcd is taken.
    """
    if not p:
        return 0
    acc, dk = p[-1], 1
    for c in reversed(p[:-1]):
        dk *= den
        acc = acc * num + c * dk
    return acc


def eval_at(p: IntPoly, x):
    """Exact value at x: an int at an int, else a Fraction.

    Any other number is taken exactly as Fraction(x); the value is
    normalised once at the end, not at each coefficient.
    """
    if isinstance(x, int):
        return eval_hom(p, x, 1)
    x = Fraction(x)
    return Fraction(eval_hom(p, x.numerator, x.denominator), x.denominator ** max(degree(p), 0))


def _interval_hom(p: IntPoly, lo: int, hi: int, den: int) -> tuple:
    """Integer interval Horner: den**deg(p) times the bounds for p on [lo/den, hi/den]."""
    alo = ahi = p[-1]
    dk = 1
    for c in reversed(p[:-1]):
        dk *= den
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        cd = c * dk
        alo, ahi = min(cands) + cd, max(cands) + cd
    return alo, ahi


def common_den(lo: Fraction, hi: Fraction) -> tuple:
    """(lo * den, hi * den, den) as ints, den the lcm of the denominators."""
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


# kept: perfbench/tracing.py binds this name
def eval_interval(p: IntPoly, lo: Fraction, hi: Fraction) -> tuple:
    """Exact interval Horner: bounds for {p(x) : lo <= x <= hi}."""
    if not p:
        return Fraction(0), Fraction(0)
    lo, hi = Fraction(lo), Fraction(hi)
    ilo, ihi, den = common_den(lo, hi)
    alo, ahi = _interval_hom(p, ilo, ihi, den)
    scale = den ** degree(p)
    return Fraction(alo, scale), Fraction(ahi, scale)


def content(p: IntPoly) -> int:
    """Positive gcd of the coefficients; 0 for the zero polynomial."""
    g = 0
    for c in p:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def primitive(p: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient."""
    if not p:
        return ZERO
    g = content(p)
    if p[-1] < 0:
        g = -g
    return tuple([c // g for c in p])


def _int_divmod(p: IntPoly, d: IntPoly) -> tuple:
    """Quotient and remainder of p by d in Z[X], by integer long division.

    Each quotient coefficient is an exact integer division by lc(d); raises
    ValueError when one leaves a remainder, as p/d then has no integral
    quotient.
    """
    dd, lead = degree(d), d[-1]
    r = list(p)
    q = [0] * (len(p) - dd)
    for k in range(len(r) - 1 - dd, -1, -1):
        c, rem = divmod(r.pop(), lead)  # the top term cancels, so it is dropped
        if rem:
            raise ValueError("quotient is not integral")
        if c:
            q[k] = c
            for i in range(dd):
                r[k + i] -= c * d[i]
    return normalize(q), normalize(r)


def monic_divmod(p: IntPoly, m: IntPoly) -> tuple:
    """Integer quotient/remainder of p by a monic integer polynomial m."""
    if not is_monic(m):
        raise ValueError("divisor must be monic")
    return _int_divmod(p, m)


def divexact(p: IntPoly, d: IntPoly) -> IntPoly:
    """Exact quotient p/d; ValueError unless d divides p in Z[X].

    By Gauss's lemma the quotient is integral whenever d is primitive and
    divides p over Q, which is how gcd-derived divisors are used here.
    """
    q, r = _int_divmod(p, d)
    if r:
        raise ValueError("division was not exact")
    return q


def pseudo_divmod(p: IntPoly, q: IntPoly) -> tuple:
    """Pseudo-division: (Q, R) with l**e * p == Q*q + R and deg R < deg q.

    l = lc(q) and e = max(deg p - deg q + 1, 0).  This is the long division
    of l**e * p by q: each step divides by l once, so before step j < e every
    remainder coefficient is still a multiple of l**(e - j), and no step's
    division by l leaves a remainder.
    """
    k = q[-1] ** max(len(p) - len(q) + 1, 0)  # l**e
    return _int_divmod(p if k == 1 else [c * k for c in p], q)


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient: the remainder sequence's last member."""
    if len(p) < len(q):
        p, q = q, p
    chain = signed_remainder_chain(p, q)
    return primitive(chain[-1]) if chain else ZERO


def inverse_mod(a: IntPoly, m: IntPoly):
    """(u, den) with u*a == den (mod m) and den > 0; deg u < deg m if deg a < deg m.

    None when gcd(a, m) is nonconstant.  Pseudo-division Euclid over Z[X]:
    with primitive remainders r_i it keeps u_i*a == c_i*r_i (mod m) for
    integer polynomials u_i and integers c_i, divided by their common
    content at each step, until r_i is the constant 1.
    """
    if not a:
        return None
    u0, c0, r0 = ZERO, 1, primitive(m)
    r1 = primitive(a)
    u1, c1 = ONE, a[-1] // r1[-1]
    while degree(r1) > 0:
        e = max(degree(r0) - degree(r1) + 1, 0)
        quo, rem = pseudo_divmod(r0, r1)
        if not rem:
            return None
        r = primitive(rem)
        u = sub(scale(u0, c1 * r1[-1] ** e), scale(mul(quo, u1), c0))
        c = c0 * c1 * (rem[-1] // r[-1])
        g = math.gcd(content(u), c)
        u0, c0, r0 = u1, c1, r1
        u1, c1, r1 = tuple(x // g for x in u), c // g, r
    if c1 < 0:
        return neg(u1), -c1
    return u1, c1


def square_free_part(p: IntPoly) -> IntPoly:
    """primitive(p) divided by gcd(p, p'), the last member of sturm_chain(p)."""
    return divexact(primitive(p), primitive(sturm_chain(p)[-1])) if p else ZERO


def square_free_decomposition(p: IntPoly) -> list:
    """Yun decomposition: list of (factor, multiplicity), factors primitive.

    The integer content is dropped; the product of factor**mult equals p up
    to a rational constant, which is irrelevant for root bookkeeping.
    """
    p = primitive(p)
    if degree(p) <= 0:
        return []
    out = []
    g = primitive(sturm_chain(p)[-1])
    if degree(g) == 0:
        return [(p, 1)]
    w = divexact(p, g)
    z = sub(divexact(derivative(p), g), derivative(w))
    i = 1
    while degree(w) > 0:
        f = gcd(w, z)
        if degree(f) > 0:
            out.append((primitive(f), i))
        w = divexact(w, f)
        z = sub(divexact(z, f), derivative(w))
        i += 1
    return out


def cauchy_bound(p: IntPoly) -> Fraction:
    """1 + max|c_i|/|c_lead|: all complex roots have modulus below this."""
    if degree(p) < 1:
        raise ValueError("the Cauchy bound needs a nonconstant polynomial")
    rest = max((abs(c) for c in p[:-1]), default=0)
    return 1 + Fraction(rest, abs(p[-1]))


def sign(x) -> int:
    """-1, 0 or 1 as x is negative, zero or positive."""
    return (x > 0) - (x < 0)


def sign_variations(values: Sequence) -> int:
    """Sign changes in a sequence, zeros skipped."""
    signs = [sign(v) for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def signed_remainder_chain(f0: IntPoly, f1: IntPoly) -> tuple:
    """Generalized Sturm chain of (f0, f1), members positively rescaled.

    Each member equals the classical negated-remainder chain member times a
    positive constant, so sign-variation counts are unchanged.
    """
    if f0 and f1 and degree(f0) < degree(f1):
        raise ValueError("the chain needs deg f0 >= deg f1")
    chain = [primitive_signed(f0), primitive_signed(f1)]
    while chain[-1] and degree(chain[-1]) > 0:
        a, b = chain[-2], chain[-1]
        r = pseudo_divmod(a, b)[1]
        if not r:
            break
        # prem = lc(b)**k * rem with k = deg a - deg b + 1; fix the sign so
        # the stored member is a positive multiple of -rem.
        k = degree(a) - degree(b) + 1
        g = -sign(b[-1]) ** k * content(r)
        chain.append(tuple([c // g for c in r]))
    return tuple(c for c in chain if c)


def primitive_signed(p: IntPoly) -> IntPoly:
    """Divide by the positive content, keeping the sign of the polynomial."""
    if not p:
        return ZERO
    g = content(p)
    return tuple([c // g for c in p])


def chain_variations_at(chain: Sequence[IntPoly], x) -> int:
    """Sign variations of the chain at the int or Fraction x."""
    num, den = x.numerator, x.denominator
    return sign_variations([eval_hom(f, num, den) for f in chain])


@lru_cache(maxsize=4096)
def sturm_chain(p: IntPoly) -> tuple:
    """Signed remainder sequence of (q, q') for q = primitive(p), square-free or not.

    Its last member is gcd(p, p') up to a constant; variations between two
    non-roots count the distinct real roots between them (Basu, Pollack & Roy, Thm 2.50).
    """
    p = primitive(p)
    return signed_remainder_chain(p, derivative(p))


def sturm_count(p: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in [lo, hi].

    Endpoints must not be roots; raises EndpointIsRoot otherwise so the
    caller can perturb.
    """
    if is_zero(p):
        raise ValueError("zero polynomial has no root count")
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if eval_hom(p, lo.numerator, lo.denominator) == 0 or eval_hom(p, hi.numerator, hi.denominator) == 0:
        raise EndpointIsRoot(f"interval endpoint is a root of {p}")
    chain = sturm_chain(p)
    return chain_variations_at(chain, lo) - chain_variations_at(chain, hi)


# kept: used only by strip_cyclotomic_factors, which perfbench/tracing.py binds
@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic polynomials are indexed by n >= 1")
    num = normalize([-1] + [0] * (n - 1) + [1])  # X**n - 1
    for d in range(1, n):
        if n % d == 0:
            num = divexact(num, cyclotomic(d))
    return num


def poly_to_string(p: IntPoly) -> str:
    """Human-readable rendering, highest degree first."""
    if not p:
        return "0"
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            coeff = "" if abs(c) == 1 else str(abs(c)) + "*"
            term = f"{coeff}X" + (f"^{i}" if i > 1 else "")
        parts.append(("- " if c < 0 else "+ ") + term)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]
