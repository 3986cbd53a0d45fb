"""Exact arithmetic in Q[X]/(modulus), evaluated at a distinguished root.

Elements are rational-coefficient polynomials of degree below the modulus,
stored as an integer coefficient tuple over a positive common denominator.
This module is ring arithmetic only.  The sign of an element at the
distinguished root lambda, zero included, is decided in `algebraic`, by
`MemoSlot.sign` on lambda's slot of the refinement memo: the modulus need
not be irreducible, so a zero verdict rests on the gcd + Sturm certificate
`algebraic.vanishes_at`, never on interval evaluation.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest

from . import polys
# `refine` stays importable as residues.refine, which the benchmark tracer's alias test reads
from .algebraic import AlgebraicReal, isolate_largest_real_root, memo_slot, refine, vanishes_at  # noqa: F401
from .errors import ModulusMismatch, NotInvertible, NotIsolating
from .frozen import Frozen, _set


class ResidueContext:
    """Shared modulus plus the certified root all decisions refer to.

    Safe to share across threads: the context holds no mutable state of its
    own.  The root's refinement lives in a slot of the lock-guarded
    refinement memo of `algebraic`, whose cell only ever narrows.  Contexts
    compare by identity: two roots of one modulus are different contexts.
    """

    def __init__(self, modulus, root: AlgebraicReal):
        modulus = polys.normalize(modulus)
        if polys.degree(modulus) < 1:
            raise ValueError("modulus must be nonconstant")
        if not polys.is_monic(modulus):
            raise ValueError("modulus must be monic")
        # evaluation at the root is well defined on Q[X]/(modulus) only if
        # the root is a root of the modulus, i.e. root.defining | modulus
        if polys.gcd(root.defining, modulus) != root.defining:
            raise ValueError("root.defining must divide the modulus")
        self.modulus = modulus
        self._slot = memo_slot(root)
        self.zero = ResidueElement(self, (), 1)
        self.one = ResidueElement(self, (1,), 1)

    @property
    def root(self) -> AlgebraicReal:
        """The distinguished root, on the narrowest interval known so far."""
        return self._slot.root

    @staticmethod
    def for_largest_root(p) -> "ResidueContext":
        return ResidueContext(p, isolate_largest_real_root(p))

    # -- construction -----------------------------------------------------

    def reduce(self, coeffs) -> "ResidueElement":
        """Reduce a polynomial with int or Fraction coefficients modulo the modulus."""
        # operator.index raises TypeError on a float, which would enter as its binary value, or a str
        fracs = [c if isinstance(c, Fraction) else Fraction(operator.index(c)) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = polys.normalize(int(f * den) for f in fracs)
        num = self._mod(num)
        return self._make(num, den)

    def x_power(self, k: int) -> "ResidueElement":
        """X**k reduced; a negative k inverts X as `**` does, or raises NotInvertible."""
        if k < 0:
            return self.x_power(1).inverse() ** -k
        return ResidueElement(self, self._mod((0,) * k + (1,)), 1)

    def _mod(self, num):
        if polys.degree(num) >= polys.degree(self.modulus):
            _, num = polys.monic_divmod(num, self.modulus)
        return num

    def _make(self, num, den: int) -> "ResidueElement":
        """num/den in lowest terms with den > 0; num has no trailing zero."""
        if not num:
            return self.zero
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = tuple(c // g for c in num), den // g
        return ResidueElement(self, num, den)


class ResidueElement(Frozen):
    """representative = num/den, an element of Q[X]/(modulus)."""

    __slots__ = ("context", "num", "den")

    def __init__(self, context: ResidueContext, num: tuple, den: int):
        _set(self, "context", context)
        _set(self, "num", num)
        _set(self, "den", den)

    def _check(self, other) -> "ResidueElement":
        if isinstance(other, int):
            return ResidueElement(self.context, (other,) if other else (), 1)
        if not isinstance(other, ResidueElement):
            return self.context.reduce([other])  # which refuses all but int and Fraction
        if other.context is not self.context:
            raise ModulusMismatch("operands belong to different residue contexts")
        return other

    def _combine(self, other, sign: int):
        """self + sign * other, in one pass over the lcm of the denominators."""
        other = self._check(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        num = polys.normalize([a * x + b * y for x, y in zip_longest(self.num, other.num, fillvalue=0)])
        return self.context._make(num, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElement(self.context, polys.neg(self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.context._make(polys.scale(self.num, other), self.den)
        other = self._check(other)
        num = self.context._mod(polys.mul(self.num, other.num))
        return self.context._make(num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """self**k; a negative k raises the inverse, or NotInvertible."""
        if k < 0:
            return self.inverse() ** -k
        out = self.context.one
        base = self
        while k > 0:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def inverse(self) -> "ResidueElement":
        """Ring inverse via the integer extended gcd `polys.inverse_mod`.

        Raises NotInvertible when the representative shares a factor with
        the modulus (the value at lambda may still be nonzero; the ring
        simply has no inverse for it).
        """
        if not self.num:
            raise NotInvertible("zero has no inverse")
        u = polys.inverse_mod(self.num, self.context.modulus)
        if u is None:
            raise NotInvertible(
                "representative shares a polynomial factor with the modulus"
            )
        ucoeffs, uden = u
        return self.context._make(polys.scale(ucoeffs, self.den), uden)

    def representative(self) -> list:
        """Rational coefficients of the reduced representative."""
        return [Fraction(c, self.den) for c in self.num]

    @property
    def is_zero_poly(self) -> bool:
        return not self.num

    def __repr__(self):
        return f"ResidueElement({polys.poly_to_string(self.num)})/{self.den}"


# -- module-level operations ----------------------------------------------


def residue_is_zero(e: ResidueElement) -> bool:
    """True iff the representative vanishes at the distinguished root."""
    return residue_sign(e) == 0


def residue_sign(e: ResidueElement) -> int:
    """Exact sign of the representative at the distinguished root."""
    return e.context._slot.sign(e.num) if e.num else 0


def reduced_modulus_context(p, denominators) -> ResidueContext:
    """Context for the largest real root of p, with `denominators` invertible.

    Factors of p shared with any denominator are divided out after
    certifying they do not vanish at the root, so that ring inverses of the
    denominators exist even when p is reducible.  Raises NotInvertible if a
    denominator vanishes at the root.
    """
    root = isolate_largest_real_root(p)
    m = polys.normalize(p)
    for d in denominators:
        while True:
            g = polys.gcd(m, d)
            if polys.degree(g) < 1:
                break
            if vanishes_at(g, root):
                raise NotInvertible(
                    f"denominator {polys.poly_to_string(d)} vanishes at the root"
                )
            m = polys.divexact(m, g)
    if m != polys.normalize(p):
        # re-certify: the old interval still isolates a root of the reduced
        # modulus (its endpoints cannot be roots, as roots of m are roots of p)
        sf = polys.square_free_part(m)
        root = AlgebraicReal(sf, root.interval)
        if polys.sturm_count(sf, root.interval.lo, root.interval.hi) != 1:
            raise NotIsolating("the reduced modulus lost its root in the isolating interval")
    return ResidueContext(m, root)
