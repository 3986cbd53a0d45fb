"""Exact arithmetic in Q[X]/(modulus), evaluated at a distinguished root.

Elements are rational-coefficient polynomials of degree below the modulus,
stored as an integer coefficient tuple over a positive common denominator.
The modulus need not be irreducible: deciding whether an element vanishes
at the distinguished root lambda therefore never trusts interval evaluation
for a zero verdict; the certificate is a polynomial gcd with a Sturm count
on lambda's isolating interval.  Interval evaluation is only used the other
way round, to certify nonzero values and signs.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from . import polys
# `refine` stays importable as residues.refine, which the benchmark tracer's alias test reads
from .algebraic import AlgebraicReal, isolate_largest_real_root, memo_slot, refine  # noqa: F401
from .errors import ModulusMismatch, NotInvertible, NotIsolating


class ResidueContext:
    """Shared modulus plus the certified root all decisions refer to.

    Safe to share across threads: one lock guards the power memo, which
    only grows.  The root's refinement lives in a slot of the lock-guarded
    refinement memo of `algebraic`, whose cell only ever narrows.
    """

    def __init__(self, modulus, root: AlgebraicReal):
        modulus = polys.normalize(modulus)
        if polys.degree(modulus) < 1:
            raise ValueError("modulus must be nonconstant")
        if not polys.is_monic(modulus):
            raise ValueError("modulus must be monic")
        # evaluation at the root is well defined on Q[X]/(modulus) only if
        # the root is a root of the modulus, i.e. root.defining | modulus
        if root.is_exact:
            if polys.eval_at(modulus, root.exact_value) != 0:
                raise ValueError("root is not a root of the modulus")
        elif polys.gcd(root.defining, modulus) != root.defining:
            raise ValueError("root.defining must divide the modulus")
        self.modulus = modulus
        self._root, self._slot = root, None if root.is_exact else memo_slot(root)
        self._lock = threading.Lock()
        self._powers = [polys.ONE]
        self.zero = ResidueElement(self, (), 1)
        self.one = ResidueElement(self, (1,), 1)

    @property
    def root(self) -> AlgebraicReal:
        """The distinguished root, on the narrowest interval known so far."""
        return self._slot.root if self._slot else self._root

    @staticmethod
    def for_largest_root(p) -> "ResidueContext":
        return ResidueContext(p, isolate_largest_real_root(p))

    def __eq__(self, other):
        return isinstance(other, ResidueContext) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    # -- construction -----------------------------------------------------

    def reduce(self, coeffs) -> "ResidueElement":
        """Reduce a rational-coefficient polynomial modulo the modulus."""
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = polys.normalize(int(f * den) for f in fracs)
        num = self._mod(num)
        return self._make(num, den)

    def x_power(self, k: int) -> "ResidueElement":
        """X**k reduced, memoised: the workhorse for lambda-power formulas."""
        powers = self._powers
        if k >= len(powers):
            with self._lock:
                while len(powers) <= k:
                    powers.append(self._mod(polys.shift(powers[-1], 1)))
        return ResidueElement(self, powers[k], 1)

    def _mod(self, num):
        if polys.degree(num) >= polys.degree(self.modulus):
            _, num = polys.monic_divmod(num, self.modulus)
        return num

    def _make(self, num, den: int) -> "ResidueElement":
        if not num:
            return ResidueElement(self, (), 1)
        if den == 1:
            return ResidueElement(self, num, 1)
        g = math.gcd(polys.content(num), den)
        if den < 0:
            g = -g
        return ResidueElement(self, tuple(c // g for c in num), den // g)


@dataclass(frozen=True)
class ResidueElement:
    """representative = num/den, an element of Q[X]/(modulus)."""

    context: ResidueContext
    num: tuple
    den: int

    def _check(self, other) -> "ResidueElement":
        if isinstance(other, int):
            return ResidueElement(self.context, (other,) if other else (), 1)
        if not isinstance(other, ResidueElement):
            return self.context.reduce([other])
        if other.context != self.context:
            raise ModulusMismatch("operands reduced modulo different polynomials")
        return other

    def __add__(self, other):
        other = self._check(other)
        num = polys.add(polys.scale(self.num, other.den), polys.scale(other.num, self.den))
        return self.context._make(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElement(self.context, polys.neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        num = self.context._mod(polys.mul(self.num, other.num))
        return self.context._make(num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
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
    """Exact sign of the representative at the distinguished root.

    Interval Horner certifies nonzero signs, narrowing the root 2**-20 per
    undecided round; after three such rounds `_vanishes_at` certifies a
    zero or rules it out, so a zero verdict never rests on an interval.
    The context's slot of the refinement memo gives the first cell without
    a lock, and takes each narrower cell back.
    """
    if e.is_zero_poly:
        return 0
    ctx = e.context
    if ctx._slot is None:
        return polys.sign(polys.eval_at(e.num, ctx.root.exact_value))
    cell = ctx._slot.cell
    for undecided in itertools.count(1):
        s = polys.interval_sign(e.num, *cell[:3])
        if s or (undecided == 3 and _vanishes_at(e.num, ctx._root)):
            return s
        cell = ctx._slot.narrow(cell, 20)


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
            if _vanishes_at(g, root):
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


def _vanishes_at(g, root: AlgebraicReal) -> bool:
    """Zero certificate: g(root) == 0 iff gcd(g, root.defining) has a root
    in root's interval.  The gcd divides root.defining, so the interval's
    endpoints, which are no roots of root.defining, are none of the gcd."""
    if root.is_exact:
        return polys.eval_at(g, root.exact_value) == 0
    common = polys.gcd(g, root.defining)
    if polys.degree(common) < 1:
        return False
    return polys.sturm_count(common, root.interval.lo, root.interval.hi) >= 1
