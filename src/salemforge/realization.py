"""Symbolic verification of the cuspidal-cubic realization construction.

Points on the smooth locus of the cubic x*y^2 = z^3 are identified with
their affine parameter t (the point being [t^3 : 1 : t]); three points are
collinear exactly when their parameters sum to zero.  For a full orbit
datum (m = 2d-1, pairwise distinct lengths) the plan places every orbit
point at an explicit element of Q[lambda], and the geometric steps of the
construction reduce to exact residue identities: pairwise distinctness,
no collinear base triple, orbit points off the lines through the double
base point, orbit points off the degree-(d-1) contracted curve, the affine
orbit recursion t -> a*t + b, and the eigenvector linear system.

All checks run in Q[X]/(M) where M is the key's polynomial with any factor
shared by the denominators X - 1 and X^{n_i} + 1 divided out (certified not
to vanish at lambda), so the needed ring inverses exist even though the
polynomial itself may be reducible.
"""

from __future__ import annotations

from fractions import Fraction

from . import polys
from .errors import InvalidKey, StructureViolation
from .frozen import Frozen, _set
from .jonquieres import basis, jonquieres_matrix
from .matrices import vec_mat
from .residues import (
    ResidueContext,
    ResidueElement,
    reduced_modulus_context,
    residue_is_zero,
    residue_sign,
)
from .serialize import ratio_to_str
from .spectrum import SpectrumKey


class RealizationPlan(Frozen):
    # a = lambda, b = lambda + 1; points: (orbit, step) -> affine parameter, in basis order; orbit 1 has steps 0, 1
    __slots__ = ("key", "context", "a", "b", "points")

    def __init__(self, key: SpectrumKey, context: ResidueContext, a: ResidueElement, b: ResidueElement, points: dict):
        super().__init__(key, context, a, b, points)

    def point(self, orbit: int, step: int) -> ResidueElement:
        return self.points[(orbit, step)]

    def labels(self):
        return sorted(self.points)


def collinearity_sum(t1: ResidueElement, t2: ResidueElement, t3: ResidueElement) -> ResidueElement:
    """Parameter sum; the three points are collinear iff it vanishes."""
    return t1 + t2 + t3


def _context_for(key: SpectrumKey) -> ResidueContext:
    denominators = [(-1, 1)] + [polys.binomial_xn_plus_1(n) for n in key.tuple]
    # the root keeps its isolating interval; residue_sign narrows it only
    # as far as a sign needs, and zero verdicts go through the gcd certificate
    return reduced_modulus_context(key.polynomial(), denominators)


def transpose_eigenvector(key: SpectrumKey, context: ResidueContext | None = None):
    """Eigenvector of the transposed matrix for the dominant eigenvalue.

    Coordinates follow the basis order: (lambda+1, 1, lambda, then for each
    orbit i the block lambda^{j+1}/(lambda^{n_i}+1), j = 0..n_i-1).
    """
    ctx = context or _context_for(key)
    lam = ctx.x_power(1)
    coords = [lam + 1, ctx.one, lam]
    for n in key.tuple:
        inv = (ctx.x_power(n) + 1).inverse()
        coords.extend(ctx.x_power(j + 1) * inv for j in range(n))
    return coords


def _is_transpose_eigenvector(key: SpectrumKey, ctx: ResidueContext, v) -> bool:
    """J^T v = lambda v, row by row, in Q[X]/(M): each row's numerator is a
    multiple of the key's polynomial, so it reduces to the zero polynomial.
    (J^T v)[r] = sum_k J[k][r] v[k] is the row vector product v J."""
    lam = ctx.x_power(1)
    rows = vec_mat(v, jonquieres_matrix(key.orbit))
    return all((lhs - lam * x).is_zero_poly for lhs, x in zip(rows, v))


def check_transpose_eigenvector(key: SpectrumKey) -> bool:
    """J^T v = lambda v, coordinate by coordinate, exactly."""
    ctx = _context_for(key)
    return _is_transpose_eigenvector(key, ctx, transpose_eigenvector(key, ctx))


def realization_points(key: SpectrumKey) -> RealizationPlan:
    """Explicit orbit points for a full orbit datum.

    Requires m = 2d-1 with pairwise distinct entries.  Every point is the
    eigenvector recipe (3v - b)/(a - 1) applied to its coordinate; v is
    checked to satisfy J^T v = lambda v first, and a failure raises
    StructureViolation.
    """
    if key.m != 2 * key.d - 1:
        raise InvalidKey(f"realization needs m = 2d-1, got m = {key.m} for d = {key.d}")
    if len(set(key.tuple)) != len(key.tuple):
        raise InvalidKey(f"realization needs pairwise distinct entries: {key.tuple}")
    ctx = _context_for(key)
    v = transpose_eigenvector(key, ctx)
    if not _is_transpose_eigenvector(key, ctx, v):
        raise StructureViolation(f"v is not an eigenvector of J^T for lambda: {key}")
    a = ctx.x_power(1)
    b = a + 1
    inv_lam1 = (a - 1).inverse()

    points = {label: (3 * coord - b) * inv_lam1 for label, coord in zip(basis(key.orbit), v[1:])}
    return RealizationPlan(key, ctx, a, b, points)


def check_affine_recursion(plan: RealizationPlan) -> bool:
    """a*q(i,j) + b = q(i,j+1) for every orbit and every non-terminal step."""
    a, b = plan.a, plan.b
    labels = plan.labels()
    return all(
        residue_is_zero(a * plan.point(*x) + b - plan.point(*y))
        for x, y in zip(labels, labels[1:])
        if y == (x[0], x[1] + 1)
    )


def check_eigen_system(plan: RealizationPlan) -> bool:
    """The two families of linear identities tying the plan to the matrix.

    With F the lattice matrix and p_k the point at coordinate k: the first
    column gives 3b = sum_k F[k][0] p_k, and every other column i gives
    a p_i + b = sum_k F[k][i] p_k (rows k >= 1 throughout).  The right-hand
    sides are F^T applied to (0, p_1, p_2, ...).
    """
    pts = list(plan.points.values())
    a, b = plan.a, plan.b
    rhs = vec_mat([0] + pts, jonquieres_matrix(plan.key.orbit))
    if not residue_is_zero(3 * b - rhs[0]):
        return False
    return all(residue_is_zero(a * p + b - r) for p, r in zip(pts, rhs[1:]))


class CheckResult(Frozen):
    __slots__ = ("name", "num", "den", "expected", "passed")

    def __init__(self, name: str, num: tuple, den: int, expected: str, passed: bool):
        _set(self, "name", name)
        _set(self, "num", num)  # the residue representative is num/den, as in ResidueElement
        _set(self, "den", den)
        _set(self, "expected", expected)  # 'zero' | 'nonzero' | 'positive'
        _set(self, "passed", passed)

    @property
    def expression(self) -> list:
        """Rational coefficients of the residue representative."""
        return [Fraction(c, self.den) for c in self.num]


class VerificationReport(Frozen):
    __slots__ = ("key", "groups")  # groups: ((group name, (CheckResult, ...)), ...)

    def __init__(self, key: SpectrumKey, groups: tuple):
        super().__init__(key, groups)

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for _, results in self.groups for r in results)

    def group(self, name: str):
        for g, results in self.groups:
            if g == name:
                return results
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "d": self.key.d,
            "tuple": list(self.key.tuple),
            "overall": "pass" if self.overall_pass else "fail",
            "groups": {
                name: [
                    {
                        "name": r.name,
                        "expression": [str(c) if r.den == 1 else ratio_to_str(c, r.den) for c in r.num],
                        "expected": r.expected,
                        "pass": r.passed,
                    }
                    for r in results
                ]
                for name, results in self.groups
            },
        }


def _nonzero(name, e: ResidueElement) -> CheckResult:
    return CheckResult(name, e.num, e.den, "nonzero", not residue_is_zero(e))


def _zero(name, e: ResidueElement) -> CheckResult:
    return CheckResult(name, e.num, e.den, "zero", residue_is_zero(e))


def _positive(name, e: ResidueElement) -> CheckResult:
    return CheckResult(name, e.num, e.den, "positive", residue_sign(e) == 1)


def verify_realization(key: SpectrumKey) -> VerificationReport:
    """Run every arithmetic identity the realization construction needs.

    Four groups: pairwise distinctness of the blown-up points (with the
    equivalent monomial identities as cross-checks), no collinear triple
    among the simple base points, no orbit point on a line through the
    double point and a simple base point, and no orbit point on the
    degree-(d-1) curve (via the exact curve identity and the sign checks
    that rule the coincidences out).
    """
    plan = realization_points(key)
    ctx = plan.context
    lam = ctx.x_power(1)
    labels = plan.labels()

    # group 1: pairwise distinctness
    distinct = []
    for x in range(len(labels)):
        for y in range(x + 1, len(labels)):
            la, lb = labels[x], labels[y]
            diff = plan.point(*la) - plan.point(*lb)
            distinct.append(_nonzero(f"q{la} != q{lb}", diff))
            cross = _distinctness_monomial(ctx, key, la, lb)
            if cross is not None:
                distinct.append(cross)

    # group 2: no collinear triple among q1 and two simple base points
    collinear = []
    heads = list(range(2, key.m + 1))
    q1 = plan.point(1, 0)
    for x in range(len(heads)):
        for y in range(x + 1, len(heads)):
            i, j = heads[x], heads[y]
            s = collinearity_sum(q1, plan.point(i, 0), plan.point(j, 0))
            collinear.append(_nonzero(f"sum q1+q({i},0)+q({j},0)", s))
            ni, nj = key.tuple[i - 2], key.tuple[j - 2]
            collinear.append(
                _nonzero(f"lambda^{ni + nj} != 1", ctx.x_power(ni + nj) - 1)
            )

    # group 3: orbit points (step >= 1) off every line through q1 and a head
    offline = []
    later = [lab for lab in labels if lab[1] >= 1]
    for k in heads:
        qk = plan.point(k, 0)
        for lab in later:
            s = collinearity_sum(q1, qk, plan.point(*lab))
            offline.append(_nonzero(f"q{lab} off line(q1, q({k},0))", s))

    # group 4: orbit points off the degree-(d-1) curve
    offcurve = []
    lam2 = ctx.x_power(2)
    head_sum = ctx.zero
    for k in heads:
        head_sum = head_sum + plan.point(k, 0)
    curve = (lam - 1) * ((key.d - 2) * q1 + head_sum) + 3 * lam2 - (lam + 1)
    offcurve.append(_zero("curve identity", curve))
    residual = -((key.d - 2) * q1) - head_sum  # last intersection of the curve
    for lab in labels:
        offcurve.append(_nonzero(f"q{lab} != curve residual", plan.point(*lab) - residual))
    offcurve.append(_positive("lambda^2+1 > 0", lam2 + 1))
    offcurve.append(_positive("lambda^2+lambda > 0", lam2 + lam))
    for n in key.tuple:
        for j in range(n):
            # lambda^2(lambda^n+1) + lambda^j, from powers
            expr = ctx.x_power(n + 2) + lam2 + ctx.x_power(j)
            offcurve.append(_positive(f"lambda^2(lambda^{n}+1)+lambda^{j} > 0", expr))

    groups = (
        ("pairwise-distinct", tuple(distinct)),
        ("non-collinear-triples", tuple(collinear)),
        ("points-off-lines", tuple(offline)),
        ("points-off-curve", tuple(offcurve)),
    )
    return VerificationReport(key, groups)


def _distinctness_monomial(ctx, key: SpectrumKey, la, lb):
    """The monomial identity equivalent to a point coincidence, as cross-check."""
    (i, k), (j, l) = la, lb
    if i == 1 and j == 1:
        return _nonzero("lambda != 1", ctx.x_power(1) - 1)
    if i == 1:
        nj = key.tuple[j - 2]
        # q1 = q(j,l) <=> lambda^{n_j}+1 = lambda^{l+1}; p1: exponent l
        exp = l + 1 if k == 0 else l
        return _nonzero(
            f"lambda^{nj}+1 != lambda^{exp}", ctx.x_power(nj) + 1 - ctx.x_power(exp)
        )
    if j == 1:
        return _distinctness_monomial(ctx, key, lb, la)
    ni, nj = key.tuple[i - 2], key.tuple[j - 2]
    if i == j:
        return _nonzero(
            f"lambda^{k + 1} != lambda^{l + 1}", ctx.x_power(k + 1) - ctx.x_power(l + 1)
        )
    # lambda^a(lambda^b+1) = lambda^(a+b) + lambda^a, from powers
    lhs = ctx.x_power(k + 1 + nj) + ctx.x_power(k + 1)
    rhs = ctx.x_power(l + 1 + ni) + ctx.x_power(l + 1)
    return _nonzero(
        f"lambda^{k + 1}(lambda^{nj}+1) != lambda^{l + 1}(lambda^{ni}+1)", lhs - rhs
    )
