"""Cuspidal-cubic realization checks, exercised on the d = 4 full orbit.

The rational determinant oracle at the bottom independently validates the
collinearity criterion: [t^3 : 1 : t] points are collinear exactly when
the parameters sum to zero.
"""

import itertools
import random
from fractions import Fraction

import pytest

from salemforge import realization
from salemforge.errors import InvalidKey, ModulusMismatch, StructureViolation
from salemforge.realization import (
    RealizationPlan,
    check_affine_recursion,
    check_eigen_system,
    check_transpose_eigenvector,
    collinearity_sum,
    realization_points,
    transpose_eigenvector,
    verify_realization,
)
from salemforge.residues import ResidueContext, residue_is_zero
from salemforge.spectrum import SpectrumKey

KEY4 = SpectrumKey(4, (2, 3, 4, 5, 6, 7))
KEY5 = SpectrumKey(5, (2, 3, 4, 5, 6, 7, 8, 9))


@pytest.fixture(scope="module")
def plan4():
    return realization_points(KEY4)


def test_eigenvector_small_key_literal_form():
    # d=4, tuple=(2): v = (l+1, 1, l, l/(l^2+1), l^2/(l^2+1))
    key = SpectrumKey(4, (2,))
    v = transpose_eigenvector(key)
    ctx = v[0].context
    lam = ctx.x_power(1)
    inv = (ctx.x_power(2) + 1).inverse()
    assert (v[0] - (lam + 1)).is_zero_poly
    assert (v[1] - 1).is_zero_poly
    assert (v[2] - lam).is_zero_poly
    assert (v[3] - lam * inv).is_zero_poly
    assert (v[4] - lam * lam * inv).is_zero_poly
    assert v[0] == ctx.x_power(1) + 1  # first coordinate is always lambda+1


def test_eigenvector_identity_small_keys():
    assert check_transpose_eigenvector(SpectrumKey(4, (2,)))
    assert check_transpose_eigenvector(SpectrumKey(4, (2, 3)))
    assert check_transpose_eigenvector(SpectrumKey(5, (3, 4)))
    assert check_transpose_eigenvector(SpectrumKey(4, (2, 2, 3)))


def test_eigenvector_identity_full_key():
    assert check_transpose_eigenvector(KEY4)


def full_orbit_keys(d, top):
    # every full orbit datum (m = 2d-1, distinct entries) with entries in 2..top
    return [SpectrumKey(d, t) for t in itertools.combinations(range(2, top + 1), 2 * d - 2)]


def test_eigenvector_identity_every_small_full_orbit():
    keys = full_orbit_keys(4, 9) + full_orbit_keys(5, 10) + full_orbit_keys(6, 11)
    assert len(keys) == 28 + 9 + 1
    for key in keys:
        assert check_transpose_eigenvector(key), key


def test_realization_points_counts_and_forms(plan4):
    # 2 + 3 + 4 + 5 + 6 + 7 + 2 = 29 points, orbit 1 contributing two
    assert len(plan4.points) == 29
    ctx = plan4.context
    lam = ctx.x_power(1)
    inv1 = (lam - 1).inverse()
    assert (plan4.point(1, 0) - (2 - lam) * inv1).is_zero_poly
    # lambda*q1 + (lambda+1) = p1 exactly
    assert residue_is_zero(lam * plan4.point(1, 0) + (lam + 1) - plan4.point(1, 1))


@pytest.mark.parametrize("key", [KEY4, KEY5])
def test_points_match_closed_forms(key):
    # q(1,0) = (2-l)/(l-1), q(1,1) = (2l-1)/(l-1) and, for orbit i of length n,
    # q(i,j) = (3 l^{j+1}/(l^n+1) - l - 1)/(l-1)
    plan = realization_points(key)
    ctx = plan.context
    lam = ctx.x_power(1)
    inv1 = (lam - 1).inverse()
    assert (plan.point(1, 0) - (2 - lam) * inv1).is_zero_poly
    assert (plan.point(1, 1) - (2 * lam - 1) * inv1).is_zero_poly
    for i, n in enumerate(key.tuple, start=2):
        inv = (ctx.x_power(n) + 1).inverse()
        for j in range(n):
            closed = (3 * ctx.x_power(j + 1) * inv - lam - 1) * inv1
            assert (plan.point(i, j) - closed).is_zero_poly, (i, j)


def test_realization_invalid_keys():
    with pytest.raises(InvalidKey):
        realization_points(SpectrumKey(4, (2, 3)))  # m != 2d-1
    with pytest.raises(InvalidKey):
        realization_points(SpectrumKey(4, (2, 2, 3, 4, 5, 6)))  # repeated entries


@pytest.mark.parametrize("index", [1, 2, 3])  # the coordinates of q(1,0), q(1,1), q(2,0)
def test_realization_points_closed_form_mismatch_raises(monkeypatch, index):
    # a perturbed eigenvector coordinate fails J^T v = lambda v; the check
    # must raise, not assert, so that python -O keeps it
    original = realization.transpose_eigenvector

    def perturbed(key, context=None):
        v = original(key, context)
        v[index] = v[index] + 1
        return v

    monkeypatch.setattr(realization, "transpose_eigenvector", perturbed)
    with pytest.raises(StructureViolation, match=r"not an eigenvector of J\^T"):
        realization_points(KEY4)


def test_affine_recursion(plan4):
    assert check_affine_recursion(plan4)


def test_affine_recursion_falsification(plan4):
    broken = dict(plan4.points)
    broken[(3, 1)] = broken[(3, 1)] + 1
    bad = RealizationPlan(plan4.key, plan4.context, plan4.a, plan4.b, broken)
    assert not check_affine_recursion(bad)


# the other kinds of step: orbit 1's only step, and the last point of the last orbit
@pytest.mark.parametrize("label", [(1, 1), (7, 6)], ids=["q(1,1)", "q(7,6)"])
def test_affine_recursion_falsification_at_orbit_ends(plan4, label):
    broken = dict(plan4.points)
    broken[label] = broken[label] + 1
    bad = RealizationPlan(plan4.key, plan4.context, plan4.a, plan4.b, broken)
    assert not check_affine_recursion(bad)


def test_eigen_system(plan4):
    assert check_eigen_system(plan4)


def test_eigen_system_falsification(plan4):
    bad = RealizationPlan(plan4.key, plan4.context, plan4.a + 1, plan4.b, plan4.points)
    assert not check_eigen_system(bad)


def test_eigen_system_falsification_at_one_point(plan4):
    broken = dict(plan4.points)
    broken[(5, 2)] = broken[(5, 2)] + 1
    bad = RealizationPlan(plan4.key, plan4.context, plan4.a, plan4.b, broken)
    assert not check_eigen_system(bad)


def test_eigen_system_first_column_specialises(plan4):
    # 3b = -(d-1) q1 - sum of heads: the first-column identity in closed form
    ctx = plan4.context
    rhs = -3 * plan4.point(1, 0)
    for i in range(2, 8):
        rhs = rhs - plan4.point(i, 0)
    assert residue_is_zero(3 * plan4.b - rhs)


def test_collinearity_sum_basics(plan4):
    ctx = plan4.context
    t = plan4.point(2, 0)
    assert residue_is_zero(collinearity_sum(t, -t, ctx.zero))
    one, two = ctx.reduce([1]), ctx.reduce([2])
    assert residue_is_zero(collinearity_sum(one, two, ctx.reduce([-3])))


def test_collinearity_modulus_mismatch(plan4):
    other = ResidueContext.for_largest_root((-1, -3, 1))
    with pytest.raises(ModulusMismatch):
        collinearity_sum(plan4.point(1, 0), plan4.point(1, 1), other.one)


def test_base_triples_not_collinear(plan4):
    s = collinearity_sum(plan4.point(1, 0), plan4.point(2, 0), plan4.point(3, 0))
    assert not residue_is_zero(s)


def test_verify_realization_d4():
    report = verify_realization(KEY4)
    assert report.overall_pass
    names = [name for name, _ in report.groups]
    assert names == [
        "pairwise-distinct",
        "non-collinear-triples",
        "points-off-lines",
        "points-off-curve",
    ]
    assert all(r.passed for r in report.group("pairwise-distinct"))
    curve = report.group("points-off-curve")[0]
    assert curve.expected == "zero" and curve.passed
    d = report.to_json_dict()
    assert d["overall"] == "pass"


def test_orbit_shift_structure(plan4):
    """a*t + b hits exactly the next orbit point and nothing else."""
    labels = plan4.labels()
    a, b = plan4.a, plan4.b
    for lab in labels:
        img = a * plan4.point(*lab) + b
        hits = [
            other
            for other in labels
            if residue_is_zero(img - plan4.point(*other))
        ]
        i, j = lab
        n_i = 2 if i == 1 else plan4.key.tuple[i - 2]
        if j < n_i - 1:
            assert hits == [(i, j + 1)]
        else:
            assert hits == []


# --- determinant oracles for the collinearity criterion -------------------


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_collinearity_matches_residue_determinant(plan4):
    """The projective 3x3 determinant at lambda agrees with the sum rule."""
    one = plan4.context.one
    q1, q2 = plan4.point(1, 0), plan4.point(2, 0)
    third = -(q1 + q2)  # collinear by construction
    rows_zero = [(t**3, one, t) for t in (q1, q2, third)]
    assert residue_is_zero(det3(rows_zero))
    q3 = plan4.point(3, 0)  # verified non-collinear triple
    rows_nonzero = [(t**3, one, t) for t in (q1, q2, q3)]
    assert not residue_is_zero(det3(rows_nonzero))
    assert not residue_is_zero(collinearity_sum(q1, q2, q3))


def test_collinearity_matches_projective_determinant():
    rng = random.Random(12)
    for _ in range(40):
        t1 = Fraction(rng.randrange(-30, 31), rng.randrange(1, 11))
        t2 = Fraction(rng.randrange(-30, 31), rng.randrange(1, 11))
        if t1 == t2:
            continue
        t3 = -t1 - t2
        if t3 in (t1, t2):
            continue
        rows = [(t**3, Fraction(1), t) for t in (t1, t2, t3)]
        assert det3(rows) == 0
        # a non-summing third point must not be collinear
        t4 = t3 + Fraction(1, 7)
        if t4 in (t1, t2):
            continue
        rows_bad = [(t**3, Fraction(1), t) for t in (t1, t2, t4)]
        assert det3(rows_bad) != 0
