"""The immutable value classes: construction, equality, hashing, repr, refusal of assignment.

Every value class is a slotted `Frozen` subclass whose `__slots__` name its
fields in constructor order.  Importing the package must not load
`dataclasses`, nor the modules it drags in.
"""

import copy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import salemforge
from salemforge.algebraic import AlgebraicReal, RationalInterval
from salemforge.census import UnitCircleCensus
from salemforge.errors import InvalidKey, InvalidOrbitData
from salemforge.frozen import Frozen
from salemforge.jonquieres import OrbitData, StructureReport
from salemforge.realization import CheckResult, RealizationPlan, VerificationReport
from salemforge.residues import ResidueContext, ResidueElement
from salemforge.spectrum import LimitReport, SpectrumEntry, SpectrumKey
from salemforge.weyl import NotReduced, ReductionTrace

CTX = ResidueContext.for_largest_root((-1, -3, 1))
KEY = SpectrumKey(4, (2,))
ROOT = AlgebraicReal((-1, -3, 1), RationalInterval(3, 4))
CHECK = CheckResult("q(1, 0) != q(1, 1)", (-3,), 1, "nonzero", True)

# (class, field values in constructor order, exact repr)
VALUES = [
    (RationalInterval, (1, Fraction(3, 2)), "RationalInterval(lo=Fraction(1, 1), hi=Fraction(3, 2))"),
    (
        AlgebraicReal,
        ((-1, -3, 1), RationalInterval(3, 4)),
        "AlgebraicReal(defining=(-1, -3, 1), interval=RationalInterval(lo=Fraction(3, 1), hi=Fraction(4, 1)))",
    ),
    (UnitCircleCensus, (1, 2, 1), "UnitCircleCensus(inside=1, on=2, outside=1)"),
    (OrbitData, (4, (2, 3)), "OrbitData(d=4, tuple=(2, 3))"),
    (
        StructureReport,
        (OrbitData(4, (2,)), (8, 1, 6, 1, 1), False, 5),
        "StructureReport(orbit=OrbitData(d=4, tuple=(2,)), canonical_row=(8, 1, 6, 1, 1),"
        " canonical_row_fixed=False, defect_scale=5)",
    ),
    (ResidueElement, (CTX, (3, 10), 1), "ResidueElement(10*X + 3)/1"),  # its own repr, kept
    (
        RealizationPlan,
        (KEY, "context", "a", "b", {(1, 0): "t"}),
        "RealizationPlan(key=SpectrumKey(d=4, tuple=(2,)), context='context', a='a', b='b',"
        " points={(1, 0): 't'})",
    ),
    (
        CheckResult,
        ("q(1, 0) != q(1, 1)", (-3,), 1, "nonzero", True),
        "CheckResult(name='q(1, 0) != q(1, 1)', num=(-3,), den=1, expected='nonzero', passed=True)",
    ),
    (
        VerificationReport,
        (KEY, (("pairwise-distinct", (CHECK,)),)),
        "VerificationReport(key=SpectrumKey(d=4, tuple=(2,)), groups=(('pairwise-distinct',"
        " (CheckResult(name='q(1, 0) != q(1, 1)', num=(-3,), den=1, expected='nonzero', passed=True),)),))",
    ),
    (SpectrumKey, (4, (2, 3)), "SpectrumKey(d=4, tuple=(2, 3))"),
    (
        SpectrumEntry,
        (KEY, ROOT, UnitCircleCensus(2, 0, 1), "pisot_like"),
        "SpectrumEntry(key=SpectrumKey(d=4, tuple=(2,)), value=AlgebraicReal(defining=(-1, -3, 1),"
        " interval=RationalInterval(lo=Fraction(3, 1), hi=Fraction(4, 1))),"
        " census=UnitCircleCensus(inside=2, on=0, outside=1), label='pisot_like')",
    ),
    (
        LimitReport,
        (4, (), 2, 6, Fraction(1, 64), Fraction(1, 10)),
        "LimitReport(d=4, prefix=(), first=2, last=6, gap_bound=Fraction(1, 64), tolerance=Fraction(1, 10))",
    ),
    (ReductionTrace, (((1, 2, 3),), ((1,),)), "ReductionTrace(steps=((1, 2, 3),), terminal=((1,),))"),
    (NotReduced, (((1,),), "stuck"), "NotReduced(terminal=((1,),), reason='stuck')"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


def test_the_table_covers_every_value_class():
    assert {cls for cls, _, _ in VALUES} == set(Frozen.__subclasses__()) and len(VALUES) == 14


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, args, text):
    a, b = cls(*args), cls(**dict(zip(cls.__slots__, args)))
    assert a is not b and a == b and not a != b
    if cls is RealizationPlan:  # its points are a dict, so the plan has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != args and a.__eq__(args) is NotImplemented


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_repr_is_pinned(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(cls, args, text):
    value = cls(*args)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(*args) and not hasattr(value, "extra")


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_missing_or_extra_keyword_raises_type_error(cls, args, text):
    fields = dict(zip(cls.__slots__, args))
    first, *rest = cls.__slots__  # the last field of a key has a default, the first never
    with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{first}'"):
        cls(**{name: fields[name] for name in rest})
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**fields, extra=0)


@pytest.mark.parametrize("cls, args, text", VALUES, ids=IDS)
def test_copies_are_equal_values(cls, args, text):
    value = cls(*args)
    assert copy.copy(value) == value
    if cls is not ResidueElement:  # a deep copy holds a new context, and contexts compare by identity
        assert copy.deepcopy(value) == value


def test_values_of_different_classes_differ():
    assert SpectrumKey(4, (2,)) != OrbitData(4, (2,))
    assert SpectrumKey(4, (2,)).__eq__(OrbitData(4, (2,))) is NotImplemented
    assert SpectrumKey(4) == SpectrumKey(4, ()) and OrbitData(4) == OrbitData(4, ())


def test_tuple_fields_take_any_iterable():
    assert SpectrumKey(4, [2, 3]).tuple == (2, 3) and OrbitData(4, iter([2])).tuple == (2,)
    assert RationalInterval(1, 2).lo == Fraction(1) and type(RationalInterval(1, 2).hi) is Fraction


@pytest.mark.parametrize(
    "make, exc, message",
    [
        (lambda: RationalInterval(2, 1), ValueError, "interval endpoints out of order"),
        (lambda: OrbitData(4.0), InvalidOrbitData, "degree and orbit lengths must be integers, got 4.0, ()"),
        (lambda: OrbitData(0), InvalidOrbitData, "degree must be >= 1, got 0"),
        (lambda: OrbitData(4, (0,)), InvalidOrbitData, "orbit lengths must be >= 1, got (0,)"),
        (lambda: OrbitData(2, (1, 1, 1)), InvalidOrbitData, "m = 4 exceeds 2d-1 = 3 for d = 2"),
        (lambda: SpectrumKey(4, (True,)), InvalidKey, "spectrum keys need integer d and entries, got 4, (True,)"),
        (lambda: SpectrumKey(3), InvalidKey, "spectrum keys need d >= 4, got 3"),
        (lambda: SpectrumKey(4, (1,)), InvalidKey, "spectrum keys need entries >= 2, got (1,)"),
        (lambda: SpectrumKey(4, (2,) * 7), InvalidKey, "m = 8 exceeds 2d-1 for d = 4"),
    ],
)
def test_validation_errors_still_fire(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert str(info.value) == message


def test_import_loads_no_dataclasses():
    # -S skips site, whose .pth files may import typing themselves
    src = str(Path(salemforge.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import salemforge, salemforge.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
