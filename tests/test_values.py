"""
The record contract of the value classes: every one derives from
`laurent.Immutable`, so equality, hashing and repr are read from its fields
(its public slots), never from the caches in its "_" slots, and no slot can
be assigned or deleted once the value is built.
"""

import pytest

from qlink.braid import BraidWord, ColoredBraid
from qlink.laurent import Immutable, LaurentPoly
from qlink.report import Report
from qlink.tensorop import HALF, Operator, Shape, Spin, compose, identity
from qlink.tl import TLElement, hook_diagram

def report() -> Report:
    """Report "s" with a passing check "c" and a failing check "d" of residual 3 and note "n"."""
    value = Report("s")
    value.add_bool("c", True)
    value.add("d", LaurentPoly({0: 1, 1: 1, 2: 1}), "n")
    return value


# Each builder returns a fresh value, equal to its last one field by field.
BUILDERS = {
    "LaurentPoly": lambda: LaurentPoly({-1: 2, 3: -1}),
    "LaurentPoly.one": LaurentPoly.one,  # a shared constant: every call returns the same object
    "Spin": lambda: Spin(3),
    "Shape": lambda: Shape.of(1, 2),
    "Operator": lambda: Operator(Shape.of(1), Shape.of(1), {(0, 1): LaurentPoly.v_power(2)}),
    "BraidWord": lambda: BraidWord(3, (1, -2)),
    "ColoredBraid": lambda: ColoredBraid(BraidWord(2, (1, 1)), (HALF, Spin(1))),
    "TLElement": lambda: TLElement(3, {hook_diagram(3, 1): LaurentPoly.const(2)}),
    "Report": report,
}
UNHASHABLE = ("Operator", "TLElement", "Report")  # each holds a dict or a list


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_value_class_is_covered():
    assert {type(build()) for build in BUILDERS.values()} == set(subclasses(Immutable))


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_fields_give_equal_values(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", UNHASHABLE)
def test_values_holding_a_dict_or_list_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(BUILDERS[name]())


@pytest.mark.parametrize(
    "a,b",
    [
        (Spin(1), 1),
        (Spin(1), LaurentPoly.one()),
        (BraidWord(2, (1,)), ColoredBraid(BraidWord(2, (1,)), (HALF, HALF))),
        (Shape.of(1), (HALF,)),
        (Report("s"), "s"),
    ],
    ids=["spin-int", "spin-poly", "word-colored", "shape-tuple", "report-str"],
)
def test_a_different_class_is_unequal(a, b):
    assert a != b and b != a
    assert a.__eq__(b) is NotImplemented


@pytest.mark.parametrize(
    "value,text",
    [
        (Spin(1), "Spin(twice_j=1)"),
        (BraidWord(3, (1, -2)), "BraidWord(n_strands=3, letters=(1, -2))"),
        (
            ColoredBraid(BraidWord(2, (1, 1)), (HALF, HALF)),
            "ColoredBraid(word=BraidWord(n_strands=2, letters=(1, 1)), colors=(Spin(twice_j=1), Spin(twice_j=1)))",
        ),
        (
            report(),
            "Report(suite='s', checks=[Check(name='c', passed=True, residual=None, note=None), "
            "Check(name='d', passed=False, residual=3, note='n')])",
        ),
    ],
    ids=["Spin", "BraidWord", "ColoredBraid", "Report"],
)
def test_repr_names_every_field(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("name", BUILDERS)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    value = BUILDERS[name]()
    before = repr(value)
    for field in type(value).__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == BUILDERS[name]() and repr(value) == before
    assert LaurentPoly.one() == 1


@pytest.mark.parametrize("name", BUILDERS)
def test_fields_are_the_public_slots(name):
    cls = type(BUILDERS[name]())
    assert cls._fields == tuple(slot for slot in cls.__slots__ if not slot.startswith("_"))
    assert cls._fields


@pytest.mark.parametrize("name", BUILDERS)
def test_filled_caches_leave_equality_hashing_and_repr_alone(name):
    # Every "_" slot of one value is overwritten with a foreign object: the
    # value still equals, hashes and prints like a fresh one.
    warm, cold = BUILDERS[name](), BUILDERS[name]()
    caches = [slot for slot in type(warm).__slots__ if slot.startswith("_")]
    for slot in caches:
        object.__setattr__(warm, slot, object())
    assert warm == cold and cold == warm and repr(warm) == repr(cold)
    if name not in UNHASHABLE:
        assert hash(warm) == hash(cold)


def test_an_indexed_operator_equals_a_cold_one():
    # The packed executor fills an operator's index on first use.
    warm, cold = BUILDERS["Operator"](), BUILDERS["Operator"]()
    assert compose(identity(warm.shape_out), warm) == cold
    assert warm._index is not None and cold._index is None
    assert warm == cold and repr(warm) == repr(cold)
    for slot in ("_index", "entries"):
        with pytest.raises(AttributeError):
            setattr(warm, slot, None)
        with pytest.raises(AttributeError):
            delattr(warm, slot)
    assert warm._index is not None
