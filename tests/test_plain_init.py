"""ClusterPlan and SweepPoint keep the generated __init__: a hand-written one
that fills __dict__ directly builds faster but makes every later field read
slower on CPython 3.11.  Both must behave as the frozen dataclasses they are:
the same construction, replace(), frozen fields, equality, hash and repr as a
copy of the class declared with the default @dataclass(frozen=True)."""
import copy
import dataclasses
import inspect
import pickle
from decimal import Decimal

import pytest

from spotplan import ClusterPlan, InstanceSpec, Kind, SweepPoint

_V = InstanceSpec(name="v", kind=Kind.GPU, od_price="2", spot_price="1", network_bw=10, eflops=3, memory=16)
_W = InstanceSpec(name="w", kind=Kind.CPU, od_price="0.5", spot_price="0.2", network_bw=10, eflops=0, memory=64)

# Field values of a few instances of each class, two of them equal.
_VALUES = {
    ClusterPlan: [
        ("single_anchor", _V, 4, None, None, Decimal("5"), 10.5),
        ("tiering", _V, 4, _W, 1, Decimal("4.5"), 12.0),
        ("tiering", _V, 4, _W, 1, Decimal("4.5"), 12.0),
        ("tiering", _V, 5, _W, 1, Decimal("5.5"), 15.0),
    ],
    SweepPoint: [
        (Decimal("0.1"), 0.0, 0.0, None),
        (Decimal("3"), 12.0, 0.5, ClusterPlan("tiering", _V, 4, _W, 1, Decimal("4.5"), 12.0)),
        (Decimal("3"), 12.0, 0.5, ClusterPlan("tiering", _V, 4, _W, 1, Decimal("4.5"), 12.0)),
        (Decimal("3.0"), 12.0, 0.5, None),
    ],
}
_CLASSES = list(_VALUES)


def _reference(cls):
    """cls's fields in a class of the same name declared with the default @dataclass(frozen=True)."""
    return dataclasses.make_dataclass(cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)], frozen=True)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_construction_is_that_of_the_dataclass(cls):
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names == list(inspect.signature(_reference(cls)).parameters)
    for values in _VALUES[cls]:
        positional, keyword = cls(*values), cls(**dict(zip(names, values)))
        assert positional == keyword and dataclasses.astuple(positional) == dataclasses.astuple(_reference(cls)(*values))
        assert [getattr(positional, name) for name in names] == list(values)
        assert vars(positional) == dict(zip(names, values))
    values = _VALUES[cls][0]
    for bad_args, bad_kwargs in ((values[:-1], {}), ((*values, 1), {}), (values, {names[0]: values[0]}),
                                 (values[:-1], {"nope": 1})):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_replace_builds_a_new_instance(cls):
    values = _VALUES[cls][1]
    field = dataclasses.fields(cls)[2].name
    new = dataclasses.replace(cls(*values), **{field: values[2] * 2})
    assert type(new) is cls
    assert new == cls(*values[:2], values[2] * 2, *values[3:])
    assert dataclasses.replace(cls(*values)) == cls(*values)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_frozen(cls):
    obj = cls(*_VALUES[cls][1])
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, field.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1
    assert vars(obj) == dict(zip((f.name for f in dataclasses.fields(cls)), _VALUES[cls][1]))


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_are_those_of_the_dataclass(cls):
    reference = _reference(cls)
    objs = [cls(*values) for values in _VALUES[cls]]
    refs = [reference(*values) for values in _VALUES[cls]]
    for obj, ref in zip(objs, refs):
        assert repr(obj) == repr(ref)
        assert hash(obj) == hash(ref)
        assert obj != ref  # a dataclass equals only instances of its own class
        assert obj != dataclasses.astuple(obj)
        assert copy.copy(obj) == obj == copy.deepcopy(obj) == pickle.loads(pickle.dumps(obj))
    assert [[a == b for b in objs] for a in objs] == [[a == b for b in refs] for a in refs]
    assert [[a != b for b in objs] for a in objs] == [[a != b for b in refs] for a in refs]
    assert len(set(objs)) == len(set(refs)) == 3
    assert cls.__match_args__ == reference.__match_args__
