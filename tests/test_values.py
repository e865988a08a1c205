"""The value-type contract of every layer: each ``confspace._Value``
subclass, found by scanning the layers, is frozen, compares and hashes by
its fields, copies and pickles to an equal value, and keeps its repr."""

import copy
import importlib
import pickle
from pathlib import Path

import pytest

import confspace
from confspace import _Value, braid

# every module of the package but its entry points
LAYERS = tuple(
    importlib.import_module("confspace." + path.stem)
    for path in sorted(Path(confspace.__file__).resolve().parent.glob("*.py"))
    if path.stem not in ("__init__", "__main__", "cli"))


def _layer_classes():
    return [cls for layer in LAYERS for cls in vars(layer).values()
            if isinstance(cls, type) and cls.__module__ == layer.__name__]


VALUE_TYPES = sorted((cls for cls in _layer_classes()
                      if issubclass(cls, _Value)),
                     key=lambda cls: cls.__name__)

# one example per value type; each call builds a new value from new fields
EXAMPLES = {
    "Perm": lambda: braid.Perm((2, 3, 1)),
    "BraidWord": lambda: braid.BraidWord(3, (1, -2)),
    "CanonicalBraid": lambda: braid.canonical_form(
        braid.BraidWord(4, (1, 2, -3))),
    "SymHom": lambda: braid.SymHom(
        3, 3, (braid.Perm.transposition(3, 1),) * 2),
}


def test_every_value_type_has_an_example():
    assert sorted(EXAMPLES) == [cls.__name__ for cls in VALUE_TYPES]


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    value, same = EXAMPLES[cls.__name__](), EXAMPLES[cls.__name__]()
    assert type(value) is cls and value is not same
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    before = repr(value)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in cls.__slots__) == fields
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != fields and not value == fields
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value
        assert hash(twin) == hash(value) and repr(twin) == before
    assert repr(value) == repr(same) == before


def test_no_layer_class_writes_its_own_freezing():
    for cls in _layer_classes():
        assert "__setattr__" not in vars(cls), cls
        assert "__delattr__" not in vars(cls), cls
