"""The package's rule for its types: a dataclass only where construction
validates, a NamedTuple for every record a function returns.

The walk covers every module of ``asymtile``, so a new dataclass without a
``__post_init__`` fails here, as does a record that is turned back into a
class that assignment can change.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import asymtile

RECORDS = {
    "asymtile.intensity": "AiResult",
    "asymtile.movement": "MovementTrace",
    "asymtile.pipeline": "LatencyBounds",
    "asymtile.schedule": "ScheduleResult",
    "asymtile.perf": "PerfEstimate",
    "asymtile.search": "RankedResult",
    "asymtile.cli": "RunConfig",
}


def package_classes():
    for info in pkgutil.iter_modules(asymtile.__path__, "asymtile."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name:
                yield cls


def test_every_dataclass_validates_on_construction():
    found = [cls for cls in package_classes() if dataclasses.is_dataclass(cls)]
    assert found
    assert [cls.__qualname__ for cls in found if "__post_init__" not in vars(cls)] == []


@pytest.mark.parametrize("module, name", RECORDS.items(), ids=RECORDS.values())
def test_record_is_an_immutable_tuple(module, name):
    cls = getattr(importlib.import_module(module), name)
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    record = cls(*range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == tuple(range(len(cls._fields)))
