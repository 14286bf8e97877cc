"""The package's rule for its types: a NamedTuple for every record a
function returns and for every input, which checks its fields in
``__new__``; a dataclass only where construction validates.

The walk covers every module of ``asymtile``, so a new dataclass without a
``__post_init__`` fails here, as does a record or an input that is turned
back into a class that assignment can change, or an input whose copies
skip its checks.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import asymtile
from asymtile.arch import ArchSpec, ConfigError, PrecisionSpec, ProblemSpec, TileConfig
from asymtile.pipeline import LoadClass, MicrokernelSpec

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


# Each input: valid fields, then one bad field and the ConfigError it raises.
INPUTS = [
    (PrecisionSpec, {"byte_cost_a": 2, "byte_cost_b": "5/4", "byte_cost_c": 2}, "byte_cost_b", 0,
     "byte cost must be positive, got 0"),
    (ArchSpec, {}, "n_cols", 0, "n_cols must be >= 1, got 0"),
    (ProblemSpec, {"m": 64, "k": 64, "n": 64}, "k", 0, "k must be >= 1, got 0"),
    (TileConfig, {"t_ma": 32, "t_mc": 128, "t_k": 64, "t_n": 128}, "t_mc", 112,
     "t_ma=32 must divide t_mc=112 exactly"),
    (LoadClass, {"latency": 8, "count": 4}, "unaligned", "no", "unaligned must be true or false, got 'no'"),
    (MicrokernelSpec, {}, "chains", 6, "chains=6 exceeds accum_regs=5"),
]


@pytest.mark.parametrize(
    "cls, fields, name, bad, message", INPUTS, ids=[case[0].__name__ for case in INPUTS]
)
def test_input_is_an_immutable_tuple_checked_on_every_build(cls, fields, name, bad, message):
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
    value = cls(**fields)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    copy = value._replace(**{name: getattr(value, name)})
    assert type(copy) is cls and copy == value
    with pytest.raises(ConfigError) as built:
        cls(**{**fields, name: bad})
    with pytest.raises(ConfigError) as replaced:
        value._replace(**{name: bad})
    assert str(built.value) == str(replaced.value) == message
    # An argument error names the type, not the NamedTuple of its fields.
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__new__\(\) got an unexpected keyword argument 'bogus'$"):
        cls(**fields, bogus=1)
