from fractions import Fraction
from typing import get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    arch_from_dict,
    buffer_footprint,
    check_feasible,
    derive_l2_tiles,
    precision_from_value,
    problem_from_value,
    tile_from_value,
)
from asymtile.gemm import Matrix
from asymtile.pipeline import LoadClass, MicrokernelSpec
from asymtile.search import SearchSpace


def test_default_arch_constants():
    assert DEFAULT_ARCH.l1_capacity == 64512
    assert DEFAULT_ARCH.n_cores == 32
    assert ArchSpec(n_rows=2, n_cols=3).n_cores == 6
    assert DEFAULT_ARCH.peak_flops_per_cycle == 1024
    assert DEFAULT_ARCH.peak_core_flops == pytest.approx(1024 * 1.8e9)
    assert DEFAULT_ARCH.peak_array_flops == pytest.approx(58.9824e12)


def test_presets_exact_costs():
    c1 = PRECISION_PRESETS["config1"]
    assert (c1.byte_cost_a, c1.byte_cost_b, c1.byte_cost_c) == (2, Fraction(5, 4), 2)
    assert c1.accum_label == "bf16"
    c2 = PRECISION_PRESETS["config2"]
    assert c2.byte_cost_a == c2.byte_cost_b == c2.byte_cost_c == Fraction(5, 4)
    packed = PRECISION_PRESETS["config2_packed"]
    assert packed.byte_cost_a == Fraction(9, 8)
    c3 = PRECISION_PRESETS["config3"]
    assert c3.byte_cost_a == Fraction(5, 4) and c3.accum_label == "bf16"


def test_precision_coercion():
    p = PrecisionSpec(1.25, "5/4", 2)
    assert p.byte_cost_a == Fraction(5, 4)
    assert p.byte_cost_b == Fraction(5, 4)
    assert p.byte_cost_c == 2
    with pytest.raises(ConfigError):
        PrecisionSpec(0, 1, 1)
    with pytest.raises(ConfigError):
        PrecisionSpec("nope", 1, 1)
    for cost in (float("inf"), float("nan"), 10**400, "1/0"):
        with pytest.raises(ConfigError, match="bad byte cost"):
            PrecisionSpec(cost, 1, 1)


def test_tile_validation():
    t = TileConfig(32, 128, 64, 128)
    assert t.rho == 4
    assert t.as_tuple() == (32, 128, 64, 128)
    with pytest.raises(ConfigError):
        TileConfig(12, 128, 64, 128)  # not a multiple of 8
    with pytest.raises(ConfigError):
        TileConfig(128, 32, 64, 128)  # t_mc < t_ma
    with pytest.raises(ConfigError):
        TileConfig(24, 64, 64, 128)  # t_ma does not divide t_mc
    with pytest.raises(ConfigError):
        TileConfig(0, 8, 8, 8)


# Each config type with the smallest valid values of its other fields, so
# that any one count field can go to its floor.
FLOOR_BASES = (
    (ArchSpec, {}),
    (ProblemSpec, {"m": 1, "k": 1, "n": 1}),
    (TileConfig, {"t_ma": 8, "t_mc": 8, "t_k": 8, "t_n": 8}),
    (LoadClass, {"latency": 1, "count": 1}),
    (MicrokernelSpec, {"chains": 1}),
    (SearchSpace, {"t_k_min": 8}),
    (Matrix, {"rows": 1, "cols": 1, "data": (1.0,)}),
)
FLOORS = {"switch_overhead_delta": 0, "l_vmac_to_store": 0}
# The int fields of each type: its type hints cover a NamedTuple's fields
# and a dataclass's alike.
COUNT_FIELDS = [
    (cls, base, name, 8 if cls is SearchSpace else FLOORS.get(name, 1))
    for cls, base in FLOOR_BASES
    for name, hint in get_type_hints(cls).items()
    if hint is int
]


@pytest.mark.parametrize(
    "cls, base, name, floor", COUNT_FIELDS, ids=[f"{c[0].__name__}.{c[2]}" for c in COUNT_FIELDS]
)
def test_count_field_floor(cls, base, name, floor):
    with pytest.raises(ConfigError) as exc:
        cls(**{**base, name: floor - 1})
    assert str(exc.value) == f"{name} must be >= {floor}, got {floor - 1}"
    if cls is TileConfig:
        # 1 passes the floor; the tile grid then asks for a multiple of 8.
        with pytest.raises(ConfigError, match=f"^tile dim {name}=1 is not a multiple of 8$"):
            cls(**{**base, name: floor})
    else:
        assert getattr(cls(**{**base, name: floor}), name) == floor


def test_unit_tile_footprint():
    # Smallest tile, one 8x8 block per dim, at unit byte costs: two 8x8 A
    # slices, two 8x8 B slices and one 8x8 C tile, 2*64 + 2*64 + 1*64 = 320.
    tile = TileConfig(8, 8, 8, 8)
    prec = PrecisionSpec(1, 1, 1)
    assert buffer_footprint(tile, prec) == 320


def test_footprint_reference_config():
    tile = TileConfig(32, 128, 64, 128)
    prec = PRECISION_PRESETS["config1"]
    # 2*2*32*64 + 2*1.25*64*128 + 1*2*128*128 = 8192 + 20480 + 32768
    assert buffer_footprint(tile, prec) == 61440
    assert check_feasible(tile, prec)


def test_footprint_symmetric_infeasible():
    tile = TileConfig(128, 128, 64, 128)
    prec = PRECISION_PRESETS["config1"]
    assert buffer_footprint(tile, prec) == 86016
    assert not check_feasible(tile, prec)


def test_footprint_fractional_rounds_up():
    # 2*(9/8)*8*8 + 2*(9/8)*8*8 + 1*(9/8)*8*8 = 360 exactly; shrink C cost to
    # force a non-integer total and check the ceil.
    tile = TileConfig(8, 8, 8, 8)
    prec = PrecisionSpec(Fraction(9, 8), Fraction(9, 8), Fraction(1, 3))
    exact = 2 * Fraction(9, 8) * 64 + 2 * Fraction(9, 8) * 64 + Fraction(64, 3)
    assert buffer_footprint(tile, prec) == 310
    assert exact < 310 < exact + 1


@given(
    t_ma=st.integers(1, 8).map(lambda v: 8 * v),
    rho=st.sampled_from([2, 4, 8]),
    t_k=st.integers(1, 32).map(lambda v: 8 * v),
    t_n=st.integers(1, 32).map(lambda v: 8 * v),
)
def test_footprint_grows_with_asymmetry_removed(t_ma, rho, t_k, t_n):
    # At fixed t_mc, shrinking t_ma (raising rho) can only shrink the footprint.
    prec = PRECISION_PRESETS["config1"]
    asym = TileConfig(t_ma, t_ma * rho, t_k, t_n)
    sym = TileConfig(t_ma * rho, t_ma * rho, t_k, t_n)
    assert buffer_footprint(asym, prec) < buffer_footprint(sym, prec)


def test_derive_l2_tiles():
    tile = TileConfig(32, 128, 64, 128)
    assert derive_l2_tiles(tile) == (512, 64, 1024)


@pytest.mark.parametrize(
    "overrides",
    [
        {"l1_capacity": 64512.0},
        {"n_rows": 4.0},
        {"n_cols": True},
        {"n_rows": "4"},
        {"peak_macs_per_cycle": 512.5},
        {"switch_overhead_delta": 50.5},
        {"buffer_multiplier_a": 1.5},
        {"buffer_multiplier_b": 2.0},
        {"buffer_multiplier_c": True},
    ],
)
def test_arch_rejects_non_integer_counts(overrides):
    with pytest.raises(ConfigError, match="must be an integer"):
        arch_from_dict(overrides)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1e9", 0, -1.0, 10**400])
@pytest.mark.parametrize("name", ["clock_hz", "offchip_bw"])
def test_arch_rejects_bad_rates(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a finite positive number"):
        arch_from_dict({name: value})


def test_arch_real_fields_accept_floats():
    arch = arch_from_dict({"clock_hz": 2e9, "offchip_bw": 70.5e9, "l1_capacity": 65536})
    assert (arch.clock_hz, arch.offchip_bw, arch.l1_capacity) == (2e9, 70.5e9, 65536)


def test_problem_parsing():
    assert problem_from_value("1024x4096x1024") == ProblemSpec(1024, 4096, 1024)
    assert problem_from_value({"m": 8, "k": 16, "n": 8}) == ProblemSpec(8, 16, 8)
    with pytest.raises(ConfigError):
        problem_from_value("1024x4096")
    with pytest.raises(ConfigError):
        problem_from_value({"m": 8, "k": 16, "n": 8, "batch": 2})


@pytest.mark.parametrize(
    "parse, section, want",
    [
        (problem_from_value, {"m": 64}, "bad 'problem' section: ProblemSpec.__new__() "
         "missing 2 required positional arguments: 'k' and 'n'"),
        (tile_from_value, {"t_ma": 8, "t_mc": 8}, "bad 'tile' section: TileConfig.__new__() "
         "missing 2 required positional arguments: 't_k' and 't_n'"),
        (precision_from_value, {"byte_cost_a": 2}, "bad 'precision' section: PrecisionSpec.__new__() "
         "missing 2 required positional arguments: 'byte_cost_b' and 'byte_cost_c'"),
    ],
    ids=["problem", "tile", "precision"],
)
def test_missing_keys_are_named_with_the_public_type(parse, section, want):
    # The message names the type a config section builds, not the NamedTuple
    # of its fields.
    with pytest.raises(ConfigError) as exc:
        parse(section)
    assert str(exc.value) == want


def test_tile_parsing():
    assert tile_from_value([32, 128, 64, 128]) == TileConfig(32, 128, 64, 128)
    assert tile_from_value("32,128,64,128") == TileConfig(32, 128, 64, 128)
    with pytest.raises(ConfigError):
        tile_from_value([32, 128, 64])
    with pytest.raises(ConfigError):
        tile_from_value({"t_ma": 32, "t_mc": 128, "t_k": 64, "t_n": 128, "pad": 1})


def test_precision_parsing():
    assert precision_from_value("config1") is PRECISION_PRESETS["config1"]
    with pytest.raises(ConfigError):
        precision_from_value("config9")
    p = precision_from_value({"byte_cost_a": 1, "byte_cost_b": 1, "byte_cost_c": 1})
    assert p.byte_cost_a == 1
    with pytest.raises(ConfigError):
        precision_from_value({"byte_cost_a": 1, "extra": 2})


def test_arch_from_dict_rejects_unknown():
    assert arch_from_dict({"offchip_bw": 70e9}).offchip_bw == 70e9
    with pytest.raises(ConfigError):
        arch_from_dict({"offchip_bandwidth": 70e9})
