import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    check_feasible,
)
from asymtile.intensity import ai_array, ai_tile
from asymtile.movement import (
    BOUNDARY_ARRAY,
    BufferOverflowError,
    MovementTrace,
    measured_ai,
    random_divisible_case,
    simulate_movement,
    verify_movement_equivalence,
    walk_nest,
)
from asymtile.perf import perf_array

UNIT = PrecisionSpec(1, 1, 1, "unit")


def test_reference_core_counts():
    trace = simulate_movement(
        ProblemSpec(16, 16, 16), TileConfig(8, 16, 8, 8), UNIT
    )
    assert (trace.bytes_a, trace.bytes_b, trace.bytes_c) == (512, 256, 256)
    assert trace.total_bytes == 1024
    assert trace.flops == 8192
    assert measured_ai(trace) == 8
    assert measured_ai(trace) == ai_tile(16, 8, 16, UNIT).ai


def test_single_tile_moves_each_element_once():
    m, k, n = 48, 16, 40
    tile = TileConfig(24, 48, 16, 40)
    trace = simulate_movement(ProblemSpec(m, k, n), tile, UNIT)
    assert trace.bytes_a == m * k
    assert trace.bytes_b == k * n
    assert trace.bytes_c == m * n
    assert trace.evictions_a == tile.rho


def test_reference_array_intensity():
    prec = PRECISION_PRESETS["config1"]
    tile = TileConfig(32, 128, 64, 128)
    trace = simulate_movement(
        ProblemSpec(4096, 4096, 2048), tile, prec, boundary=BOUNDARY_ARRAY
    )
    ai = measured_ai(trace)
    assert ai == Fraction(2048, 5)
    assert float(ai) == 409.6
    assert ai == ai_array(tile, 4096, prec, DEFAULT_ARCH).ai


def test_eviction_count():
    trace = simulate_movement(
        ProblemSpec(64, 32, 32), TileConfig(8, 32, 8, 16), UNIT
    )
    # (64/32) output rows x (32/16) output cols x (32/8) k-steps x 4 passes
    assert trace.evictions_a == 2 * 2 * 4 * 4


def test_occupancy_equals_footprint():
    prec = PRECISION_PRESETS["config1"]
    tile = TileConfig(32, 128, 64, 128)
    trace = simulate_movement(ProblemSpec(512, 128, 512), tile, prec)
    assert trace.peak_l1_occupancy == buffer_footprint(tile, prec)


@settings(max_examples=25)
@given(seed=st.integers(0, 10**9))
def test_occupancy_matches_footprint_randomized(seed):
    problem, tile, prec = random_divisible_case(random.Random(seed))
    trace = simulate_movement(problem, tile, prec)
    assert trace.peak_l1_occupancy == buffer_footprint(tile, prec)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**9),
    multipliers=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    slack=st.integers(-16, 16),
)
def test_one_footprint_decides_feasibility(seed, multipliers, slack):
    problem, tile, prec = random_divisible_case(random.Random(seed))
    mult_a, mult_b, mult_c = multipliers
    arch = ArchSpec(
        buffer_multiplier_a=mult_a,
        buffer_multiplier_b=mult_b,
        buffer_multiplier_c=mult_c,
    )
    arch = arch._replace(l1_capacity=max(1, buffer_footprint(tile, prec, arch) + slack))
    est = perf_array(tile, problem, prec, arch)
    try:
        trace = walk_nest(problem, tile, prec, arch, capacity=arch.l1_capacity)
    except BufferOverflowError:
        trace = None
    assert check_feasible(tile, prec, arch) == est.feasible == (trace is not None)
    if trace is not None:
        assert est.buffer_bytes == trace.peak_l1_occupancy


def test_capacity_overflow_gives_footprint_and_capacity():
    prec = PRECISION_PRESETS["config1"]
    tile = TileConfig(128, 128, 64, 128)
    with pytest.raises(BufferOverflowError, match=r"^tile buffers need 86016 B, over capacity 64512 B$"):
        walk_nest(ProblemSpec(128, 64, 128), tile, prec, capacity=DEFAULT_ARCH.l1_capacity)


def test_capacity_ok_when_feasible():
    prec = PRECISION_PRESETS["config1"]
    tile = TileConfig(32, 128, 64, 128)
    trace = walk_nest(
        ProblemSpec(128, 64, 128), tile, prec, capacity=DEFAULT_ARCH.l1_capacity
    )
    assert trace.flops == 2 * 128 * 64 * 128


def test_divisibility_rejected():
    with pytest.raises(ConfigError):
        simulate_movement(ProblemSpec(20, 16, 16), TileConfig(8, 16, 8, 8), UNIT)
    with pytest.raises(ConfigError):
        simulate_movement(
            ProblemSpec(16, 16, 16), TileConfig(8, 16, 8, 8), UNIT, boundary="l3"
        )


def test_measured_ai_rejects_zero_bytes():
    trace = MovementTrace(
        bytes_a=Fraction(0),
        bytes_b=Fraction(0),
        bytes_c=Fraction(0),
        flops=0,
        peak_l1_occupancy=0,
        evictions_a=0,
    )
    with pytest.raises(ConfigError):
        measured_ai(trace)


def test_unit_problem_ai():
    # One 8x8x8 tile covering the problem moves each operand once: 64
    # elements each, so 2*64 + (5/4)*64 + 1*64 = 272 bytes for 2*8^3 = 1024
    # flops, an intensity of 1024/272 = 64/17.
    tile = TileConfig(8, 8, 8, 8)
    prec = PrecisionSpec(2, Fraction(5, 4), 1, "mixed")
    trace = simulate_movement(ProblemSpec(8, 8, 8), tile, prec)
    assert trace.flops == 1024
    assert trace.total_bytes == 272
    assert measured_ai(trace) == Fraction(64, 17)


def test_ai_invariant_to_problem_m():
    tile = TileConfig(8, 16, 8, 8)
    small = simulate_movement(ProblemSpec(16, 16, 16), tile, UNIT)
    big = simulate_movement(ProblemSpec(32, 16, 16), tile, UNIT)
    assert measured_ai(small) == measured_ai(big)
    assert big.total_bytes == 2 * small.total_bytes


def test_oracle_equivalence_randomized():
    assert verify_movement_equivalence(60, seed=7) == []


def test_output_written_once():
    rng = random.Random(11)
    for _ in range(10):
        problem, tile, prec = random_divisible_case(rng)
        trace = simulate_movement(problem, tile, prec)
        assert trace.bytes_c == prec.byte_cost_c * problem.m * problem.n
        assert trace.flops == 2 * problem.m * problem.k * problem.n
