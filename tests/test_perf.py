import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ConfigError,
    ProblemSpec,
    TileConfig,
)
from asymtile.perf import (
    BOUND_COMPUTE,
    BOUND_MEMORY,
    EFF_MICRO_CALIBRATION,
    EFF_SOURCE_CALIBRATION,
    calibrated_eff_micro,
    eff_core,
    eff_scorer,
    perf_array,
)
from asymtile.pipeline import DEFAULT_MICROKERNEL

REF_TILE = TileConfig(32, 128, 64, 128)


def _slab_cycles(tile, k, eff_micro, arch=DEFAULT_ARCH):
    # One core's t_mc x k x t_n slab: eff_core is its compute cycles at peak
    # over its total cycles, so dividing the former by eff_core gives the total.
    at_peak = Fraction(2 * tile.t_mc * k * tile.t_n, arch.peak_flops_per_cycle)
    return at_peak / eff_core(tile, eff_micro, arch)


def test_t_asym_reference_value():
    total = _slab_cycles(REF_TILE, 4096, 0.63)
    assert float(total) == pytest.approx(220_851, abs=1)
    # switch side alone: 50 cycles x 4 launches x 64 contraction steps
    arch0 = DEFAULT_ARCH._replace(switch_overhead_delta=0)
    assert total - _slab_cycles(REF_TILE, 4096, 0.63, arch0) == 12_800


def test_t_asym_exact_rational():
    total = _slab_cycles(REF_TILE, 4096, Fraction(63, 100))
    assert total == Fraction(2 * 128 * 4096 * 128 * 100, 1024 * 63) + 12_800


def test_t_asym_switch_term_linear_in_rho():
    arch0 = DEFAULT_ARCH._replace(switch_overhead_delta=0)
    flat = TileConfig(128, 128, 64, 128)
    split = TileConfig(32, 128, 64, 128)
    base = _slab_cycles(flat, 4096, 0.5, arch0)
    assert _slab_cycles(flat, 4096, 0.5) - base == 50 * 1 * 64
    assert _slab_cycles(split, 4096, 0.5) - base == 50 * 4 * 64


def test_eff_core_validation():
    with pytest.raises(ConfigError):
        eff_core(REF_TILE, 0.0)
    with pytest.raises(ConfigError):
        eff_core(REF_TILE, 1.5)


def test_eff_core_reference_value():
    tile = TileConfig(128, 512, 64, 128)
    val = eff_core(tile, 0.63)
    assert float(val) == pytest.approx(0.6204, abs=1e-3)
    assert float(val) >= 0.511  # optimistic bound over the measured machine


def test_eff_core_no_overhead_is_identity():
    arch0 = DEFAULT_ARCH._replace(switch_overhead_delta=0)
    assert eff_core(REF_TILE, Fraction(63, 100), arch0) == Fraction(63, 100)


def test_eff_core_decreases_in_rho():
    vals = [
        eff_core(TileConfig(512 // rho, 512, 64, 128), 0.63) for rho in (1, 2, 4, 8, 16)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_eff_core_increases_in_t_k():
    vals = [
        eff_core(TileConfig(32, 128, t_k, 128), calibrated_eff_micro(t_k))
        for t_k in (8, 16, 24, 32, 48, 64, 96, 128)
    ]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@settings(max_examples=50)
@given(
    t_ma=st.sampled_from([8, 16, 32, 64]),
    rho=st.sampled_from([1, 2, 4, 8]),
    t_k=st.sampled_from([8, 16, 32, 64, 128]),
    t_n=st.sampled_from([8, 64, 128, 256]),
    eff_num=st.integers(1, 100),
)
def test_eff_core_never_exceeds_eff_micro(t_ma, rho, t_k, t_n, eff_num):
    eff = Fraction(eff_num, 100)
    val = eff_core(TileConfig(t_ma, t_ma * rho, t_k, t_n), eff)
    assert 0 < val <= eff


@settings(max_examples=100)
@given(
    t_ma=st.sampled_from([8, 16, 32, 64]),
    rhos=st.lists(st.sampled_from([1, 2, 3, 4, 8, 16]), min_size=2, max_size=2),
    t_k=st.sampled_from([8, 16, 32, 64, 128]),
    t_n=st.sampled_from([8, 64, 128, 256]),
    eff=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda f: f > 0),
    delta=st.integers(0, 10_000),
    peak_macs=st.integers(1, 4096),
)
def test_eff_core_is_one_launch_form_free_of_t_mc(t_ma, rhos, t_k, t_n, eff, delta, peak_macs):
    # Per launch: w = 2·t_ma·t_n·t_k flops at eff = p/q plus one switch of
    # s = delta·peak flops. Per step (rho launches): rho·w flops and rho·s
    # flops of switching. Both give the same rational, so t_mc = rho·t_ma
    # may change with t_ma, t_k and t_n fixed and eff_core must not.
    arch = DEFAULT_ARCH._replace(switch_overhead_delta=delta, peak_macs_per_cycle=peak_macs)
    p, q = eff.numerator, eff.denominator
    w = 2 * t_ma * t_n * t_k
    s = delta * arch.peak_flops_per_cycle
    want = Fraction(p * w, q * w + p * s)
    for rho in rhos:
        assert Fraction(p * rho * w, q * rho * w + p * rho * s) == want
        assert eff_core(TileConfig(t_ma, rho * t_ma, t_k, t_n), eff, arch) == want


def test_rho_degradation_amortized_by_t_k():
    def drop(t_k: int) -> Fraction:
        eff = calibrated_eff_micro(t_k)
        lo = eff_core(TileConfig(128, 128, t_k, 128), eff)
        hi = eff_core(TileConfig(16, 128, t_k, 128), eff)
        return 1 - hi / lo

    assert float(drop(8)) == pytest.approx(0.208, abs=2e-3)
    assert float(drop(64)) == pytest.approx(0.096, abs=2e-3)
    drops = [drop(t_k) for t_k in (8, 16, 32, 64)]
    assert all(a > b for a, b in zip(drops, drops[1:]))


def test_calibration_table():
    for t_k, want in EFF_MICRO_CALIBRATION.items():
        assert calibrated_eff_micro(t_k) == want
    assert calibrated_eff_micro(4) == Fraction(1, 5)
    assert calibrated_eff_micro(512) == Fraction(63, 100)
    assert calibrated_eff_micro(48) == Fraction(41, 100) + Fraction(63 - 41, 100) / 2
    # True hashes equal to 1, so it must not be served 1's cached entry.
    assert calibrated_eff_micro(1) == Fraction(1, 5)
    for t_k, message in [(0, "t_k must be >= 1, got 0"), (12.5, "t_k must be an integer, got 12.5"),
                         (True, "t_k must be an integer, got True")]:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            calibrated_eff_micro(t_k)


def test_resolve_sources():
    def score(source):
        return eff_scorer(source)(REF_TILE, DEFAULT_MICROKERNEL)

    assert score(EFF_SOURCE_CALIBRATION) == Fraction(63, 100)
    closed = score("closed_form")
    assert closed == Fraction(8, 25)
    simulated = score("simulated")
    assert 0 < simulated <= closed
    message = "unknown eff_source 'guesswork'; expected one of ('calibration', 'closed_form', 'simulated')"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        score("guesswork")


def test_perf_reference_memory_bound_row():
    est = perf_array(
        REF_TILE,
        ProblemSpec(4096, 4096, 2048),
        PRECISION_PRESETS["config1"],
        eff_micro=0.63,
    )
    assert est.feasible
    assert est.ai_array == Fraction(2048, 5)
    assert est.memory_bound == pytest.approx(26.624e12)
    assert est.compute_bound > est.memory_bound
    assert est.perf_array == est.memory_bound
    assert est.bound_kind == BOUND_MEMORY
    assert est.buffer_bytes == 61_440


def test_perf_reference_compute_bound_row():
    est = perf_array(
        TileConfig(32, 192, 128, 96),
        ProblemSpec(3072, 4096, 1536),
        PRECISION_PRESETS["config2"],
    )
    assert est.feasible
    assert est.memory_bound == pytest.approx(36.5e12, rel=0.02)
    assert est.bound_kind == BOUND_COMPUTE
    assert est.perf_array == est.compute_bound < est.memory_bound


def test_perf_infeasible_tile_is_flagged():
    est = perf_array(
        TileConfig(128, 128, 64, 128),
        ProblemSpec(4096, 4096, 2048),
        PRECISION_PRESETS["config1"],
        eff_micro=0.63,
    )
    assert not est.feasible
    assert est.buffer_bytes == 86_016
    assert est.perf_array == 0.0


def test_perf_unbounded_bandwidth_is_compute_bound():
    arch = DEFAULT_ARCH._replace(offchip_bw=1e30)
    est = perf_array(
        REF_TILE,
        ProblemSpec(4096, 4096, 2048),
        PRECISION_PRESETS["config1"],
        arch,
        eff_micro=0.63,
    )
    assert est.bound_kind == BOUND_COMPUTE
    assert est.perf_array == est.compute_bound


def test_perf_divisibility_rejected():
    with pytest.raises(ConfigError):
        perf_array(
            REF_TILE,
            ProblemSpec(4096, 4096, 2000),
            PRECISION_PRESETS["config1"],
            eff_micro=0.63,
        )
