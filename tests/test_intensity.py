from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymtile.arch import PRECISION_PRESETS, ConfigError, PrecisionSpec, TileConfig
from asymtile.intensity import ai_array, ai_tile

UNIT = PrecisionSpec(1, 1, 1)


def test_symmetric_dims_give_two():
    # cost 2 everywhere, dims 6 everywhere: 2 / (3 * (2/6)) = 2.
    prec = PrecisionSpec(2, 2, 2)
    r = ai_tile(6, 6, 6, prec)
    assert r.ai == 2


def test_unit_cost_example():
    # 2 / (1/8 + 1/16 + 1/32) = 64/7
    r = ai_tile(16, 8, 32, UNIT)
    assert r.ai == Fraction(64, 7)


def test_reference_array_intensity():
    # (512, 1024) output tile over K=4096 under mixed costs (2, 5/4, 2):
    # 2 / (2/1024 + 1.25/512 + 2/4096) = 409.6
    tile = TileConfig(32, 128, 64, 128)
    r = ai_array(tile, 4096, PRECISION_PRESETS["config1"])
    assert r.ai == Fraction(2048, 5)
    assert float(r.ai) == pytest.approx(409.6)


def test_invalid_dims_raise():
    # The count-field rule: a float or a bool is not a dimension, so neither
    # is rounded or read as 1.
    cases = [
        ((0, 8, 8), "t_mc must be >= 1, got 0"),
        ((8, 8, -1), "k must be >= 1, got -1"),
        ((8.5, 8, 8), "t_mc must be an integer, got 8.5"),
        ((8, True, 8), "t_n must be an integer, got True"),
        ((8, 8, 0), "k must be >= 1, got 0"),
    ]
    for dims, message in cases:
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ai_tile(*dims, UNIT)


@given(
    t_mc=st.integers(1, 64).map(lambda v: 8 * v),
    t_n=st.integers(1, 64).map(lambda v: 8 * v),
    k=st.integers(1, 64).map(lambda v: 64 * v),
    t_k=st.integers(1, 8).map(lambda v: 64 * v),
    rho=st.sampled_from([1, 2, 4, 8]),
)
def test_invariant_to_t_k_and_rho(t_mc, t_n, k, t_k, rho):
    # The closed form depends only on (t_mc, t_n, k): the reduction tile depth
    # and the A-slice asymmetry drop out of the traffic ratio.
    prec = PRECISION_PRESETS["config1"]
    if t_mc % rho != 0 or (t_mc // rho) % 8 != 0:
        return
    tile_a = TileConfig(t_mc // rho, t_mc, t_k, t_n)
    tile_b = TileConfig(t_mc, t_mc, 512, t_n)
    assert ai_array(tile_a, k, prec).ai == ai_array(tile_b, k, prec).ai
    assert ai_tile(t_mc, t_n, k, prec).ai == Fraction(2) / (
        prec.byte_cost_a / t_n + prec.byte_cost_b / t_mc + prec.byte_cost_c / k
    )


@given(
    t_mc=st.integers(1, 64).map(lambda v: 8 * v),
    t_n=st.integers(1, 64).map(lambda v: 8 * v),
    k=st.integers(1, 64).map(lambda v: 64 * v),
)
def test_monotone_in_every_dim(t_mc, t_n, k):
    prec = PRECISION_PRESETS["config2"]
    base = ai_tile(t_mc, t_n, k, prec).ai
    assert ai_tile(2 * t_mc, t_n, k, prec).ai > base
    assert ai_tile(t_mc, 2 * t_n, k, prec).ai > base
    assert ai_tile(t_mc, t_n, 2 * k, prec).ai > base
