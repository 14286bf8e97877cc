import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymtile.gemm
from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
)
from asymtile.gemm import (
    BFP_BLOCK,
    BFP_BYTES_PER_BLOCK,
    Bfp16Block,
    Matrix,
    bfp16_decode,
    bfp16_encode,
    bfp16_error_bound,
    naive_gemm,
    tiled_gemm,
)
from asymtile.movement import BufferOverflowError, simulate_movement, walk_nest

UNIT = PrecisionSpec(1, 1, 1, "unit")
ZERO16 = Matrix(16, 16, (0.0,) * 256)


def random_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(
        rows, cols, tuple(rng.uniform(-2, 2) for _ in range(rows * cols))
    )


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n)))


def signs(values) -> list[float]:
    return [math.copysign(1.0, v) for v in values]


def test_naive_identity():
    rng = random.Random(0)
    x = random_matrix(rng, 8, 8)
    assert naive_gemm(identity(8), x).data == x.data


def reference_row_update_gemm(a: Matrix, b: Matrix) -> list[float]:
    # The row-update loop naive_gemm replaced: each output row gains
    # a[i][kk] * b[kk][:] for ascending kk.
    out = [[0.0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for kk in range(a.cols):
            av, brow = a.data[i * a.cols + kk], b.data[kk * b.cols : (kk + 1) * b.cols]
            for j in range(b.cols):
                out[i][j] += av * brow[j]
    return [v for row in out for v in row]


@settings(max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 17), st.integers(1, 6), st.integers(1, 20)),
    data=st.data(),
)
def test_naive_dot_products_equal_row_updates_bitwise(shape, data):
    # Same terms in the same order, so every float is identical, even with
    # magnitudes far enough apart that the order of the additions matters.
    # m up to 17 gives an 8-row block padded with one to seven zero rows,
    # one full block, two full blocks and two full blocks plus a padded
    # one. n up to 20 is zero to two full 8-lane groups plus zero to seven
    # remainder columns. Zeros of both signs, drawn about one time in four
    # so most terms stay nonzero, show an accumulator that does not start
    # at 0.0.
    m, k, n = shape
    floats = st.floats(-1e16, 1e16, allow_nan=False, allow_infinity=False)
    values = st.one_of(floats, floats, floats, st.sampled_from((0.0, -0.0)))
    a = Matrix(m, k, tuple(data.draw(st.lists(values, min_size=m * k, max_size=m * k))))
    b = Matrix(k, n, tuple(data.draw(st.lists(values, min_size=k * n, max_size=k * n))))
    got = naive_gemm(a, b).data
    want = reference_row_update_gemm(a, b)
    assert signs(got) == signs(want)
    assert list(got) == want


def test_naive_padding_rows_never_reach_the_result():
    # The seven zero rows that pad m = 1 or m = 9 to a whole number of 8-row
    # blocks meet inf in b, so their outputs are NaN (0.0 * inf); they must
    # be dropped, not returned.
    inf = math.inf
    b = Matrix(2, 9, (1.0, inf, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, inf) + (1.0,) * 9)
    for m in (1, 9):
        got = naive_gemm(Matrix(m, 2, (2.0, -1.0) * m), b).data
        assert got == (1.0, inf, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, inf) * m


def test_naive_one_by_one():
    assert naive_gemm(Matrix(1, 1, (3.0,)), Matrix(1, 1, (4.0,))).data == (12.0,)


def test_naive_shape_mismatch():
    with pytest.raises(ConfigError):
        naive_gemm(Matrix(2, 3, (0.0,) * 6), Matrix(4, 2, (0.0,) * 8))


def test_matrix_validation():
    with pytest.raises(ConfigError):
        Matrix(2, 2, (1.0, 2.0, 3.0))
    with pytest.raises(ConfigError):
        Matrix(0, 2, ())


def test_matrix_dims_must_be_ints():
    with pytest.raises(ConfigError, match=r"^rows must be an integer, got 2\.0$"):
        Matrix(2.0, 2, (1.0, 2.0, 3.0, 4.0))
    with pytest.raises(ConfigError, match="^rows must be an integer, got True$"):
        Matrix(True, 1, (1.0,))


def test_tiled_matches_naive_exactly():
    rng = random.Random(1)
    a = random_matrix(rng, 16, 16)
    b = random_matrix(rng, 16, 16)
    tile = TileConfig(8, 16, 8, 8)
    got, trace = tiled_gemm(a, b, tile, buffer_footprint(tile, UNIT), UNIT)
    want = naive_gemm(a, b)
    assert got.data == want.data
    assert trace.total_bytes == 1024


def test_trace_matches_movement_sim():
    rng = random.Random(2)
    prec = PRECISION_PRESETS["config2"]
    tile = TileConfig(8, 32, 8, 16)
    a = random_matrix(rng, 64, 32)
    b = random_matrix(rng, 32, 32)
    _, trace = tiled_gemm(a, b, tile, DEFAULT_ARCH.l1_capacity, prec)
    expected = simulate_movement(ProblemSpec(64, 32, 32), tile, prec)
    assert trace == expected


def test_capacity_one_under_footprint_overflows():
    rng = random.Random(3)
    a = random_matrix(rng, 16, 16)
    b = random_matrix(rng, 16, 16)
    tile = TileConfig(8, 16, 8, 8)
    cap = buffer_footprint(tile, UNIT)
    with pytest.raises(BufferOverflowError, match="^tile buffers need 384 B, over capacity 383 B$"):
        tiled_gemm(a, b, tile, cap - 1, UNIT)


def test_tiny_capacity_overflows():
    tile = TileConfig(8, 16, 8, 8)
    with pytest.raises(BufferOverflowError, match="^tile buffers need 384 B, over capacity 1 B$"):
        tiled_gemm(ZERO16, ZERO16, tile, 1, UNIT)


def test_zero_matrices_still_write_output():
    tile = TileConfig(8, 16, 8, 8)
    out, trace = tiled_gemm(
        ZERO16, ZERO16, tile, buffer_footprint(tile, UNIT), UNIT
    )
    assert all(v == 0.0 for v in out.data)
    assert trace.bytes_c == 16 * 16


def test_tiled_divisibility_rejected():
    with pytest.raises(ConfigError):
        tiled_gemm(Matrix(20, 16, (0.0,) * 320), ZERO16, TileConfig(8, 16, 8, 8), 10**6, UNIT)


def wide_value(rng: random.Random) -> float:
    # Magnitudes up to 1e16, far enough apart that the order of the additions
    # changes the rounded sum, plus zeros of both signs.
    if rng.random() < 0.1:
        return rng.choice((0.0, -0.0))
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-2, 16)


def test_tiled_equivalence_randomized():
    # t_n from 8 to 40 is one to five 8-lane groups and rho runs to 8; the
    # result must be naive_gemm's, float for float and sign for sign.
    rng = random.Random(4)
    for _ in range(40):
        t_ma = 8 * rng.randint(1, 2)
        tile = TileConfig(
            t_ma,
            t_ma * rng.choice([1, 2, 4, 8]),
            8 * rng.randint(1, 3),
            8 * rng.randint(1, 5),
        )
        m = tile.t_mc * rng.randint(1, 2)
        k = tile.t_k * rng.randint(1, 2)
        n = tile.t_n * rng.randint(1, 2)
        a = Matrix(m, k, tuple(wide_value(rng) for _ in range(m * k)))
        b = Matrix(k, n, tuple(wide_value(rng) for _ in range(k * n)))
        got, trace = tiled_gemm(a, b, tile, 10**9, UNIT)
        want = naive_gemm(a, b)
        assert got.data == want.data
        assert signs(got.data) == signs(want.data)
        assert trace.peak_l1_occupancy == buffer_footprint(tile, UNIT)
        assert trace == simulate_movement(ProblemSpec(m, k, n), tile, UNIT)


def test_tiled_eight_row_blocks_across_subtiles_match_naive():
    # t_ma 16 is two 8-row blocks per A slice and rho 8 is eight slices per
    # output tile; two output tiles per dim and two contraction steps make
    # every block's accumulators carry over stages and be reset per tile.
    rng = random.Random(6)
    tile = TileConfig(16, 128, 8, 16)
    m, k, n = 2 * tile.t_mc, 2 * tile.t_k, 2 * tile.t_n
    a = Matrix(m, k, tuple(wide_value(rng) for _ in range(m * k)))
    b = Matrix(k, n, tuple(wide_value(rng) for _ in range(k * n)))
    got, trace = tiled_gemm(a, b, tile, 10**9, UNIT)
    want = naive_gemm(a, b)
    assert got.data == want.data
    assert signs(got.data) == signs(want.data)
    assert trace == simulate_movement(ProblemSpec(m, k, n), tile, UNIT)


def test_tiled_non_finite_matches_naive():
    # inf times 0.0 is NaN, and inf and NaN spread along their rows and
    # columns; across two lane groups and two output tiles per dim, NaN and
    # inf must land exactly where naive_gemm puts them.
    inf, nan = math.inf, math.nan
    rng = random.Random(5)
    a_rows = [[rng.uniform(-2, 2) for _ in range(16)] for _ in range(32)]
    b_rows = [[rng.uniform(-2, 2) for _ in range(32)] for _ in range(16)]
    a_rows[0][1] = inf
    a_rows[20][0] = -inf
    b_rows[1][4] = 0.0
    b_rows[2][11] = nan
    b_rows[13][27] = -inf
    a = Matrix(32, 16, tuple(v for row in a_rows for v in row))
    b = Matrix(16, 32, tuple(v for row in b_rows for v in row))
    tile = TileConfig(8, 16, 8, 16)
    got, _ = tiled_gemm(a, b, tile, 10**9, UNIT)
    want = naive_gemm(a, b)
    assert [math.isnan(v) for v in got.data] == [math.isnan(v) for v in want.data]
    assert [v for v in got.data if not math.isnan(v)] == [
        v for v in want.data if not math.isnan(v)
    ]
    assert any(math.isnan(v) for v in want.data)
    assert any(math.isinf(v) for v in want.data)
    assert any(math.isfinite(v) for v in want.data)


class FaultyEvents:
    """Payload proxy that hands the walker's events to the executor, but
    drops one ``stage_a`` or one ``stage_b`` event, or repeats one whole
    contraction step, all in output tile (0, 0) at step 1."""

    def __init__(self, executor, fault, rho):
        self.executor, self.fault, self.rho = executor, fault, rho

    def stage_b(self, i, j, kk):
        if self.fault != "drop stage_b" or (i, j, kk) != (0, 0, 1):
            self.executor.stage_b(i, j, kk)

    def stage_a(self, i, j, kk, r):
        if self.fault == "drop stage_a" and (i, j, kk, r) == (0, 0, 1, 0):
            return
        self.executor.stage_a(i, j, kk, r)
        if self.fault == "repeat step" and (i, j, kk, r) == (0, 0, 1, self.rho - 1):
            self.executor.stage_b(i, j, kk)
            for again in range(self.rho):
                self.executor.stage_a(i, j, kk, again)

    def write_c(self, i, j):
        self.executor.write_c(i, j)


@pytest.mark.parametrize("fault", [None, "drop stage_a", "drop stage_b", "repeat step"])
def test_tiled_computes_from_the_walks_events(monkeypatch, fault):
    # The executor cuts its operand panels before the walk, but it must
    # multiply what the walker stages, when it stages it: one event dropped
    # or one contraction step repeated must change the product. An executor
    # that worked each output tile out from its panels in write_c would
    # still match naive_gemm here. With no fault the proxy changes nothing.
    rng = random.Random(7)
    a = random_matrix(rng, 32, 16)
    b = random_matrix(rng, 16, 16)
    tile = TileConfig(8, 16, 8, 8)

    def faulty_walk(problem, tile, prec, *, capacity, payload):
        proxy = FaultyEvents(payload, fault, tile.rho)
        return walk_nest(problem, tile, prec, capacity=capacity, payload=proxy)

    monkeypatch.setattr(asymtile.gemm, "walk_nest", faulty_walk)
    got, _ = tiled_gemm(a, b, tile, 10**9, UNIT)
    assert (got.data == naive_gemm(a, b).data) is (fault is None)


# -- block floating point ------------------------------------------------------

def test_bfp16_all_zeros():
    block = bfp16_encode([0.0] * 8)
    assert block.shared_exponent == 0
    assert block.mantissas == (0,) * 8
    assert bfp16_decode(block) == [0.0] * 8


def test_bfp16_eight_ones_exact():
    block = bfp16_encode([1.0] * 8)
    assert block.shared_exponent == 128
    assert block.mantissas == (64,) * 8
    assert bfp16_decode(block) == [1.0] * 8


def test_bfp16_powers_of_two_exact():
    for t in (-6, -1, 0, 3, 10):
        vals = [float(2**t if t >= 0 else 2.0**t)] * 8
        assert bfp16_decode(bfp16_encode(vals)) == vals


def test_bfp16_block_is_nine_bytes():
    block = bfp16_encode([0.5, -1.25, 3.0, 0.0, 2.0, -0.125, 1.0, 0.75])
    raw = block.to_bytes()
    assert len(raw) == BFP_BYTES_PER_BLOCK
    assert Bfp16Block.from_bytes(raw) == block


def test_packed_preset_costs_one_codec_block_per_eight_values():
    prec = PRECISION_PRESETS["config2_packed"]
    block = bfp16_encode([1.0] * BFP_BLOCK)
    cost = Fraction(len(block.to_bytes()), len(block.mantissas))
    assert cost == Fraction(9, 8)
    assert (prec.byte_cost_a, prec.byte_cost_b, prec.byte_cost_c) == (cost,) * 3


def test_bfp16_rejects_non_finite():
    with pytest.raises(ConfigError):
        bfp16_encode([float("nan")] + [0.0] * 7)
    with pytest.raises(ConfigError):
        bfp16_encode([float("inf")] + [0.0] * 7)


def test_bfp16_rejects_wrong_length():
    with pytest.raises(ConfigError):
        bfp16_encode([1.0] * 7)


def test_bfp16_roundtrip_bound_random_blocks():
    rng = random.Random(6)
    for _ in range(10_000):
        scale = 10.0 ** rng.randint(-6, 6)
        vals = [rng.uniform(-scale, scale) for _ in range(8)]
        block = bfp16_encode(vals)
        decoded = bfp16_decode(block)
        bound = bfp16_error_bound(block)
        assert all(abs(v - d) <= bound for v, d in zip(vals, decoded))


@settings(max_examples=60)
@given(
    st.lists(
        st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        min_size=8,
        max_size=8,
    )
)
def test_bfp16_exponent_is_minimal(vals):
    block = bfp16_encode(vals)
    if block.shared_exponent > 0 and any(v != 0.0 for v in vals):
        smaller = block.shared_exponent - 1
        scale = math.ldexp(1.0, smaller - 127 - 7)
        fits = all(-128 <= round(v / scale) <= 127 for v in vals)
        assert not fits
