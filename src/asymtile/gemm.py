"""Functional tiled GEMM: the numeric payload of the loop-nest walker.

:func:`tiled_gemm` computes real matrix products by riding
``asymtile.movement.walk_nest``, the same nest the movement oracle counts:
row-subtile slices of the first operand, full contraction panels of the
second, an output tile accumulated in place. The walker owns the nest, the
capacity check and the byte trace, so a numeric run proves the schedule
computes the right answer and yields the very trace the oracle does. A
block-floating-point codec (``BFP_BLOCK`` = 8 values sharing one exponent
byte, ``BFP_BYTES_PER_BLOCK`` = 9 bytes per block) sits beside it. Both
constants live in ``asymtile.arch``, whose ``config2_packed`` preset takes
its 9/8 byte cost from them.

Both products are register-blocked the way the paper's VMAC is: a group of
:data:`~asymtile.arch.MICROTILE` adjacent output columns keeps its
accumulators in eight locals while one row of the first operand is walked
along the contraction, each accumulator taking one term per step in
ascending order. :func:`naive_gemm` walks the whole contraction in one
pass and finishes the ``n % MICROTILE`` columns past its last full group
with plain dot products; :func:`tiled_gemm` walks it one staged panel at a
time. Both kernels unpack eight locals, so they hold only while
``MICROTILE`` is 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from asymtile.arch import (
    BFP_BLOCK,
    BFP_BYTES_PER_BLOCK,
    MICROTILE,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    require_ints,
)
from asymtile.movement import MovementTrace, walk_nest


@dataclass(frozen=True)
class Matrix:
    """Dense row-major real matrix."""

    rows: int
    cols: int
    data: tuple[float, ...]

    def __post_init__(self) -> None:
        require_ints(self, ("rows", "cols"), 1)
        if len(self.data) != self.rows * self.cols:
            raise ConfigError(
                f"data length {len(self.data)} != rows*cols = {self.rows * self.cols}"
            )


def naive_gemm(a: Matrix, b: Matrix) -> Matrix:
    """Reference product: per output element, terms added in ascending
    contraction order into an accumulator that starts at ``0.0``.

    Each row of ``a`` is walked once per group of
    :data:`~asymtile.arch.MICROTILE` adjacent output columns, with the
    group's accumulators in locals; ``b`` is regrouped once into per-row
    tuples of those columns. The ``n % MICROTILE`` columns past the last
    full group are plain dot products of the row with a column of ``b``.
    Either way every output sums the same terms in the same order, and the
    whole contraction is one pass, so this never shares the tiled nest."""
    if a.cols != b.rows:
        raise ConfigError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    k, n = a.cols, b.cols
    full = n - n % MICROTILE
    groups = [
        [b.data[row * n + g : row * n + g + MICROTILE] for row in range(k)]
        for g in range(0, full, MICROTILE)
    ]
    rest = [b.data[j::n] for j in range(full, n)]
    out: list[float] = []
    for i in range(a.rows):
        arow = a.data[i * k : (i + 1) * k]
        for group in groups:
            c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = 0.0
            for av, (b0, b1, b2, b3, b4, b5, b6, b7) in zip(arow, group):
                c0 += av * b0
                c1 += av * b1
                c2 += av * b2
                c3 += av * b3
                c4 += av * b4
                c5 += av * b5
                c6 += av * b6
                c7 += av * b7
            out += c0, c1, c2, c3, c4, c5, c6, c7
        for col in rest:
            s = 0.0
            for x, y in zip(arow, col):
                s += x * y
            out.append(s)
    return Matrix(a.rows, n, tuple(out))


class _Executor:
    """Numeric payload for :func:`walk_nest`: real operand data staged and
    multiplied at each event, into a resident output accumulator.

    The update is a register-blocked microkernel. Each staged B panel is cut
    into groups of :data:`~asymtile.arch.MICROTILE` columns (the VMAC's
    output lanes); ``t_n`` is a multiple of it, so the groups cover it
    exactly. For each A row and group, the group's accumulators live in
    locals for the whole stage, take one term per contraction step in
    ascending order, and are written back once."""

    def __init__(self, a: Matrix, b: Matrix, tile: TileConfig) -> None:
        self.a, self.b = a, b
        self.t_ma, self.t_mc, self.t_k, self.t_n = tile.as_tuple()
        self.out = [0.0] * (a.rows * b.cols)
        self.acc = [[0.0] * self.t_n for _ in range(self.t_mc)]
        self.groups: list[tuple[int, list[tuple[float, ...]]]] = []

    def stage_b(self, i: int, j: int, kk: int) -> None:
        n, k0, j0, t_n = self.b.cols, kk * self.t_k, j * self.t_n, self.t_n
        panel = [
            self.b.data[row * n + j0 : row * n + j0 + t_n]
            for row in range(k0, k0 + self.t_k)
        ]
        self.groups = [
            (g, [brow[g : g + MICROTILE] for brow in panel])
            for g in range(0, t_n, MICROTILE)
        ]

    def stage_a(self, i: int, j: int, kk: int, r: int) -> None:
        t_ma, t_k, k = self.t_ma, self.t_k, self.a.cols
        row0, k0 = i * self.t_mc + r * t_ma, kk * t_k
        for li in range(t_ma):
            start = (row0 + li) * k + k0
            arow = self.a.data[start : start + t_k]
            crow = self.acc[r * t_ma + li]
            for g, group in self.groups:
                c0, c1, c2, c3, c4, c5, c6, c7 = crow[g : g + MICROTILE]
                for av, (b0, b1, b2, b3, b4, b5, b6, b7) in zip(arow, group):
                    c0 += av * b0
                    c1 += av * b1
                    c2 += av * b2
                    c3 += av * b3
                    c4 += av * b4
                    c5 += av * b5
                    c6 += av * b6
                    c7 += av * b7
                crow[g : g + MICROTILE] = c0, c1, c2, c3, c4, c5, c6, c7

    def write_c(self, i: int, j: int) -> None:
        t_mc, t_n, n = self.t_mc, self.t_n, self.b.cols
        for li in range(t_mc):
            start = (i * t_mc + li) * n + j * t_n
            self.out[start : start + t_n] = self.acc[li]
            self.acc[li] = [0.0] * t_n


def tiled_gemm(
    a: Matrix,
    b: Matrix,
    tile: TileConfig,
    capacity: int,
    prec: PrecisionSpec,
) -> tuple[Matrix, MovementTrace]:
    """Compute ``a @ b`` through bounded staging buffers, returning the
    product and the byte trace of every transfer into them.

    The nest, the capacity check and the trace are :func:`walk_nest`'s, with
    the default architecture's buffers; this function only supplies the
    numbers. Per output tile the accumulator stays resident for the whole
    contraction; each step stages one panel of ``b``, cut into groups of
    :data:`~asymtile.arch.MICROTILE` columns, and then walks ``a`` in
    row-subtile slices, updating one accumulator block per A row and group. Each output takes
    the same terms as :func:`naive_gemm`, in ascending contraction order,
    so the result equals :func:`naive_gemm` bitwise.
    """
    if a.cols != b.rows:
        raise ConfigError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    executor = _Executor(a, b, tile)
    problem = ProblemSpec(a.rows, a.cols, b.cols)
    trace = walk_nest(problem, tile, prec, capacity=capacity, payload=executor)
    return Matrix(a.rows, b.cols, tuple(executor.out)), trace


# -- block floating point ------------------------------------------------------

BFP_EXP_BIAS = 127
BFP_MANTISSA_SHIFT = 7


@dataclass(frozen=True)
class Bfp16Block:
    """Eight signed 8-bit mantissas sharing one 8-bit exponent: 9 bytes."""

    shared_exponent: int
    mantissas: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.shared_exponent <= 255:
            raise ConfigError("shared exponent must fit 8 unsigned bits")
        if len(self.mantissas) != BFP_BLOCK:
            raise ConfigError(f"block holds exactly {BFP_BLOCK} mantissas")
        if any(not -128 <= v <= 127 for v in self.mantissas):
            raise ConfigError("mantissas must fit signed 8 bits")

    def to_bytes(self) -> bytes:
        return bytes([self.shared_exponent]) + bytes(v & 0xFF for v in self.mantissas)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Bfp16Block":
        if len(raw) != BFP_BYTES_PER_BLOCK:
            raise ConfigError(f"block is exactly {BFP_BYTES_PER_BLOCK} bytes")
        mantissas = tuple(v - 256 if v >= 128 else v for v in raw[1:])
        return cls(raw[0], mantissas)


def _bfp_scale_power(exponent: int) -> int:
    return exponent - BFP_EXP_BIAS - BFP_MANTISSA_SHIFT


def bfp16_encode(values) -> Bfp16Block:
    """Pack 8 finite reals into a shared-exponent block.

    The exponent is the smallest one whose scale lets every value round to a
    mantissa in [-128, 127]; mantissas are round-to-nearest, so each element's
    quantization error is at most half the block's scale step.
    """
    vals = [float(v) for v in values]
    if len(vals) != BFP_BLOCK:
        raise ConfigError(f"encode takes exactly {BFP_BLOCK} values")
    if any(not math.isfinite(v) for v in vals):
        raise ConfigError("non-finite value in block")
    if all(v == 0.0 for v in vals):
        return Bfp16Block(0, (0,) * BFP_BLOCK)
    _, exp2 = math.frexp(max(abs(v) for v in vals))
    e = max(0, exp2 + BFP_EXP_BIAS + BFP_MANTISSA_SHIFT - 8)
    while e <= 255:
        scale = math.ldexp(1.0, _bfp_scale_power(e))
        mantissas = [round(v / scale) for v in vals]
        if all(-128 <= mv <= 127 for mv in mantissas):
            return Bfp16Block(e, tuple(int(mv) for mv in mantissas))
        e += 1
    raise ConfigError("magnitude too large for a shared-exponent block")


def bfp16_decode(block: Bfp16Block) -> list[float]:
    scale_power = _bfp_scale_power(block.shared_exponent)
    return [math.ldexp(mv, scale_power) for mv in block.mantissas]


def bfp16_error_bound(block: Bfp16Block) -> float:
    """Largest possible per-element roundtrip error for this block's scale."""
    return math.ldexp(1.0, _bfp_scale_power(block.shared_exponent) - 1)
