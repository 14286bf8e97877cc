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

Both products are register-blocked the way the paper's VMAC is, one level
further: a block of four rows of the first operand and a group of
:data:`~asymtile.arch.MICROTILE` adjacent output columns keep their 4 x 8
accumulators in 32 locals while the contraction is walked, each step
unpacking four A values and one tuple of B lanes, and each accumulator
taking one term per step in ascending order. :func:`naive_gemm` walks the
whole contraction in one pass, pads the first operand with zero rows up to
a multiple of four and drops their outputs, and finishes the
``n % MICROTILE`` columns past its last full group with plain dot
products. :func:`tiled_gemm` walks it one staged panel at a time; its
blocks cover each ``t_ma``-row slice exactly because ``t_ma`` is a
multiple of ``MICROTILE`` and 4 divides ``MICROTILE``. Both kernels unpack
4 x 8 locals, so they hold only while ``MICROTILE`` is 8. The two kernel
bodies are kept apart on purpose: :func:`naive_gemm` is the oracle
:func:`tiled_gemm` is checked against, so a shared body would hide a bug
in both.
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

    Rows of ``a`` are walked four at a time, once per group of
    :data:`~asymtile.arch.MICROTILE` adjacent output columns, with the
    block's 4 x 8 accumulators in locals; ``b`` is regrouped once into
    per-row tuples of those columns. ``a`` is padded with zero rows up to a
    multiple of four and the padded rows' outputs are dropped, so nothing
    computed from the padding reaches the result. The ``n % MICROTILE``
    columns past the last full group are plain dot products of each row
    with a column of ``b``. Either way every output sums the same terms in
    the same order, and the whole contraction is one pass, so this never
    shares the tiled nest."""
    if a.cols != b.rows:
        raise ConfigError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    m, k, n = a.rows, a.cols, b.cols
    full = n - n % MICROTILE
    groups = [
        [b.data[row * n + g : row * n + g + MICROTILE] for row in range(k)]
        for g in range(0, full, MICROTILE)
    ]
    rest = [b.data[j::n] for j in range(full, n)]
    data = a.data + (0.0,) * (-m % 4 * k)
    out: list[float] = []
    for i in range(0, m, 4):
        arows = [data[(i + r) * k : (i + r + 1) * k] for r in range(4)]
        orows: list[list[float]] = [[], [], [], []]
        for group in groups:
            c0 = c1 = c2 = c3 = c4 = c5 = c6 = c7 = 0.0
            d0 = d1 = d2 = d3 = d4 = d5 = d6 = d7 = 0.0
            e0 = e1 = e2 = e3 = e4 = e5 = e6 = e7 = 0.0
            f0 = f1 = f2 = f3 = f4 = f5 = f6 = f7 = 0.0
            for w, x, y, z, (b0, b1, b2, b3, b4, b5, b6, b7) in zip(*arows, group):
                c0 += w * b0
                c1 += w * b1
                c2 += w * b2
                c3 += w * b3
                c4 += w * b4
                c5 += w * b5
                c6 += w * b6
                c7 += w * b7
                d0 += x * b0
                d1 += x * b1
                d2 += x * b2
                d3 += x * b3
                d4 += x * b4
                d5 += x * b5
                d6 += x * b6
                d7 += x * b7
                e0 += y * b0
                e1 += y * b1
                e2 += y * b2
                e3 += y * b3
                e4 += y * b4
                e5 += y * b5
                e6 += y * b6
                e7 += y * b7
                f0 += z * b0
                f1 += z * b1
                f2 += z * b2
                f3 += z * b3
                f4 += z * b4
                f5 += z * b5
                f6 += z * b6
                f7 += z * b7
            orows[0] += c0, c1, c2, c3, c4, c5, c6, c7
            orows[1] += d0, d1, d2, d3, d4, d5, d6, d7
            orows[2] += e0, e1, e2, e3, e4, e5, e6, e7
            orows[3] += f0, f1, f2, f3, f4, f5, f6, f7
        for arow, orow in zip(arows, orows):
            for col in rest:
                s = 0.0
                for u, v in zip(arow, col):
                    s += u * v
                orow.append(s)
            out += orow
    return Matrix(m, n, tuple(out[: m * n]))


class _Executor:
    """Numeric payload for :func:`walk_nest`: real operand data staged and
    multiplied at each event, into a resident output accumulator.

    The update is a register-blocked microkernel of 4 A rows by
    :data:`~asymtile.arch.MICROTILE` output lanes (the VMAC's). Each staged
    B panel is cut into groups of ``MICROTILE`` columns; ``t_n`` is a
    multiple of it, so the groups cover it exactly. Each staged A slice is
    cut into blocks of four rows; ``t_ma`` is a multiple of ``MICROTILE``,
    and 4 divides ``MICROTILE``, so the blocks cover it exactly too. For
    each block and group the 32 accumulators live in locals for the whole
    stage, take one term per contraction step in ascending order, and are
    kept between stages as one 32-tuple, which :meth:`write_c` unpacks into
    the output rows."""

    def __init__(self, a: Matrix, b: Matrix, tile: TileConfig) -> None:
        self.a, self.b = a, b
        self.t_ma, self.t_mc, self.t_k, self.t_n = tile.as_tuple()
        self.out = [0.0] * (a.rows * b.cols)
        self.zero = [(0.0,) * (4 * MICROTILE)] * (self.t_n // MICROTILE)
        self.acc = [list(self.zero) for _ in range(self.t_mc // 4)]
        self.groups: list[list[tuple[float, ...]]] = []

    def stage_b(self, i: int, j: int, kk: int) -> None:
        n, k0, j0, t_n = self.b.cols, kk * self.t_k, j * self.t_n, self.t_n
        panel = [
            self.b.data[row * n + j0 : row * n + j0 + t_n]
            for row in range(k0, k0 + self.t_k)
        ]
        self.groups = [
            [brow[g : g + MICROTILE] for brow in panel] for g in range(0, t_n, MICROTILE)
        ]

    def stage_a(self, i: int, j: int, kk: int, r: int) -> None:
        t_ma, t_k, k, data = self.t_ma, self.t_k, self.a.cols, self.a.data
        row0, k0 = i * self.t_mc + r * t_ma, kk * t_k
        for blk in range(0, t_ma, 4):
            start = (row0 + blk) * k + k0
            arows = [data[s : s + t_k] for s in range(start, start + 4 * k, k)]
            accs = self.acc[(r * t_ma + blk) // 4]
            for gi, group in enumerate(self.groups):
                (
                    c0, c1, c2, c3, c4, c5, c6, c7,
                    d0, d1, d2, d3, d4, d5, d6, d7,
                    e0, e1, e2, e3, e4, e5, e6, e7,
                    f0, f1, f2, f3, f4, f5, f6, f7,
                ) = accs[gi]
                for w, x, y, z, (b0, b1, b2, b3, b4, b5, b6, b7) in zip(*arows, group):
                    c0 += w * b0
                    c1 += w * b1
                    c2 += w * b2
                    c3 += w * b3
                    c4 += w * b4
                    c5 += w * b5
                    c6 += w * b6
                    c7 += w * b7
                    d0 += x * b0
                    d1 += x * b1
                    d2 += x * b2
                    d3 += x * b3
                    d4 += x * b4
                    d5 += x * b5
                    d6 += x * b6
                    d7 += x * b7
                    e0 += y * b0
                    e1 += y * b1
                    e2 += y * b2
                    e3 += y * b3
                    e4 += y * b4
                    e5 += y * b5
                    e6 += y * b6
                    e7 += y * b7
                    f0 += z * b0
                    f1 += z * b1
                    f2 += z * b2
                    f3 += z * b3
                    f4 += z * b4
                    f5 += z * b5
                    f6 += z * b6
                    f7 += z * b7
                accs[gi] = (
                    c0, c1, c2, c3, c4, c5, c6, c7,
                    d0, d1, d2, d3, d4, d5, d6, d7,
                    e0, e1, e2, e3, e4, e5, e6, e7,
                    f0, f1, f2, f3, f4, f5, f6, f7,
                )

    def write_c(self, i: int, j: int) -> None:
        t_mc, t_n, n = self.t_mc, self.t_n, self.b.cols
        for blk in range(0, t_mc, 4):
            accs = self.acc[blk // 4]
            for r in range(4):
                start = (i * t_mc + blk + r) * n + j * t_n
                lanes = slice(r * MICROTILE, (r + 1) * MICROTILE)
                self.out[start : start + t_n] = [v for acc in accs for v in acc[lanes]]
            self.acc[blk // 4] = list(self.zero)


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
    row-subtile slices, updating one 4 x 8 accumulator block per four A
    rows and group. Each output takes the same terms as :func:`naive_gemm`,
    in ascending contraction order, so the result equals :func:`naive_gemm`
    bitwise.
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
