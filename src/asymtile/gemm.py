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

Both products are register-blocked the way the paper's VMAC is: a block of
:data:`~asymtile.arch.MICROTILE` rows of the first operand and a group of
``MICROTILE`` adjacent output columns keep their 8 x 8 accumulators, one
VMAC output tile (``asymtile.pipeline.MICROTILE_OUT``), in 64 locals while
the contraction is walked, each step unpacking eight A values and one tuple
of B lanes, and each accumulator taking one term per step in ascending
order. :func:`naive_gemm` walks the whole contraction in one pass, pads the
first operand with zero rows up to a multiple of ``MICROTILE`` and drops
their outputs, and finishes the ``n % MICROTILE`` columns past its last
full group with plain dot products. :func:`tiled_gemm` cuts its operand
panels once per product and walks the contraction one staged panel at a
time; its blocks cover each ``t_ma``-row slice exactly because ``t_ma`` is
a multiple of ``MICROTILE``. Both kernels unpack 8 x 8 locals, so they hold
only while ``MICROTILE`` is 8. The two kernel bodies are kept apart on
purpose: :func:`naive_gemm` is the oracle :func:`tiled_gemm` is checked
against, so a shared body would hide a bug in both.
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

    Rows of ``a`` are walked :data:`~asymtile.arch.MICROTILE` at a time,
    once per group of ``MICROTILE`` adjacent output columns, with the
    block's 8 x 8 accumulators (one VMAC output tile) in locals; ``b`` is
    regrouped once into per-row tuples of those columns. ``a`` is padded
    with zero rows up to a multiple of ``MICROTILE`` and the padded rows'
    outputs are dropped, so nothing computed from the padding reaches the
    result. The ``n % MICROTILE`` columns past the last full group are plain
    dot products of each row with a column of ``b``. Either way every output
    sums the same terms in the same order, and the whole contraction is one
    pass, so this never shares the tiled nest. The block unpacks 8 x 8
    locals, so it holds only while ``MICROTILE`` is 8."""
    if a.cols != b.rows:
        raise ConfigError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    m, k, n = a.rows, a.cols, b.cols
    full = n - n % MICROTILE
    groups = [
        [b.data[row * n + g : row * n + g + MICROTILE] for row in range(k)]
        for g in range(0, full, MICROTILE)
    ]
    rest = [b.data[j::n] for j in range(full, n)]
    data = a.data + (0.0,) * (-m % MICROTILE * k)
    out: list[float] = []
    for i in range(0, m, MICROTILE):
        arows = [data[(i + r) * k : (i + r + 1) * k] for r in range(MICROTILE)]
        orows: list[list[float]] = [[] for _ in range(MICROTILE)]
        for group in groups:
            c00 = c01 = c02 = c03 = c04 = c05 = c06 = c07 = 0.0
            c10 = c11 = c12 = c13 = c14 = c15 = c16 = c17 = 0.0
            c20 = c21 = c22 = c23 = c24 = c25 = c26 = c27 = 0.0
            c30 = c31 = c32 = c33 = c34 = c35 = c36 = c37 = 0.0
            c40 = c41 = c42 = c43 = c44 = c45 = c46 = c47 = 0.0
            c50 = c51 = c52 = c53 = c54 = c55 = c56 = c57 = 0.0
            c60 = c61 = c62 = c63 = c64 = c65 = c66 = c67 = 0.0
            c70 = c71 = c72 = c73 = c74 = c75 = c76 = c77 = 0.0
            for (
                a0, a1, a2, a3, a4, a5, a6, a7, (b0, b1, b2, b3, b4, b5, b6, b7)
            ) in zip(*arows, group):
                c00 += a0 * b0
                c01 += a0 * b1
                c02 += a0 * b2
                c03 += a0 * b3
                c04 += a0 * b4
                c05 += a0 * b5
                c06 += a0 * b6
                c07 += a0 * b7
                c10 += a1 * b0
                c11 += a1 * b1
                c12 += a1 * b2
                c13 += a1 * b3
                c14 += a1 * b4
                c15 += a1 * b5
                c16 += a1 * b6
                c17 += a1 * b7
                c20 += a2 * b0
                c21 += a2 * b1
                c22 += a2 * b2
                c23 += a2 * b3
                c24 += a2 * b4
                c25 += a2 * b5
                c26 += a2 * b6
                c27 += a2 * b7
                c30 += a3 * b0
                c31 += a3 * b1
                c32 += a3 * b2
                c33 += a3 * b3
                c34 += a3 * b4
                c35 += a3 * b5
                c36 += a3 * b6
                c37 += a3 * b7
                c40 += a4 * b0
                c41 += a4 * b1
                c42 += a4 * b2
                c43 += a4 * b3
                c44 += a4 * b4
                c45 += a4 * b5
                c46 += a4 * b6
                c47 += a4 * b7
                c50 += a5 * b0
                c51 += a5 * b1
                c52 += a5 * b2
                c53 += a5 * b3
                c54 += a5 * b4
                c55 += a5 * b5
                c56 += a5 * b6
                c57 += a5 * b7
                c60 += a6 * b0
                c61 += a6 * b1
                c62 += a6 * b2
                c63 += a6 * b3
                c64 += a6 * b4
                c65 += a6 * b5
                c66 += a6 * b6
                c67 += a6 * b7
                c70 += a7 * b0
                c71 += a7 * b1
                c72 += a7 * b2
                c73 += a7 * b3
                c74 += a7 * b4
                c75 += a7 * b5
                c76 += a7 * b6
                c77 += a7 * b7
            orows[0] += c00, c01, c02, c03, c04, c05, c06, c07
            orows[1] += c10, c11, c12, c13, c14, c15, c16, c17
            orows[2] += c20, c21, c22, c23, c24, c25, c26, c27
            orows[3] += c30, c31, c32, c33, c34, c35, c36, c37
            orows[4] += c40, c41, c42, c43, c44, c45, c46, c47
            orows[5] += c50, c51, c52, c53, c54, c55, c56, c57
            orows[6] += c60, c61, c62, c63, c64, c65, c66, c67
            orows[7] += c70, c71, c72, c73, c74, c75, c76, c77
        # Rows past m are padding: their outputs are dropped here.
        for arow, orow in zip(arows[: m - i], orows):
            for col in rest:
                s = 0.0
                for u, v in zip(arow, col):
                    s += u * v
                orow.append(s)
            out += orow
    return Matrix(m, n, tuple(out))


class _Executor:
    """Numeric payload for :func:`walk_nest`: real operand data staged and
    multiplied at each event, into a resident output accumulator.

    The operand panels are cut once per product: ``a_panels[kk]`` holds each
    row's ``t_k`` slice for contraction step ``kk``, and ``b_panels[kk][g]``
    the ``t_k`` tuples of :data:`~asymtile.arch.MICROTILE` lanes of column
    group ``g``. So :meth:`stage_b` is one list slice of a step's groups
    (``t_n`` is a multiple of ``MICROTILE``, so they cover it exactly), and
    :meth:`stage_a` reads ``MICROTILE`` rows of a step's A panel per block
    (``t_ma`` is a multiple of ``MICROTILE``, so the blocks cover it
    exactly too). The work stays in the events: each :meth:`stage_a`
    multiplies what the walker staged. The update is a register-blocked
    microkernel of 8 A rows by 8 output lanes, one VMAC output tile: for
    each block and group the 64 accumulators live in locals for the whole
    stage, take one term per contraction step in ascending order, and are
    kept between stages as one 64-tuple, which :meth:`write_c` unpacks into
    eight output rows. It unpacks 8 x 8 locals, so it holds only while
    ``MICROTILE`` is 8."""

    def __init__(self, a: Matrix, b: Matrix, tile: TileConfig) -> None:
        m, k, n = a.rows, a.cols, b.cols
        self.n = n
        self.t_ma, self.t_mc, self.t_k, self.t_n = tile.as_tuple()
        t_k = self.t_k
        self.a_panels = [
            [a.data[row * k + k0 : row * k + k0 + t_k] for row in range(m)]
            for k0 in range(0, k, t_k)
        ]
        self.b_panels = [
            [
                [b.data[r * n + g : r * n + g + MICROTILE] for r in range(k0, k0 + t_k)]
                for g in range(0, n, MICROTILE)
            ]
            for k0 in range(0, k, t_k)
        ]
        self.width = self.t_n // MICROTILE
        self.out = [0.0] * (m * n)
        self.zero = [(0.0,) * (MICROTILE * MICROTILE)] * self.width
        self.acc = [list(self.zero) for _ in range(self.t_mc // MICROTILE)]
        self.groups: list[list[tuple[float, ...]]] = []
        # The eight output rows of a 64-tuple, MICROTILE lanes each.
        self.acc_rows = [
            slice(r, r + MICROTILE) for r in range(0, MICROTILE * MICROTILE, MICROTILE)
        ]

    def stage_b(self, i: int, j: int, kk: int) -> None:
        g0 = j * self.width
        self.groups = self.b_panels[kk][g0 : g0 + self.width]

    def stage_a(self, i: int, j: int, kk: int, r: int) -> None:
        t_ma, panel, groups = self.t_ma, self.a_panels[kk], self.groups
        row0 = i * self.t_mc + r * t_ma
        for blk in range(0, t_ma, MICROTILE):
            arows = panel[row0 + blk : row0 + blk + MICROTILE]
            accs = self.acc[(r * t_ma + blk) // MICROTILE]
            for gi, group in enumerate(groups):
                (
                    c00, c01, c02, c03, c04, c05, c06, c07,
                    c10, c11, c12, c13, c14, c15, c16, c17,
                    c20, c21, c22, c23, c24, c25, c26, c27,
                    c30, c31, c32, c33, c34, c35, c36, c37,
                    c40, c41, c42, c43, c44, c45, c46, c47,
                    c50, c51, c52, c53, c54, c55, c56, c57,
                    c60, c61, c62, c63, c64, c65, c66, c67,
                    c70, c71, c72, c73, c74, c75, c76, c77,
                ) = accs[gi]
                for (
                    a0, a1, a2, a3, a4, a5, a6, a7, (b0, b1, b2, b3, b4, b5, b6, b7)
                ) in zip(*arows, group):
                    c00 += a0 * b0
                    c01 += a0 * b1
                    c02 += a0 * b2
                    c03 += a0 * b3
                    c04 += a0 * b4
                    c05 += a0 * b5
                    c06 += a0 * b6
                    c07 += a0 * b7
                    c10 += a1 * b0
                    c11 += a1 * b1
                    c12 += a1 * b2
                    c13 += a1 * b3
                    c14 += a1 * b4
                    c15 += a1 * b5
                    c16 += a1 * b6
                    c17 += a1 * b7
                    c20 += a2 * b0
                    c21 += a2 * b1
                    c22 += a2 * b2
                    c23 += a2 * b3
                    c24 += a2 * b4
                    c25 += a2 * b5
                    c26 += a2 * b6
                    c27 += a2 * b7
                    c30 += a3 * b0
                    c31 += a3 * b1
                    c32 += a3 * b2
                    c33 += a3 * b3
                    c34 += a3 * b4
                    c35 += a3 * b5
                    c36 += a3 * b6
                    c37 += a3 * b7
                    c40 += a4 * b0
                    c41 += a4 * b1
                    c42 += a4 * b2
                    c43 += a4 * b3
                    c44 += a4 * b4
                    c45 += a4 * b5
                    c46 += a4 * b6
                    c47 += a4 * b7
                    c50 += a5 * b0
                    c51 += a5 * b1
                    c52 += a5 * b2
                    c53 += a5 * b3
                    c54 += a5 * b4
                    c55 += a5 * b5
                    c56 += a5 * b6
                    c57 += a5 * b7
                    c60 += a6 * b0
                    c61 += a6 * b1
                    c62 += a6 * b2
                    c63 += a6 * b3
                    c64 += a6 * b4
                    c65 += a6 * b5
                    c66 += a6 * b6
                    c67 += a6 * b7
                    c70 += a7 * b0
                    c71 += a7 * b1
                    c72 += a7 * b2
                    c73 += a7 * b3
                    c74 += a7 * b4
                    c75 += a7 * b5
                    c76 += a7 * b6
                    c77 += a7 * b7
                accs[gi] = (
                    c00, c01, c02, c03, c04, c05, c06, c07,
                    c10, c11, c12, c13, c14, c15, c16, c17,
                    c20, c21, c22, c23, c24, c25, c26, c27,
                    c30, c31, c32, c33, c34, c35, c36, c37,
                    c40, c41, c42, c43, c44, c45, c46, c47,
                    c50, c51, c52, c53, c54, c55, c56, c57,
                    c60, c61, c62, c63, c64, c65, c66, c67,
                    c70, c71, c72, c73, c74, c75, c76, c77,
                )

    def write_c(self, i: int, j: int) -> None:
        t_mc, n, out = self.t_mc, self.n, self.out
        corner = i * t_mc * n + j * self.t_n
        for blk in range(0, t_mc, MICROTILE):
            for g, acc in enumerate(self.acc[blk // MICROTILE]):
                start = corner + blk * n + g * MICROTILE
                for lanes in self.acc_rows:
                    out[start : start + MICROTILE] = acc[lanes]
                    start += n
            self.acc[blk // MICROTILE] = list(self.zero)


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
    numbers. The operand panels are cut once per product, before the walk.
    Per output tile the accumulator stays resident for the whole
    contraction; each step stages one panel of ``b``, in groups of
    :data:`~asymtile.arch.MICROTILE` columns, and then walks ``a`` in
    row-subtile slices, updating one 8 x 8 accumulator block (one VMAC
    output tile, in 64 locals) per eight A rows and group, which holds
    while ``MICROTILE`` is 8. Each output takes the same terms as
    :func:`naive_gemm`, in ascending contraction order, so the result
    equals :func:`naive_gemm` bitwise.
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
