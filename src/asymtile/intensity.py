"""Closed-form arithmetic intensity of the tiled GEMM dataflow.

With an output-stationary t_mc x t_n tile reduced over the full K dimension,
each A element is re-read once per column tile and each B element once per row
tile, so per-element traffic is a/t_n + b/t_mc + c/K bytes per output
flop pair. Intensity is exact and notably independent of both the reduction
tile depth t_k and the buffering asymmetry rho. The traffic is summed as an
integer numerator over the precision's common byte-cost denominator
(:attr:`~asymtile.arch.PrecisionSpec.cost_numerators`), so the intensity is
one rational built once from integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from asymtile.arch import DEFAULT_ARCH, ArchSpec, PrecisionSpec, TileConfig, derive_l2_tiles, require_int


class AiResult(NamedTuple):
    """Exact arithmetic intensity in flops per byte."""

    ai: Fraction


def ai_tile(t_mc: int, t_n: int, k: int, prec: PrecisionSpec) -> AiResult:
    """Intensity (flops/byte) of one t_mc x t_n output tile reduced over k.

    Equals 2 / (a/t_n + b/t_mc + c/k) with a, b, c the per-element byte costs.
    The traffic a·t_mc·k + b·k·t_n + c·t_mc·t_n is summed over the costs'
    common denominator, and ``ai`` is the exact rational of the flops over
    that integer sum. Each of ``t_mc``, ``t_n`` and ``k`` must be an int of
    at least 1 (:func:`~asymtile.arch.require_int`).
    """
    require_int("t_mc", t_mc, 1)
    require_int("t_n", t_n, 1)
    require_int("k", k, 1)
    a, b, c, den = prec.cost_numerators
    traffic = a * t_mc * k + b * k * t_n + c * t_mc * t_n
    return AiResult(Fraction(2 * t_mc * t_n * k * den, traffic))


def ai_array(
    tile: TileConfig,
    k: int,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
) -> AiResult:
    """Intensity of the whole core array at the off-chip boundary.

    The grid shares A slices along rows and B slices along columns, so the
    array behaves like a single core with the L2 output tile of
    :func:`~asymtile.arch.derive_l2_tiles`.
    """
    t_m, _, t_n = derive_l2_tiles(tile, arch)
    return ai_tile(t_m, t_n, k, prec)
