"""The output-stationary tiled loop nest, walked once for every oracle.

:func:`walk_nest` is the only copy of the nest (output tiles, contraction
steps, row-subtile passes). It checks divisibility and buffer capacity,
counts every staging event, and builds the :class:`MovementTrace`. A
payload can do work at each event: ``asymtile.gemm.tiled_gemm`` is the
numeric one. Without a payload the walk is the symbolic data-movement
oracle: :func:`simulate_movement` counts the bytes that cross the chosen
memory boundary, the measured counterpart to the closed-form intensity
model in ``asymtile.intensity``. On any exactly-divisible problem the two
must agree as exact rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from asymtile.arch import (
    BOUNDARIES,
    BOUNDARY_ARRAY,
    BOUNDARY_CORE,
    DEFAULT_ARCH,
    MICROTILE,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    derive_l2_tiles,
    require_divides,
)
from asymtile.intensity import ai_array, ai_tile


class BufferOverflowError(ConfigError):
    """Raised when staged operands exceed the buffer capacity."""


class MovementTrace(NamedTuple):
    """Byte counters and buffer statistics from one simulated loop nest."""

    bytes_a: Fraction
    bytes_b: Fraction
    bytes_c: Fraction
    flops: int
    peak_l1_occupancy: int
    evictions_a: int

    @property
    def total_bytes(self) -> Fraction:
        return self.bytes_a + self.bytes_b + self.bytes_c


def walk_nest(
    problem: ProblemSpec,
    tile: TileConfig,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    *,
    capacity: int | None = None,
    payload=None,
) -> MovementTrace:
    """Walk the output-stationary nest once and count every transfer.

    Per output tile the contraction dimension is walked in T_K-wide steps;
    each step stages the B panel once and the A block in ``rho`` row-subtile
    passes, releasing every A subtile as soon as its output rows finish the
    step. The output tile stays resident and is written back exactly once.

    ``payload``, when given, does the work of each event as it happens,
    by block index: ``stage_b(i, j, kk)`` for the B panel of output tile
    ``(i, j)`` at contraction step ``kk``, ``stage_a(i, j, kk, r)`` for A
    row subtile ``r``, and ``write_c(i, j)`` once the tile's contraction is
    done.

    Residency is :func:`buffer_footprint` of ``arch``, the same at every
    step. With ``capacity`` given, a footprint over it raises
    :class:`BufferOverflowError` before the first step. The loop counts
    steps as integers; each count meets its exact byte cost once, when the
    trace is built.
    """
    m, k, n = problem.m, problem.k, problem.n
    t_ma, t_mc, t_k, t_n = tile.as_tuple()
    require_divides(problem, (t_mc, t_k, t_n), "tile")
    used = buffer_footprint(tile, prec, arch)
    if capacity is not None and used > capacity:
        raise BufferOverflowError(f"tile buffers need {used} B, over capacity {capacity} B")

    rho = tile.rho
    steps_a = steps_b = steps_c = 0
    for i in range(m // t_mc):
        for j in range(n // t_n):
            for kk in range(k // t_k):
                if payload is not None:
                    payload.stage_b(i, j, kk)
                steps_b += 1
                for r in range(rho):
                    if payload is not None:
                        payload.stage_a(i, j, kk, r)
                    steps_a += 1
            if payload is not None:
                payload.write_c(i, j)
            steps_c += 1

    return MovementTrace(
        bytes_a=steps_a * prec.byte_cost_a * (t_ma * t_k),
        bytes_b=steps_b * prec.byte_cost_b * (t_k * t_n),
        bytes_c=steps_c * prec.byte_cost_c * (t_mc * t_n),
        flops=steps_a * 2 * t_ma * t_k * t_n,
        peak_l1_occupancy=used,
        evictions_a=steps_a,
    )


def simulate_movement(
    problem: ProblemSpec,
    tile: TileConfig,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    *,
    boundary: str = BOUNDARY_CORE,
) -> MovementTrace:
    """Byte-count the nest at ``boundary``: one core's scratchpad walks
    ``tile``; the array boundary walks the L2 tile the whole grid consumes
    per pass (:func:`derive_l2_tiles`), split into the same ``rho`` row
    subtiles."""
    if boundary == BOUNDARY_ARRAY:
        t_mc, t_k, t_n = derive_l2_tiles(tile, arch)
        tile = tile._replace(t_ma=t_mc // tile.rho, t_mc=t_mc, t_k=t_k, t_n=t_n)
    elif boundary != BOUNDARY_CORE:
        raise ConfigError(f"unknown boundary {boundary!r}; expected one of {BOUNDARIES}")
    return walk_nest(problem, tile, prec, arch)


def measured_ai(trace: MovementTrace) -> Fraction:
    """Operations per byte actually moved, as an exact rational."""
    total = trace.total_bytes
    if total <= 0:
        raise ConfigError("trace moved zero bytes; intensity undefined")
    return Fraction(trace.flops) / total


def trace_to_csv(trace: MovementTrace, boundary: str) -> str:
    """Flat per-operand byte counts: ``boundary,operand,bytes`` rows."""
    lines = ["boundary,operand,bytes"]
    for operand, value in (
        ("a", trace.bytes_a),
        ("b", trace.bytes_b),
        ("c", trace.bytes_c),
    ):
        rendered = str(int(value)) if value.denominator == 1 else repr(float(value))
        lines.append(f"{boundary},{operand},{rendered}")
    return "\n".join(lines) + "\n"


# -- randomized equivalence harness -------------------------------------------

def random_divisible_case(
    rng: random.Random, arch: ArchSpec = DEFAULT_ARCH
) -> tuple[ProblemSpec, TileConfig, PrecisionSpec]:
    """Draw a (problem, tile, precision) triple exactly divisible at both
    boundaries, for measured-vs-closed-form equivalence runs."""
    t_ma = MICROTILE * rng.randint(1, 4)
    rho = rng.choice([1, 2, 4])
    tile = TileConfig(
        t_ma=t_ma,
        t_mc=t_ma * rho,
        t_k=MICROTILE * rng.randint(1, 8),
        t_n=MICROTILE * rng.randint(1, 8),
    )
    costs = [Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(3, 2), Fraction(2)]
    prec = PrecisionSpec(
        byte_cost_a=rng.choice(costs),
        byte_cost_b=rng.choice(costs),
        byte_cost_c=rng.choice(costs),
        accum_label="test",
    )
    problem = ProblemSpec(
        m=arch.n_rows * tile.t_mc * rng.randint(1, 3),
        k=tile.t_k * rng.randint(1, 6),
        n=arch.n_cols * tile.t_n * rng.randint(1, 3),
    )
    return problem, tile, prec


def verify_movement_equivalence(
    n: int, seed: int = 0, arch: ArchSpec = DEFAULT_ARCH
) -> list[dict]:
    """Compare simulated and closed-form intensity on ``n`` random cases.

    Checks, per case and boundary, exact rational equality of the measured
    intensity with the closed form, plus the output-written-once byte count.
    Returns one record per discrepancy; empty means full agreement.
    """
    rng = random.Random(seed)
    failures: list[dict] = []
    for i in range(n):
        problem, tile, prec = random_divisible_case(rng, arch)
        expected = {
            BOUNDARY_CORE: ai_tile(tile.t_mc, tile.t_n, problem.k, prec).ai,
            BOUNDARY_ARRAY: ai_array(tile, problem.k, prec, arch).ai,
        }
        for boundary, want in expected.items():
            trace = simulate_movement(problem, tile, prec, arch, boundary=boundary)
            got = measured_ai(trace)
            ok_c = trace.bytes_c == prec.byte_cost_c * problem.m * problem.n
            if got != want or not ok_c:
                failures.append(
                    {
                        "index": i,
                        "boundary": boundary,
                        "problem": problem,
                        "tile": tile,
                        "prec": prec,
                        "measured": got,
                        "closed_form": want,
                    }
                )
    return failures
