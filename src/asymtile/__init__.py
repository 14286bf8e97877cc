"""Asymmetric tile buffering models for tiled GEMM on VLIW core arrays.

Module map:

- ``arch``      hardware, precision, problem, and tile descriptions.
- ``intensity`` closed-form arithmetic intensity at the core and array level.
- ``pipeline``  analytic latency bounds for the VLIW microkernel phases.
- ``schedule``  list-scheduling simulator that stress-tests those bounds.
- ``movement``  the one tiled loop-nest walker; with no payload it is the
                data-movement oracle that byte-counts the nest.
- ``gemm``      numeric payload of that walker (tiled GEMM) and the BFP16
                block codec.
- ``perf``      two-sided (memory/compute) performance estimates.
- ``search``    feasible-space enumeration, ranking, and report emitters.
- ``cli``       ``asymtile`` command-line entry point.

A dataclass only where construction validates. Each input (``TileConfig``,
for one) is a frozen dataclass whose ``__post_init__`` checks every field.
Each record a function returns (``PerfEstimate``, for one) is a
``typing.NamedTuple``: nothing checks it, it is as immutable, it is several
times cheaper to build, and it costs no generated code at import. Copy one
with a field changed by ``record._replace(field=...)``; it compares equal to
a plain tuple of the same values.
"""

from asymtile.arch import (
    DEFAULT_ARCH,
    KIB,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    check_feasible,
    derive_l2_tiles,
)
from asymtile.gemm import (
    Bfp16Block,
    Matrix,
    bfp16_decode,
    bfp16_encode,
    bfp16_error_bound,
    naive_gemm,
    tiled_gemm,
)
from asymtile.intensity import AiResult, ai_array, ai_tile
from asymtile.movement import (
    BufferOverflowError,
    MovementTrace,
    measured_ai,
    simulate_movement,
    verify_movement_equivalence,
)
from asymtile.perf import (
    PerfEstimate,
    calibrated_eff_micro,
    eff_core,
    perf_array,
    resolve_eff_micro,
)
from asymtile.pipeline import (
    DEFAULT_MICROKERNEL,
    LatencyBounds,
    LoadClass,
    MicrokernelSpec,
    eff_micro,
    microkernel_for_tile,
    total_latency,
)
from asymtile.schedule import (
    ScheduleResult,
    build_microkernel_dag,
    schedule,
    slots_for,
    verify_random_specs,
)
from asymtile.search import (
    RankedResult,
    SearchSpace,
    enumerate_feasible,
    explore,
    rank,
    ranked_to_csv,
    ranked_to_markdown,
)

__all__ = [
    "AiResult",
    "ArchSpec",
    "Bfp16Block",
    "BufferOverflowError",
    "ConfigError",
    "DEFAULT_ARCH",
    "DEFAULT_MICROKERNEL",
    "KIB",
    "LatencyBounds",
    "LoadClass",
    "Matrix",
    "MicrokernelSpec",
    "MovementTrace",
    "PRECISION_PRESETS",
    "PerfEstimate",
    "PrecisionSpec",
    "ProblemSpec",
    "RankedResult",
    "ScheduleResult",
    "SearchSpace",
    "TileConfig",
    "ai_array",
    "ai_tile",
    "bfp16_decode",
    "bfp16_encode",
    "bfp16_error_bound",
    "buffer_footprint",
    "build_microkernel_dag",
    "calibrated_eff_micro",
    "check_feasible",
    "derive_l2_tiles",
    "eff_core",
    "eff_micro",
    "enumerate_feasible",
    "explore",
    "measured_ai",
    "microkernel_for_tile",
    "naive_gemm",
    "perf_array",
    "rank",
    "ranked_to_csv",
    "ranked_to_markdown",
    "resolve_eff_micro",
    "schedule",
    "simulate_movement",
    "slots_for",
    "tiled_gemm",
    "total_latency",
    "verify_movement_equivalence",
    "verify_random_specs",
]
