"""End-to-end performance model for asymmetric tile buffering.

Combines the intensity closed form with microkernel efficiency into the
two-sided bound: off-chip bandwidth times achieved intensity on one side,
aggregate core throughput derated by kernel-switch overhead on the other.
The efficiency comes from one of the sources in :data:`EFF_SOURCES`, each a
plain function of the tile and the base kernel: the calibration table by
``t_k``, or the tile's own kernel scored by the closed form or by its
schedule. All internal arithmetic is exact (flops per cycle as rationals);
the clock rate is applied exactly once when converting to flops per second.
The CSV row of an estimate (:func:`estimate_csv_row`) and the report number
formats are defined here, so ``eval`` prints without the search module, and
the scheduler is imported only when the ``simulated`` source scores a tile.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, NamedTuple

from asymtile.arch import (
    DEFAULT_ARCH,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    c_tile_buffers,
    derive_l2_tiles,
    footprint_bytes,
    require_divides,
    require_int,
)
from asymtile.intensity import ai_tile
from asymtile.pipeline import (
    DEFAULT_MICROKERNEL,
    MicrokernelSpec,
    eff_micro as closed_form_eff_micro,
    microkernel_for_tile,
)

BOUND_MEMORY = "memory"
BOUND_COMPUTE = "compute"

EFF_SOURCE_CALIBRATION = "calibration"

# Measured microkernel efficiency by contraction tile depth, from the modeled
# machine; linear interpolation between entries, clamped at the ends. The
# table is read-only: calibrated_eff_micro sorts it once and memoises by t_k.
EFF_MICRO_CALIBRATION = MappingProxyType({
    8: Fraction(1, 5),
    16: Fraction(9, 25),
    32: Fraction(41, 100),
    64: Fraction(63, 100),
})
_CALIBRATION_POINTS = tuple(sorted(EFF_MICRO_CALIBRATION.items()))


@lru_cache(maxsize=1024, typed=True)
def calibrated_eff_micro(t_k: int) -> Fraction:
    """Calibrated microkernel efficiency at contraction depth ``t_k``, an int
    of at least 1 (:func:`~asymtile.arch.require_int`), memoised by ``t_k``.
    The cache is typed, so ``True``, which hashes equal to 1, misses 1's
    entry and is checked rather than served."""
    require_int("t_k", t_k, 1)
    points = _CALIBRATION_POINTS
    if t_k <= points[0][0]:
        return points[0][1]
    if t_k >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= t_k <= x1:
            return y0 + (y1 - y0) * Fraction(t_k - x0, x1 - x0)
    raise AssertionError("unreachable: calibration points cover the range")


def _coerce_eff(value) -> Fraction:
    """``value`` as an efficiency in (0, 1]; a ``Fraction`` is used as given."""
    eff = value if type(value) is Fraction else Fraction(value)
    # 0 < p/q <= 1 with q > 0, compared on the integers.
    if not 0 < eff.numerator <= eff.denominator:
        raise ConfigError(f"eff_micro must lie in (0, 1], got {value}")
    return eff


def _simulated_eff_micro(tile: TileConfig, base: MicrokernelSpec) -> Fraction:
    # Imported here: a run that schedules no kernel does not load the scheduler.
    from asymtile.schedule import kernel_run

    return kernel_run(microkernel_for_tile(tile, base)).vmac_issue_rate


# Each efficiency source's scorer (tile, base kernel) -> eff_micro: the
# calibration table by t_k, or the tile's own kernel, shaped by
# microkernel_for_tile (else a KernelShapeError) and scored by the closed-form
# phase model or by its scheduled VMAC issue rate: kernel_run schedules each
# kernel once, and `simulate schedule` prints that same run. Neither kernel
# source reaches 1, the one-VMAC-per-cycle peak: the closed form is below 1
# (pipeline.eff_micro), and a schedule issues at most one VMAC per cycle,
# its last VMAC's stores adding at least one cycle.
EFF_SOURCES = MappingProxyType({
    EFF_SOURCE_CALIBRATION: lambda tile, base: calibrated_eff_micro(tile.t_k),
    "closed_form": lambda tile, base: closed_form_eff_micro(microkernel_for_tile(tile, base)),
    "simulated": _simulated_eff_micro,
})


def eff_scorer(source) -> Callable[[TileConfig, MicrokernelSpec], Fraction]:
    """The scorer of ``source`` in :data:`EFF_SOURCES`; any other value, a
    string or not, raises the one unknown-source ``ConfigError``."""
    scorer = EFF_SOURCES.get(source) if isinstance(source, str) else None
    if scorer is None:
        raise ConfigError(f"unknown eff_source {source!r}; expected one of {tuple(EFF_SOURCES)}")
    return scorer


def _eff_core_terms(eff: Fraction, work: int, arch: ArchSpec) -> tuple[int, int]:
    """The numerator and denominator of :func:`eff_core`, ``p·w`` and
    ``q·w + p·s``, at ``eff = p/q`` and one kernel launch's ``work``."""
    p = eff.numerator
    return p * work, eff.denominator * work + p * arch.switch_overhead_delta * arch.peak_flops_per_cycle


def eff_core(
    tile: TileConfig,
    eff_micro,
    arch: ArchSpec = DEFAULT_ARCH,
) -> Fraction:
    """Core efficiency after kernel-switch overhead.

    Each row-subtile kernel launch does ``w = 2·t_ma·t_n·t_k`` flops at
    ``eff_micro = p/q`` and pays one switch penalty of ``delta`` cycles,
    ``s = delta·peak`` flops. The result is the compute cycles at peak over
    the total, ``1 / (q/p + s/w) = p·w / (q·w + p·s)``: an exact rational
    built once from integer numerator and denominator. A t_mc x k x t_n
    slab is ``rho`` launches per contraction step of depth t_k, so ``k``
    and ``rho`` cancel and the value depends on ``eff_micro`` and
    ``t_ma·t_n·t_k`` alone."""
    return Fraction(*_eff_core_terms(_coerce_eff(eff_micro), 2 * tile.t_ma * tile.t_n * tile.t_k, arch))


class PerfEstimate(NamedTuple):
    """Two-sided performance bound for one (tile, problem, precision) choice."""

    ai_array: Fraction
    memory_bound: float
    compute_bound: float
    eff_micro: Fraction
    eff_core: Fraction
    perf_array: float
    bound_kind: str
    buffer_bytes: int
    feasible: bool


def memory_side(
    tile: TileConfig,
    problem: ProblemSpec,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    sides: dict[tuple[int, int], tuple[Fraction, float]] | None = None,
) -> tuple[Fraction, float]:
    """The memory side of the roofline: the array intensity and intensity
    times off-chip bandwidth, in flop/s. Both depend on the C tile
    (``t_mc``, ``t_k``, ``t_n``) alone, never on ``rho``: the L2 tile of
    :func:`~asymtile.arch.derive_l2_tiles` must divide ``problem`` (else a
    ``ConfigError``), and the intensity is that of its output tile
    (``t_m``, ``t_n``) reduced over the whole ``k``. ``sides``, kept across
    calls of one problem, precision and arch, maps each output tile to its
    side, so each is worked out once; the divisibility check runs first on
    every call."""
    t_mc_l2, t_k_l2, t_n_l2 = derive_l2_tiles(tile, arch)
    require_divides(problem, (t_mc_l2, t_k_l2, t_n_l2), "array-level tile")
    sides = {} if sides is None else sides
    side = sides.get((t_mc_l2, t_n_l2))
    if side is None:
        ai = ai_tile(t_mc_l2, t_n_l2, problem.k, prec).ai
        side = sides[t_mc_l2, t_n_l2] = (ai, ai.numerator / ai.denominator * arch.offchip_bw)
    return side


def compute_side(
    tiles: list[TileConfig],
    effs: list[Fraction],
    memory: tuple[Fraction, float],
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    cores: dict[tuple[int, int, int], tuple[Fraction, float]] | None = None,
) -> list[PerfEstimate]:
    """The estimates of ``tiles``, tiles of one C tile (``t_mc``, ``t_k``,
    ``t_n``) that differ only in ``rho``, at microkernel efficiencies
    ``effs``, given their shared ``memory`` side (:func:`memory_side`): each
    tile's footprint and feasibility, ``eff_core`` and compute bound, and the
    smaller bound.

    The group shares one :func:`~asymtile.arch.c_tile_buffers`, so each tile
    adds only its A term to the B and C numerators and compares its ``t_ma``
    with ``max_t_ma``. ``eff_core`` depends only on ``eff_micro = p/q`` and
    one launch's work ``w`` (:func:`eff_core`), so ``cores``, kept across
    calls of one arch, maps each ``(p, q, w)`` to its ``eff_core`` and
    compute bound, worked out once. The compute bound converts ``eff_core``
    as the int true division of its numerator by its denominator, which
    CPython rounds correctly, so it is the same double as
    ``float(eff_core)``. A tile whose staging buffers exceed capacity comes
    back with ``feasible=False`` and zeroed rates rather than a silent
    number. Ties between the two sides are classified as memory-bound."""
    ai, memory_bound = memory
    _, t_mc, t_k, t_n = tiles[0]
    a_row, n_bc, den, max_t_ma = c_tile_buffers(t_mc, t_k, t_n, prec, arch)
    peak = arch.peak_array_flops
    cores = {} if cores is None else cores
    # tuple.__new__ on the field tuple makes the same PerfEstimate as the
    # generated NamedTuple constructor, in about half the time.
    new = tuple.__new__
    out = []
    for (t_ma, _, _, _), eff in zip(tiles, effs):
        work = 2 * t_ma * t_n * t_k
        key = (eff.numerator, eff.denominator, work)
        core = cores.get(key)
        if core is None:
            ec_num, ec_den = _eff_core_terms(eff, work, arch)
            core = cores[key] = (Fraction(ec_num, ec_den), ec_num / ec_den * peak)
        ec, compute_bound = core
        buffer_bytes = footprint_bytes(a_row, n_bc, den, t_ma)
        if t_ma > max_t_ma:
            fields = (ai, 0.0, 0.0, eff, ec, 0.0, BOUND_MEMORY, buffer_bytes, False)
        elif memory_bound <= compute_bound:
            fields = (ai, memory_bound, compute_bound, eff, ec, memory_bound, BOUND_MEMORY, buffer_bytes, True)
        else:
            fields = (ai, memory_bound, compute_bound, eff, ec, compute_bound, BOUND_COMPUTE, buffer_bytes, True)
        out.append(new(PerfEstimate, fields))
    return out


def perf_array(
    tile: TileConfig,
    problem: ProblemSpec,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    eff_micro=None,
    *,
    eff_source: str = EFF_SOURCE_CALIBRATION,
    kernel: MicrokernelSpec = DEFAULT_MICROKERNEL,
) -> PerfEstimate:
    """Full two-sided estimate: min(intensity x bandwidth, derated compute),
    the :func:`compute_side` of the one-tile group ``[tile]`` over its C
    tile's :func:`memory_side`.

    ``eff_micro`` may be given directly; otherwise it is resolved from
    ``eff_source``, with ``kernel`` as the base microkernel spec. The
    efficiency is resolved before the problem's divisibility is checked.
    """
    eff = eff_scorer(eff_source)(tile, kernel) if eff_micro is None else _coerce_eff(eff_micro)
    return compute_side([tile], [eff], memory_side(tile, problem, prec, arch), prec, arch)[0]


# -- report formats --------------------------------------------------------------

RANK_CSV_COLUMNS = (
    "t_ma,t_mc,t_k,t_n,rho,buffer_bytes,feasible,ai_array,eff_micro,eff_core,"
    "memory_bound_tflops,compute_bound_tflops,perf_tflops,bound_kind"
)


def _sig3(value: float) -> str:
    return f"{value:.3g}"


def _kb1(value) -> str:
    return f"{float(value) / 1024:.1f}"


def _cached(value, floats: dict[int, str], spec: str, scale: float = 1.0) -> str:
    """``float(value) / scale`` in the format ``spec``, converted once per
    distinct object. ``floats`` maps the id of each value seen to its text,
    so it must not outlive those values (a dead object's id can be reused),
    and each object must always be given the same ``spec`` and ``scale``.
    :func:`estimate_csv_row` gives it the exact values ``ai_array``,
    ``eff_micro`` and ``eff_core`` at ``.4f`` and scale 1, and the floats
    ``memory_bound`` and ``compute_bound`` at ``.3g`` and scale 1e12; the
    ``0.0`` an infeasible row shares between its two bounds is one object
    that gets the same spec and scale both times."""
    text = floats.get(id(value))
    if text is None:
        text = floats[id(value)] = format(float(value) / scale, spec)
    return text


def estimate_csv_row(tile: TileConfig, est: PerfEstimate, floats: dict[int, str] | None = None) -> str:
    """One CSV row of ``RANK_CSV_COLUMNS``. Rows built with one ``floats``
    dict (:func:`_cached`) format a shared value once: ``search.rank`` works
    out each distinct intensity and memory bound, and each distinct
    ``eff_core`` and compute bound, once and shares the object, and the
    tiles of one ``t_k`` share the cached calibration ``eff_micro``.
    ``perf_array`` is the bound ``bound_kind`` names, so it reuses that
    bound's text."""
    floats = {} if floats is None else floats
    memory = _cached(est.memory_bound, floats, ".3g", 1e12)
    compute = _cached(est.compute_bound, floats, ".3g", 1e12)
    perf = memory if est.bound_kind == BOUND_MEMORY else compute
    t_ma, t_mc, t_k, t_n = tile
    return (
        f"{t_ma},{t_mc},{t_k},{t_n},{t_mc // t_ma},"
        f"{est.buffer_bytes},{est.feasible},{_cached(est.ai_array, floats, '.4f')},"
        f"{_cached(est.eff_micro, floats, '.4f')},{_cached(est.eff_core, floats, '.4f')},"
        f"{memory},{compute},{perf},{est.bound_kind}"
    )
