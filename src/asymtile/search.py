"""Design-space exploration over tile configurations.

Enumerates the feasible tile grid under the buffer-capacity constraint,
evaluates each candidate with the two-sided performance model, and ranks the
results, surfacing the best overall configuration, the best symmetric
(row-subtile factor 1) configuration, and their ratio. Emitters render the
ranking as CSV and as a markdown table in the reference-report column
layout (problem, tile, rho, buffers, both bounds, the predicted bound).

Enumeration prunes before it builds. Divisibility of the problem is tested
one axis at a time, so no tile is built for a grid point that fails it. The
buffer footprint strictly increases in ``t_ma``, ``t_k`` and ``t_n``, so the
walk along each stops at the first tile that does not fit, and the capacity
check runs only up to that point. When the efficiency source scores each
tile's own microkernel, :func:`explore` drops the tiles the base kernel
cannot be shaped to before it ranks.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from asymtile.arch import (
    DEFAULT_ARCH,
    MICROTILE,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    check_feasible,
    from_section,
    is_int,
    require_ints,
)
from asymtile.perf import (
    EFF_SOURCE_CALIBRATION,
    EFF_SOURCE_CLOSED_FORM,
    EFF_SOURCE_SIMULATED,
    PerfEstimate,
    compute_side,
    memory_side,
    resolve_eff_micro,
)
from asymtile.pipeline import DEFAULT_MICROKERNEL, MicrokernelSpec, microkernel_for_tile
from asymtile.schedule import check_buildable

# Efficiency sources that score a tile by its own microkernel, so they can
# score only tiles that microkernel_for_tile can build a kernel for (and, for
# the simulated source, that the DAG builder can build).
KERNEL_EFF_SOURCES = (EFF_SOURCE_CLOSED_FORM, EFF_SOURCE_SIMULATED)


@dataclass(frozen=True)
class SearchSpace:
    """Tile enumeration ranges (inclusive, stepped) and candidate row-subtile
    factors. ``t_k_min`` defaults to the smallest contraction depth with a
    calibrated efficiency entry at full steady-state benefit.
    ``divisibility_problem`` is set by the search, never by a config
    document."""

    t_mc_min: int = 8
    t_mc_max: int = 512
    t_k_min: int = 64
    t_k_max: int = 512
    t_n_min: int = 8
    t_n_max: int = 512
    step: int = 8
    rho_candidates: tuple[int, ...] = (1, 2, 4, 6, 8)
    divisibility_problem: ProblemSpec | None = None

    def __post_init__(self) -> None:
        if isinstance(self.rho_candidates, list):
            object.__setattr__(self, "rho_candidates", tuple(self.rho_candidates))
        require_ints(
            self, ("t_mc_min", "t_mc_max", "t_k_min", "t_k_max", "t_n_min", "t_n_max", "step"),
            MICROTILE,
        )
        if self.step % MICROTILE != 0:
            raise ConfigError(f"step must be a positive multiple of {MICROTILE}")
        for lo, hi, name in (
            (self.t_mc_min, self.t_mc_max, "t_mc"),
            (self.t_k_min, self.t_k_max, "t_k"),
            (self.t_n_min, self.t_n_max, "t_n"),
        ):
            if lo < self.step or lo % self.step != 0 or hi < lo:
                raise ConfigError(
                    f"{name} range [{lo}, {hi}] must start at a positive "
                    f"multiple of step={self.step} and be nonempty"
                )
        if (
            not isinstance(self.rho_candidates, tuple)
            or not self.rho_candidates
            or not all(is_int(r) and r >= 1 for r in self.rho_candidates)
        ):
            raise ConfigError(
                f"rho_candidates must be a nonempty set of positive ints, "
                f"got {self.rho_candidates!r}"
            )


class EmptySearchSpace(ConfigError):
    """No tile of the search space passed the enumeration filters."""


def _builds_kernel(tile: TileConfig, kernel: MicrokernelSpec, eff_source: str) -> bool:
    """Whether :func:`microkernel_for_tile` can shape ``kernel`` to ``tile``
    and, for the simulated source, the DAG builder can build the result."""
    try:
        spec = microkernel_for_tile(tile, kernel)
        if eff_source == EFF_SOURCE_SIMULATED:
            check_buildable(spec)
    except ConfigError:
        return False
    return True


def enumerate_feasible(
    space: SearchSpace, prec: PrecisionSpec, arch: ArchSpec = DEFAULT_ARCH
) -> list[TileConfig]:
    """All tile configs in ``space`` that fit the buffer (and divide the
    space's problem, when one is set), in grid order: ``t_mc``, ``t_k``,
    ``t_n``, then ascending ``rho``.

    The grid is pruned before any tile is built. Divisibility separates by
    axis, so the ``t_mc``, ``t_k`` and ``t_n`` ranges are filtered on their
    own, each only up to ``dim // scale`` (a larger value cannot divide
    ``dim``), and the valid ``t_ma = t_mc / rho`` values (multiples of 8)
    are worked out once per ``t_mc``. :func:`check_feasible` then runs on the
    survivors only. The footprint strictly increases in ``t_ma``, ``t_mc``,
    ``t_k`` and ``t_n`` (byte costs are positive and multipliers at least
    1), so the rhos that fit at one ``(t_mc, t_k, t_n)`` are the largest
    ones, the walk over ``t_n`` stops at the first ``t_n`` where the
    smallest ``t_ma`` does not fit, and the walk over ``t_k`` stops at the
    first ``t_k`` where nothing fits at the first ``t_n``. The walk over
    ``t_mc`` stops after a ``t_mc`` that kept nothing if even ``t_ma`` =
    ``MICROTILE`` at the smallest ``t_k`` and ``t_n`` does not fit: no
    later ``t_mc`` has a smaller tile, so no range has to be walked to its
    end.
    """
    problem = space.divisibility_problem

    def axis_values(axis: int, lo: int, hi: int) -> range | list[int]:
        if problem is None:
            return range(lo, hi + 1, space.step)
        dim, scale = (problem.m, problem.k, problem.n)[axis], arch.grid_scale[axis]
        values = range(lo, min(hi, dim // scale) + 1, space.step)
        return [v for v in values if dim % (scale * v) == 0]

    t_mcs = axis_values(0, space.t_mc_min, space.t_mc_max)
    t_ks = axis_values(1, space.t_k_min, space.t_k_max)
    t_ns = axis_values(2, space.t_n_min, space.t_n_max)
    if not t_ks or not t_ns:
        return []
    rhos = sorted(set(space.rho_candidates))
    out: list[TileConfig] = []
    for t_mc in t_mcs:
        # Ascending t_ma, i.e. descending rho; reversed again on output.
        t_mas = [
            t_mc // rho
            for rho in reversed(rhos)
            if t_mc % rho == 0 and (t_mc // rho) % MICROTILE == 0
        ]
        kept_before = len(out)
        for t_k in t_ks:
            kept_any = False
            for t_n in t_ns:
                fits = []
                for t_ma in t_mas:
                    tile = TileConfig(t_ma, t_mc, t_k, t_n)
                    if not check_feasible(tile, prec, arch):
                        break
                    fits.append(tile)
                if not fits:
                    break
                kept_any = True
                out.extend(reversed(fits))
            if not kept_any:
                break
        if len(out) == kept_before and not check_feasible(
            TileConfig(MICROTILE, t_mc, t_ks[0], t_ns[0]), prec, arch
        ):
            break
    return out


class RankedResult(NamedTuple):
    """Evaluated configurations ordered best-first."""

    entries: tuple[tuple[TileConfig, PerfEstimate], ...]
    best_overall: tuple[TileConfig, PerfEstimate]
    best_symmetric: tuple[TileConfig, PerfEstimate] | None
    atb_gain: float | None


def _rank_key(item: tuple[TileConfig, PerfEstimate]):
    tile, est = item
    # Best performance first; among exact ties prefer fewer kernel switches
    # (smaller rho), then the smaller buffer, then lexicographic dims.
    return (-est.perf_array, tile.rho, est.buffer_bytes, tile.as_tuple())


def rank(
    configs: list[TileConfig],
    problem: ProblemSpec,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    eff_source: str = EFF_SOURCE_CALIBRATION,
    kernel: MicrokernelSpec = DEFAULT_MICROKERNEL,
) -> RankedResult:
    """Evaluate and order ``configs``, with ``kernel`` as the base
    microkernel spec; derive the symmetric-vs-asymmetric performance ratio
    from the best of each group.

    Each entry equals :func:`~asymtile.perf.perf_array` of its tile. The
    memory side depends on the C tile alone, so it is worked out once per
    (``t_mc``, ``t_k``, ``t_n``) and shared by the tiles that differ only in
    ``rho``; configs may come in any order. Each tile's efficiency is still
    resolved before its C tile's divisibility is checked, so the first
    failing tile raises what ``perf_array`` would."""
    if not configs:
        raise ConfigError("rank needs at least one tile config")
    memory: dict[tuple[int, int, int], tuple[Fraction, float]] = {}
    evaluated = []
    for tile in configs:
        eff = resolve_eff_micro(tile, eff_source, kernel)
        c_tile = (tile.t_mc, tile.t_k, tile.t_n)
        side = memory.get(c_tile)
        if side is None:
            side = memory[c_tile] = memory_side(tile, problem, prec, arch)
        evaluated.append((tile, compute_side(tile, eff, side, prec, arch)))
    evaluated.sort(key=_rank_key)
    best = evaluated[0]
    symmetric = [item for item in evaluated if item[0].rho == 1]
    best_symmetric = symmetric[0] if symmetric else None
    gain = (
        best[1].perf_array / best_symmetric[1].perf_array
        if best_symmetric is not None and best_symmetric[1].perf_array > 0
        else None
    )
    return RankedResult(
        entries=tuple(evaluated),
        best_overall=best,
        best_symmetric=best_symmetric,
        atb_gain=gain,
    )


def explore(
    space: SearchSpace,
    problem: ProblemSpec,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    kernel: MicrokernelSpec = DEFAULT_MICROKERNEL,
    *,
    eff_source: str = EFF_SOURCE_CALIBRATION,
) -> RankedResult:
    """Enumerate, evaluate, and rank in one step over ``space``, constrained
    to tiles that divide ``problem`` exactly, with ``kernel`` as the base
    microkernel spec. When ``eff_source`` scores each tile's own
    microkernel, only the tiles that :func:`microkernel_for_tile` can shape
    ``kernel`` to, and that the simulated source's DAG builder can build,
    are ranked. Whether a kernel builds is not monotone in any
    axis, so that filter runs on the enumerated tiles and never ends a walk.
    Raises :class:`EmptySearchSpace`, naming the filters that ran, when no
    tile is left."""
    configs = enumerate_feasible(replace(space, divisibility_problem=problem), prec, arch)
    filters = "buffer capacity and divisibility"
    if eff_source in KERNEL_EFF_SOURCES:
        configs = [tile for tile in configs if _builds_kernel(tile, kernel, eff_source)]
        filters = "buffer capacity, divisibility and kernel shape"
    if not configs:
        raise EmptySearchSpace(
            "no feasible tile configuration in the search space "
            f"({filters} filters removed everything)"
        )
    return rank(configs, problem, prec, arch, eff_source, kernel)


# -- emitters ------------------------------------------------------------------

RANK_CSV_COLUMNS = (
    "t_ma,t_mc,t_k,t_n,rho,buffer_bytes,feasible,ai_array,eff_micro,eff_core,"
    "memory_bound_tflops,compute_bound_tflops,perf_tflops,bound_kind"
)


def _sig3(value: float) -> str:
    return f"{value:.3g}"


def _kb1(value) -> str:
    return f"{float(value) / 1024:.1f}"


def _fixed4(value, floats: dict[int, str]) -> str:
    """``value`` to four decimals, converted once per distinct object.
    ``floats`` maps the id of each value seen to its text, so it must not
    outlive those values: a dead object's id can be reused."""
    text = floats.get(id(value))
    if text is None:
        text = floats[id(value)] = f"{float(value):.4f}"
    return text


def estimate_csv_row(tile: TileConfig, est: PerfEstimate, floats: dict[int, str] | None = None) -> str:
    """One CSV row of ``RANK_CSV_COLUMNS``. Rows built with one ``floats``
    dict (:func:`_fixed4`) convert a shared exact value once: the tiles of
    one C tile share one ``ai_array``, and the tiles of one ``t_k`` the
    cached calibration ``eff_micro``."""
    floats = {} if floats is None else floats
    return (
        f"{tile.t_ma},{tile.t_mc},{tile.t_k},{tile.t_n},{tile.rho},"
        f"{est.buffer_bytes},{est.feasible},{_fixed4(est.ai_array, floats)},"
        f"{_fixed4(est.eff_micro, floats)},{float(est.eff_core):.4f},"
        f"{_sig3(est.memory_bound / 1e12)},{_sig3(est.compute_bound / 1e12)},"
        f"{_sig3(est.perf_array / 1e12)},{est.bound_kind}"
    )


def ranked_to_csv(result: RankedResult) -> str:
    floats: dict[int, str] = {}
    out = io.StringIO()
    out.write(RANK_CSV_COLUMNS + "\n")
    for tile, est in result.entries:
        out.write(estimate_csv_row(tile, est, floats) + "\n")
    return out.getvalue()


# The reference-report layout: the nine column titles, and report_cells for
# the cells of one row in the same order.
REPORT_COLUMNS = (
    "Problem (MxKxN)", "L1 tile (T_MC x T_K x T_N)", "rho", "Used buffer (KB)",
    "Buffer if rho=1 (KB)", "Compute-bound (TFLOPS)", "AI (op/B)", "Memory-bound (TFLOPS)",
    "Predicted bound (TFLOPS)",
)


def report_cells(
    problem: ProblemSpec, tile: TileConfig, prec: PrecisionSpec, arch: ArchSpec,
    ai: Fraction | float, memory_bound: float, compute_bound: float,
) -> tuple[str, ...]:
    """One row of the reference-report layout. ``prec`` prices both buffer
    columns: the tile's own footprint and the footprint at rho=1. The
    bounds are in flop/s and the predicted bound is the smaller one."""
    flat = TileConfig(tile.t_mc, tile.t_mc, tile.t_k, tile.t_n)
    return (
        f"{problem.m}x{problem.k}x{problem.n}",
        f"{tile.t_mc}x{tile.t_k}x{tile.t_n}",
        str(tile.rho),
        _kb1(buffer_footprint(tile, prec, arch)),
        _kb1(buffer_footprint(flat, prec, arch)),
        _sig3(compute_bound / 1e12),
        f"{float(ai):.0f}",
        _sig3(memory_bound / 1e12),
        _sig3(min(memory_bound, compute_bound) / 1e12),
    )


def markdown_table(titles: tuple[str, ...], rows) -> str:
    """A markdown table with one header row of ``titles`` and one row per
    tuple of cells in ``rows``."""
    lines = ["| " + " | ".join(titles) + " |", "|" + "---|" * len(titles)]
    lines.extend("| " + " | ".join(cells) + " |" for cells in rows)
    return "\n".join(lines) + "\n"


def ranked_to_markdown(
    result: RankedResult,
    problem: ProblemSpec,
    prec: PrecisionSpec,
    arch: ArchSpec = DEFAULT_ARCH,
    limit: int | None = 10,
) -> str:
    """The first ``limit`` ranked tiles as a markdown table in the
    reference-report layout."""
    rows = (
        report_cells(problem, tile, prec, arch, est.ai_array, est.memory_bound, est.compute_bound)
        for tile, est in result.entries[:limit]
    )
    return markdown_table(REPORT_COLUMNS, rows)


def search_space_from_dict(raw: dict) -> SearchSpace:
    """Build a SearchSpace from JSON-style data, rejecting unknown keys."""
    return from_section(SearchSpace, raw, "search", exclude=("divisibility_problem",))
