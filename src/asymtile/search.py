"""Design-space exploration over tile configurations.

Enumerates the feasible tile grid under the buffer-capacity constraint,
evaluates each candidate with the two-sided performance model, and ranks the
results, surfacing the best overall configuration, the best symmetric
(row-subtile factor 1) configuration, and their ratio. Emitters render the
ranking as CSV and as a markdown table in the reference-report column
layout (problem, tile, rho, buffers, both bounds, the predicted bound).

The search works out each distinct value once. Enumeration prunes before
it builds: divisibility of the problem is tested one axis at a time, and
the capacity rule (:func:`~asymtile.arch.c_tile_buffers`) gives each C tile
(``t_mc``, ``t_k``, ``t_n``) the largest ``t_ma`` that fits L1 in closed
form, so a tile is built only if it is kept. Ranking looks the efficiency
source's scorer up once, leaves out the tiles whose kernel it cannot
shape, and prices each C tile's rho group in one
:func:`~asymtile.perf.compute_side` call: each distinct output tile's
intensity, and each distinct ``eff_core`` (one switch ``delta`` per kernel
launch, so ``rho`` cancels), is worked out once, and the CSV emitter
formats each distinct value once. :func:`explore` is enumeration followed
by ranking. The CSV row and the number formats are ``asymtile.perf``'s
(:func:`~asymtile.perf.estimate_csv_row`), which ``eval`` prints with.
"""

from __future__ import annotations

import io
from bisect import bisect_right
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
    c_tile_buffers,
    from_section,
    is_int,
    require_ints,
)
from asymtile.perf import (
    EFF_SOURCE_CALIBRATION,
    RANK_CSV_COLUMNS,
    PerfEstimate,
    _kb1,
    _sig3,
    compute_side,
    eff_scorer,
    estimate_csv_row,
    memory_side,
)
from asymtile.pipeline import DEFAULT_MICROKERNEL, KernelShapeError, MicrokernelSpec


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
    """No tile is left to rank: the filters or the kernel shape removed all."""


def enumerate_feasible(
    space: SearchSpace, prec: PrecisionSpec, arch: ArchSpec = DEFAULT_ARCH
) -> list[TileConfig]:
    """All tile configs in ``space`` that fit the buffer (and divide the
    space's problem, when one is set), in grid order: ``t_mc``, ``t_k``,
    ``t_n``, then ascending ``rho``.

    The grid is pruned before any tile is built. Divisibility separates by
    axis, so each of the ``t_mc``, ``t_k`` and ``t_n`` ranges is filtered
    on its own, after two cuts: at ``dim // scale`` (a larger value cannot
    divide ``dim``), and, found by bisection, past its last value whose
    smallest tile fits (``t_ma`` = ``MICROTILE``, the other dims at the
    space's minimum, or for the ``t_mc`` cut at the first kept ``t_k`` and
    ``t_n``). The footprint strictly increases in ``t_ma``, ``t_mc``,
    ``t_k`` and ``t_n`` (byte costs are positive and multipliers at least
    1), so no tile past a cut fits, and no range is walked to a far end.
    The valid ``t_ma = t_mc / rho`` values (multiples of 8) are listed once
    per ``t_mc``, ascending. Capacity is decided once per C tile:
    :func:`~asymtile.arch.c_tile_buffers` gives the largest ``t_ma`` that
    fits, in closed form, and a bisection keeps the valid ``t_ma`` up to
    it, so a ``TileConfig`` is built only for a tile that is returned. The
    walks over ``t_n`` and ``t_k`` stop at the first value that keeps
    nothing (for ``t_k``, at the first ``t_n``).
    """
    problem = space.divisibility_problem

    def axis_values(axis: int, hi: int, smallest: tuple[int, int, int]) -> range | list[int]:
        dims, lo = list(smallest), smallest[axis]
        if problem is not None:
            dim, scale = (problem.m, problem.k, problem.n)[axis], arch.grid_scale[axis]
            hi = min(hi, dim // scale)
        # Bisect for how many values have a smallest tile that fits; the largest often does.
        n_fit, n_over = 0, max(0, (hi - lo) // space.step + 1)
        probe = n_over - 1
        while n_fit < n_over:
            dims[axis] = lo + probe * space.step
            if c_tile_buffers(*dims, prec, arch)[3] < MICROTILE:
                n_over = probe
            else:
                n_fit = probe + 1
            probe = (n_fit + n_over) // 2
        values = range(lo, lo + n_fit * space.step, space.step)
        if problem is None:
            return values
        return [v for v in values if dim % (scale * v) == 0]

    lows = (space.t_mc_min, space.t_k_min, space.t_n_min)
    t_ks = axis_values(1, space.t_k_max, lows)
    t_ns = axis_values(2, space.t_n_max, lows)
    if not t_ks or not t_ns:
        return []
    t_mcs = axis_values(0, space.t_mc_max, (space.t_mc_min, t_ks[0], t_ns[0]))
    rhos = sorted(set(space.rho_candidates))
    out: list[TileConfig] = []
    for t_mc in t_mcs:
        # Ascending t_ma, i.e. descending rho; reversed again on output.
        t_mas = [
            t_mc // rho
            for rho in reversed(rhos)
            if t_mc % rho == 0 and (t_mc // rho) % MICROTILE == 0
        ]
        for t_k in t_ks:
            kept_any = False
            for t_n in t_ns:
                fits = bisect_right(t_mas, c_tile_buffers(t_mc, t_k, t_n, prec, arch)[3])
                if not fits:
                    break
                kept_any = True
                out.extend(TileConfig(t_ma, t_mc, t_k, t_n) for t_ma in reversed(t_mas[:fits]))
            if not kept_any:
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
    return (-est.perf_array, tile.rho, est.buffer_bytes, tile)


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

    The scorer of ``eff_source`` is looked up once. A tile whose kernel it
    cannot shape (:class:`~asymtile.pipeline.KernelShapeError`; not monotone
    in any axis, so enumeration cannot prune on it) is left out, and
    :class:`EmptySearchSpace` is raised if none is left. Each
    entry equals :func:`~asymtile.perf.perf_array` of its tile. The memory
    side depends on the C tile alone, so the tiles are grouped by (``t_mc``,
    ``t_k``, ``t_n``), in any input order: the memory side is looked up
    once per group and :func:`~asymtile.perf.compute_side` prices each
    group in one call, both through memos that live for this call, so each
    distinct intensity and ``eff_core`` is one object. Each tile is scored
    before its C tile's divisibility is checked, so the first failing tile
    not left out raises what ``perf_array`` would."""
    scorer = eff_scorer(eff_source)
    sides, cores = {}, {}
    groups: dict[tuple[int, int, int], tuple[tuple[Fraction, float], list, list]] = {}
    for tile in configs:
        try:
            eff = scorer(tile, kernel)
        except KernelShapeError:
            continue
        c_tile = tile[1:]
        group = groups.get(c_tile)
        if group is None:
            group = groups[c_tile] = (memory_side(tile, problem, prec, arch, sides), [], [])
        group[1].append(tile)
        group[2].append(eff)
    if not groups:
        raise EmptySearchSpace("rank needs at least one tile config it can score")
    evaluated = []
    for memory, tiles, effs in groups.values():
        evaluated.extend(zip(tiles, compute_side(tiles, effs, memory, prec, arch, cores)))
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
    """:func:`enumerate_feasible` over ``space``, constrained to tiles that
    divide ``problem`` exactly, then :func:`rank` with ``kernel`` as the
    base microkernel spec. Raises :class:`EmptySearchSpace`, naming the
    filters that ran, when no tile is left."""
    configs = enumerate_feasible(replace(space, divisibility_problem=problem), prec, arch)
    try:
        return rank(configs, problem, prec, arch, eff_source, kernel)
    except EmptySearchSpace:
        # rank accepted eff_source; every source but calibration shapes a kernel.
        filters = "buffer capacity, divisibility and kernel shape"
        if eff_source == EFF_SOURCE_CALIBRATION:
            filters = "buffer capacity and divisibility"
        raise EmptySearchSpace(
            f"no feasible tile configuration in the search space ({filters} filters removed everything)"
        ) from None


# -- emitters ------------------------------------------------------------------

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
