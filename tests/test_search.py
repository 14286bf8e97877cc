import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from conftest import reference_buffer_terms
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    c_tile_buffers,
    check_feasible,
    derive_l2_tiles,
)
from asymtile import perf
from asymtile.perf import EFF_SOURCE_CALIBRATION, EFF_SOURCES, perf_array
from asymtile.pipeline import DEFAULT_MICROKERNEL, KernelShapeError, microkernel_for_tile
from asymtile.schedule import build_microkernel_dag, derive_cluster_shape
from asymtile.search import (
    EmptySearchSpace,
    RankedResult,
    SearchSpace,
    enumerate_feasible,
    explore,
    rank,
    ranked_to_csv,
    ranked_to_markdown,
    search_space_from_dict,
)

CONFIG1 = PRECISION_PRESETS["config1"]
PROBLEM = ProblemSpec(4096, 4096, 2048)


def small_space(**overrides) -> SearchSpace:
    base = dict(
        t_mc_min=64,
        t_mc_max=256,
        t_k_min=64,
        t_k_max=128,
        t_n_min=64,
        t_n_max=128,
        step=8,
        divisibility_problem=PROBLEM,
    )
    base.update(overrides)
    return SearchSpace(**base)


def reference_enumerate(space, prec, arch):
    """The full-grid loop: build every tile, then test divisibility and
    capacity on it."""
    out = []
    for t_mc in range(space.t_mc_min, space.t_mc_max + 1, space.step):
        for t_k in range(space.t_k_min, space.t_k_max + 1, space.step):
            for t_n in range(space.t_n_min, space.t_n_max + 1, space.step):
                for rho in sorted(set(space.rho_candidates)):
                    if t_mc % rho != 0 or (t_mc // rho) % 8 != 0:
                        continue
                    tile = TileConfig(t_mc // rho, t_mc, t_k, t_n)
                    problem = space.divisibility_problem
                    if problem is not None:
                        t_m_l2, t_k_l2, t_n_l2 = derive_l2_tiles(tile, arch)
                        if problem.m % t_m_l2 or problem.k % t_k_l2 or problem.n % t_n_l2:
                            continue
                    if check_feasible(tile, prec, arch):
                        out.append(tile)
    return out


def test_space_validation():
    with pytest.raises(ConfigError):
        SearchSpace(step=4)
    with pytest.raises(ConfigError):
        SearchSpace(t_mc_min=128, t_mc_max=64)
    with pytest.raises(ConfigError):
        SearchSpace(rho_candidates=())


@pytest.mark.parametrize(
    "overrides",
    [
        {"step": "8"},
        {"step": 8.0},
        {"t_mc_max": None},
        {"t_k_min": True},
        {"rho_candidates": ("x",)},
        {"rho_candidates": (1.5,)},
        {"rho_candidates": (True,)},
        {"rho_candidates": 4},
    ],
)
def test_space_rejects_non_integers(overrides):
    with pytest.raises(ConfigError):
        SearchSpace(**overrides)


def test_enumerate_contains_reference_and_excludes_infeasible():
    tiles = enumerate_feasible(small_space(), CONFIG1)
    assert TileConfig(32, 128, 64, 128) in tiles
    assert TileConfig(128, 128, 64, 128) not in tiles
    assert all(check_feasible(t, CONFIG1) for t in tiles)


def test_enumerate_matches_brute_force():
    space = small_space()
    assert enumerate_feasible(space, CONFIG1) == reference_enumerate(space, CONFIG1, DEFAULT_ARCH)


byte_costs = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)


@st.composite
def search_cases(draw):
    n_rows, n_cols = draw(st.sampled_from([1, 2, 3, 4])), draw(st.sampled_from([1, 2, 4, 6, 8]))
    arch = ArchSpec(
        n_rows=n_rows,
        n_cols=n_cols,
        buffer_multiplier_a=draw(st.integers(1, 3)),
        buffer_multiplier_b=draw(st.integers(1, 3)),
        buffer_multiplier_c=draw(st.integers(1, 3)),
    )
    prec = PrecisionSpec(draw(byte_costs), draw(byte_costs), draw(byte_costs))
    step = draw(st.sampled_from([8, 16, 24]))
    bounds, pivot = {}, {}
    for axis in ("t_mc", "t_k", "t_n"):
        lo = step * draw(st.integers(1, 4))
        hi = lo + step * draw(st.integers(0, 8))
        bounds.update({f"{axis}_min": lo, f"{axis}_max": hi})
        pivot[axis] = draw(st.sampled_from(range(lo, hi + 1, step)))
    # Put the capacity near the footprint of a tile inside the space, so
    # that the capacity boundary cuts through the grid.
    pivot = TileConfig(pivot["t_mc"], pivot["t_mc"], pivot["t_k"], pivot["t_n"])
    capacity = buffer_footprint(pivot, prec, arch) // draw(st.integers(1, 4))
    arch = arch._replace(l1_capacity=max(1, capacity + draw(st.integers(-16, 16))))
    rhos = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
    # Dims with many small factors, so that some tiles divide them.
    dims = st.sampled_from([2**11 * 3**3, 2**12 * 3**3, 2**12 * 3**2 * 5])
    problem = ProblemSpec(draw(dims), draw(dims), draw(dims)) if draw(st.booleans()) else None
    space = SearchSpace(
        step=step, rho_candidates=rhos, divisibility_problem=problem, **bounds
    )
    return space, prec, arch


def test_divisibility_scales_each_axis_by_the_grid():
    # The default 4x8 grid turns an L1 tile into an L2 tile of
    # (4*t_mc, t_k, 8*t_n). With m = 384 = 2^7*3 and n = 768 = 2^8*3, the
    # L2 tile divides the problem only for t_mc | 96 and t_n | 96, though
    # t_mc = 128 divides 384 and t_n = 128 divides 768.
    problem = ProblemSpec(384, 512, 768)
    space = small_space(t_mc_min=8, t_n_min=8, divisibility_problem=problem)
    tiles = enumerate_feasible(space, CONFIG1)
    assert {t.t_mc for t in tiles} == {8, 16, 24, 32, 48, 96}
    assert {t.t_n for t in tiles} == {8, 16, 24, 32, 48, 96}
    assert check_feasible(TileConfig(32, 128, 64, 128), CONFIG1)
    assert TileConfig(32, 128, 64, 128) not in tiles
    assert tiles == reference_enumerate(space, CONFIG1, DEFAULT_ARCH)


# Capped: a 2 KB L1 cuts every range below its upper end (no kept t_mc
# above 64, t_k above 32 or t_n above 48).
@settings(max_examples=150)
@given(case=search_cases())
@example(case=(
    SearchSpace(t_mc_max=160, t_k_min=8, t_k_max=160, t_n_max=160,
                divisibility_problem=ProblemSpec(*[2**12 * 3**3] * 3)),
    CONFIG1,
    DEFAULT_ARCH._replace(l1_capacity=2048),
))
def test_pruned_enumeration_equals_full_grid(case):
    space, prec, arch = case
    assert enumerate_feasible(space, prec, arch) == reference_enumerate(space, prec, arch)


@settings(max_examples=100)
@given(
    case=search_cases(),
    chains=st.integers(1, 5),
    source=st.sampled_from(["closed_form", "simulated"]),
)
# Five chains share operands in a 1x5 cluster, 6 loads a steady round, more
# than the 4 prolog loads: the simulated source cannot build a t_k = 48 kernel.
@example(
    case=(
        SearchSpace(
            t_mc_min=32, t_mc_max=80, t_k_min=48, t_k_max=48, t_n_min=16, t_n_max=32,
            step=16, rho_candidates=(2,),
            divisibility_problem=ProblemSpec(184320, 55296, 55296),
        ),
        PrecisionSpec(Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)),
        ArchSpec(l1_capacity=512, n_rows=1, n_cols=1, buffer_multiplier_a=1, buffer_multiplier_b=1),
    ),
    chains=5,
    source="simulated",
)
def test_kernel_sources_keep_the_buildable_full_grid_tiles(case, chains, source):
    space, prec, arch = case
    problem = space.divisibility_problem
    assume(problem is not None)
    kernel = DEFAULT_MICROKERNEL._replace(chains=chains)
    # Buildable: whole clusters of 64 outputs per chain. Every tile dim is a
    # multiple of 8, so every t_k makes whole 8-element updates. The
    # simulated source also builds the DAG: a kernel of more than one round
    # (t_k > 8 * chains) needs a prolog with the loads of one steady round,
    # one per row and column of the shared-operand cluster.
    rows, cols = derive_cluster_shape(chains)
    prolog_covers_a_round = kernel.prolog_load_count >= rows + cols
    want = [
        t for t in reference_enumerate(space, prec, arch)
        if t.t_ma * t.t_n % (64 * chains) == 0
        and (source != "simulated" or prolog_covers_a_round or t.t_k <= 8 * chains)
    ]
    if not want:
        with pytest.raises(EmptySearchSpace):
            explore(space, problem, prec, arch, kernel, eff_source=source)
        return
    result = explore(space, problem, prec, arch, kernel, eff_source=source)
    assert sorted(t.as_tuple() for t, _ in result.entries) == sorted(t.as_tuple() for t in want)


@settings(max_examples=100)
@given(
    case=search_cases(),
    source=st.sampled_from([EFF_SOURCE_CALIBRATION, "closed_form"]),
    delta=st.integers(0, 800),
    bandwidth=st.sampled_from([10e9, 65e9, 250e9, 4e12]),
)
def test_the_smallest_rho_that_fits_ranks_first_in_each_c_tile(case, source, delta, bandwidth):
    # At a fixed C tile (t_mc, t_k, t_n) the intensity is the same for every
    # rho, eff_core falls as rho grows and neither source's eff_micro rises
    # with it, so the largest t_ma that fits L1 (and, under a kernel source,
    # builds) ranks first. Fitting is judged here on the exact buffer terms;
    # the closed-form bound max_t_ma must agree with it.
    space, prec, arch = case
    problem = space.divisibility_problem or ProblemSpec(*[2**12 * 3**3] * 3)
    arch = arch._replace(switch_overhead_delta=delta, offchip_bw=bandwidth)
    try:
        result = explore(space, problem, prec, arch, eff_source=source)
    except EmptySearchSpace:
        return
    first: dict[tuple[int, int, int], TileConfig] = {}
    for tile, _ in result.entries:
        first.setdefault((tile.t_mc, tile.t_k, tile.t_n), tile)
    for (t_mc, t_k, t_n), tile in first.items():
        max_t_ma = c_tile_buffers(t_mc, t_k, t_n, prec, arch)[3]
        candidates = [
            TileConfig(t_mc // rho, t_mc, t_k, t_n) for rho in set(space.rho_candidates)
            if t_mc % rho == 0 and (t_mc // rho) % 8 == 0
        ]
        fitting = []
        for candidate in candidates:
            fits = math.ceil(sum(reference_buffer_terms(candidate, prec, arch))) <= arch.l1_capacity
            assert fits == (candidate.t_ma <= max_t_ma), candidate
            if fits and (source == EFF_SOURCE_CALIBRATION or shape_error(candidate, source) is None):
                fitting.append(candidate.t_ma)
        assert tile.t_ma == max(fitting), (tile, fitting)


# A precision whose buffer terms sum to a fraction of a byte at the tile
# below, so the ceiling of the footprint is exercised.
THIRDS = PrecisionSpec(Fraction(5, 3), Fraction(5, 4), Fraction(7, 6))


@pytest.mark.parametrize("prec", [CONFIG1, THIRDS], ids=["config1", "thirds"])
def test_capacity_equal_to_the_footprint_keeps_the_tile(prec):
    tile = TileConfig(32, 128, 64, 128)
    exact = buffer_footprint(tile, prec)
    assert exact == math.ceil(sum(reference_buffer_terms(tile, prec, DEFAULT_ARCH)))
    space = SearchSpace(
        t_mc_min=128, t_mc_max=128, t_k_min=64, t_k_max=64, t_n_min=128, t_n_max=128,
        rho_candidates=(4,),
    )
    for capacity, kept in ((exact, True), (exact - 1, False)):
        arch = DEFAULT_ARCH._replace(l1_capacity=capacity)
        assert check_feasible(tile, prec, arch) is kept
        assert (c_tile_buffers(128, 64, 128, prec, arch)[3] >= tile.t_ma) is kept
        assert enumerate_feasible(space, prec, arch) == ([tile] if kept else [])
    assert sum(reference_buffer_terms(tile, THIRDS, DEFAULT_ARCH)).denominator > 1


def test_enumerate_builds_only_the_tiles_it_returns(monkeypatch):
    # The closed-form bound decides every tile before one is built, so the
    # reference space constructs one TileConfig per tile it returns.
    built = []
    validate = TileConfig.__new__

    def counting(cls, *dims):
        built.append(dims)
        return validate(cls, *dims)

    monkeypatch.setattr(TileConfig, "__new__", staticmethod(counting))
    tiles = enumerate_feasible(replace(SearchSpace(), divisibility_problem=PROBLEM), CONFIG1)
    assert len(tiles) == 215
    assert built == [tile.as_tuple() for tile in tiles]


def test_ranges_past_the_problem_add_nothing():
    # No L1 dim whose grid-scaled L2 dim exceeds the problem's can divide
    # it, so ranges far past the problem give the tiles of ranges that stop
    # at it, and without walking the values in between.
    dims = (PROBLEM.m, PROBLEM.k, PROBLEM.n)
    bound = {
        f"{axis}_max": dim // scale
        for axis, dim, scale in zip(("t_mc", "t_k", "t_n"), dims, DEFAULT_ARCH.grid_scale)
    }
    huge = small_space(t_mc_max=10**12, t_k_max=10**12, t_n_max=10**12)
    assert enumerate_feasible(huge, CONFIG1) == enumerate_feasible(small_space(**bound), CONFIG1)


def test_a_range_past_capacity_is_cut_without_a_walk():
    # m = 2**62 divides by every power-of-two t_mc, so only capacity ends
    # the t_mc range; listing it up to m // 4 would take about 2**57 steps.
    problem = ProblemSpec(2**62, 4096, 2048)

    def space(hi):
        return SearchSpace(t_mc_max=hi, divisibility_problem=problem)

    tiles = enumerate_feasible(space(4096), CONFIG1)
    assert len(tiles) == 216
    assert enumerate_feasible(space(2**62), CONFIG1) == tiles


def test_enumeration_without_a_problem_stops_at_capacity():
    # With no problem set, only capacity ends the walks. Past the first t_mc
    # whose smallest tile (t_ma = 8, the smallest t_k and t_n) overflows L1,
    # no t_mc adds a tile, so ranges of 10**12 give the tiles of ranges that
    # stop at 4096, without walking (or listing) the values in between.
    def space(hi):
        return SearchSpace(t_mc_max=hi, t_k_max=hi, t_n_max=hi)

    tiles = enumerate_feasible(space(4096), CONFIG1)
    assert len(tiles) == 14_498
    assert enumerate_feasible(space(10**12), CONFIG1) == tiles


KERNEL_FILTERS = "buffer capacity, divisibility and kernel shape"


@pytest.mark.parametrize(
    "source, space, problem, filters",
    [
        ("calibration", SearchSpace(), ProblemSpec(100, 100, 100), "buffer capacity and divisibility"),
        ("closed_form", SearchSpace(), ProblemSpec(100, 100, 100), KERNEL_FILTERS),
        # Only the kernel shape filter empties this space.
        ("simulated", SearchSpace(t_mc_max=16, t_n_max=8), PROBLEM, KERNEL_FILTERS),
    ],
)
def test_explore_empty_space_names_its_filters(source, space, problem, filters):
    with pytest.raises(EmptySearchSpace) as raised:
        explore(space, problem, CONFIG1, eff_source=source)
    assert isinstance(raised.value, ConfigError)
    assert str(raised.value) == (
        f"no feasible tile configuration in the search space ({filters} filters removed everything)"
    )


def test_enumerate_tiny_capacity_is_empty():
    arch = DEFAULT_ARCH._replace(l1_capacity=1)
    assert enumerate_feasible(small_space(), CONFIG1, arch) == []


def test_enumerate_rho_one_gives_symmetric_subspace():
    tiles = enumerate_feasible(small_space(rho_candidates=(1,)), CONFIG1)
    assert tiles
    assert all(t.rho == 1 for t in tiles)


def test_capacity_monotonicity():
    space = small_space()
    small = set(enumerate_feasible(space, CONFIG1))
    bigger = set(
        enumerate_feasible(space, CONFIG1, DEFAULT_ARCH._replace(l1_capacity=128 * 1024))
    )
    assert small <= bigger
    assert len(bigger) > len(small)


def test_rank_rejects_empty():
    with pytest.raises(ConfigError):
        rank([], PROBLEM, CONFIG1)


def test_rank_single_symmetric_config():
    tile = TileConfig(64, 64, 64, 128)
    result = rank([tile], PROBLEM, CONFIG1)
    assert result.best_overall[0] == tile
    assert result.best_symmetric[0] == tile
    assert result.atb_gain == 1.0


def test_closed_form_explore_shapes_each_tile_once(monkeypatch):
    # The reference space keeps 215 tiles; the closed-form source can score
    # the 167 whose kernel can be shaped. Each of the 215 is shaped once, by
    # its scorer, and no filter shapes it again beforehand.
    calls = []

    def counting(tile, base):
        calls.append(tile)
        return microkernel_for_tile(tile, base)

    for name, module in list(sys.modules.items()):
        if name.startswith("asymtile.") and getattr(module, "microkernel_for_tile", None) is microkernel_for_tile:
            monkeypatch.setattr(module, "microkernel_for_tile", counting)
    result = explore(SearchSpace(), PROBLEM, CONFIG1, eff_source="closed_form")
    assert len(result.entries) == 167
    assert len(calls) == 215


def test_rank_prices_each_distinct_intensity_and_eff_core_once(monkeypatch):
    # The reference search ranks 215 tiles in 99 C tiles, but intensity
    # reads only the output tile (t_mc, t_n) and eff_core only eff_micro and
    # one launch's work t_ma·t_n·t_k, so rank works out each distinct one once.
    calls = []
    ai_tile = perf.ai_tile

    def counting(t_m, t_n, k, prec):
        calls.append((t_m, t_n))
        return ai_tile(t_m, t_n, k, prec)

    monkeypatch.setattr(perf, "ai_tile", counting)
    result = explore(SearchSpace(), PROBLEM, CONFIG1)
    output_tiles = {(tile.t_mc, tile.t_n) for tile, _ in result.entries}
    assert len(calls) == len(set(calls)) == len(output_tiles) == 35
    # The CSV emitter formats a value once per object, so equal eff_cores of
    # equal (eff_micro, launch work) must be one object.
    shared = {}
    for tile, est in result.entries:
        key = (est.eff_micro, tile.t_ma * tile.t_n * tile.t_k)
        assert shared.setdefault(key, est.eff_core) is est.eff_core
    assert len(shared) == 8


def test_rank_tells_equal_launch_work_at_unequal_eff_micro_apart():
    # Both tiles launch 2·16·32·64 = 2·32·32·32 flops, at calibrated
    # efficiencies 63/100 (t_k = 64) and 41/100 (t_k = 32).
    tiles = [TileConfig(16, 32, 64, 32), TileConfig(32, 32, 32, 32)]
    result = rank(tiles, PROBLEM, CONFIG1)
    assert {est.eff_micro for _, est in result.entries} == {Fraction(63, 100), Fraction(41, 100)}
    for tile, est in result.entries:
        want = perf_array(tile, PROBLEM, CONFIG1)
        for field in want._fields:
            assert type(getattr(est, field)) is type(getattr(want, field)), field
            assert getattr(est, field) == getattr(want, field), (tile, field)
    assert result.entries[0][1].eff_core != result.entries[1][1].eff_core


def test_reference_search_outcome():
    result = explore(SearchSpace(), PROBLEM, CONFIG1)
    best_tile, best_est = result.best_overall
    assert best_tile == TileConfig(32, 128, 64, 128)
    assert best_est.perf_array == pytest.approx(26.624e12)
    sym_tile, sym_est = result.best_symmetric
    assert sym_tile == TileConfig(128, 128, 64, 64)
    assert sym_est.perf_array == pytest.approx(19.017e12, rel=1e-4)
    assert result.atb_gain == pytest.approx(1.4, abs=1e-9)
    assert result.atb_gain >= 1.3


def test_rank_is_deterministic_and_sorted():
    tiles = enumerate_feasible(small_space(), CONFIG1)
    a = rank(tiles, PROBLEM, CONFIG1)
    b = rank(tiles, PROBLEM, CONFIG1)
    assert a == b
    perfs = [est.perf_array for _, est in a.entries]
    assert perfs == sorted(perfs, reverse=True)


# C tiles (t_mc, t_k, t_n) and the rhos each admits (t_ma = t_mc / rho a
# multiple of 8). Every L2 tile divides PROBLEM; the larger ones overflow L1,
# and no kernel can be shaped to t_ma = 8 with t_n = 16.
RANK_C_TILES = [
    (t_mc, t_k, t_n) for t_mc in (32, 64, 128, 256) for t_k in (64, 128) for t_n in (16, 32, 128, 256)
]
RANK_RHOS = (1, 2, 4, 8)


def shape_error(tile, source):
    """The message of the error shaping the default kernel to ``tile`` under
    a kernel ``source`` raises (building it too, under the simulated one),
    or None when the source can score the tile."""
    if source == EFF_SOURCE_CALIBRATION:
        return None
    try:
        spec = microkernel_for_tile(tile, DEFAULT_MICROKERNEL)
        if source == "simulated":
            build_microkernel_dag(spec)
    except KernelShapeError as exc:
        return str(exc)
    return None


@st.composite
def c_tile_lists(draw, c_tiles):
    """A shuffled list of tiles over a few C tiles, several rhos each, kernel
    sources' unshapable tiles included."""
    tiles = []
    for t_mc, t_k, t_n in draw(st.lists(st.sampled_from(c_tiles), min_size=1, max_size=5, unique=True)):
        rhos = [r for r in RANK_RHOS if t_mc % r == 0 and (t_mc // r) % 8 == 0]
        for rho in draw(st.lists(st.sampled_from(rhos), min_size=1, max_size=len(rhos), unique=True)):
            tiles.append(TileConfig(t_mc // rho, t_mc, t_k, t_n))
    return draw(st.permutations(tiles))


@st.composite
def rank_inputs(draw):
    source = draw(st.sampled_from(tuple(EFF_SOURCES)))
    prec = PRECISION_PRESETS[draw(st.sampled_from(sorted(PRECISION_PRESETS)))]
    return draw(c_tile_lists(RANK_C_TILES)), prec, source


@settings(max_examples=60)
@given(rank_inputs())
def test_rank_entries_equal_perf_array(case):
    # rank leaves out exactly the tiles whose kernel the source cannot
    # shape, and perf_array still raises the shaping error on those.
    tiles, prec, source = case
    errors = [shape_error(tile, source) for tile in tiles]
    for tile, error in zip(tiles, errors):
        if error is not None:
            with pytest.raises(KernelShapeError, match=f"^{re.escape(error)}$"):
                perf_array(tile, PROBLEM, prec, eff_source=source)
    scored = [tile for tile, error in zip(tiles, errors) if error is None]
    if not scored:
        with pytest.raises(EmptySearchSpace):
            rank(tiles, PROBLEM, prec, eff_source=source)
        return
    result = rank(tiles, PROBLEM, prec, eff_source=source)
    assert sorted(tile.as_tuple() for tile, _ in result.entries) == sorted(t.as_tuple() for t in scored)
    for tile, est in result.entries:
        want = perf_array(tile, PROBLEM, prec, eff_source=source)
        for field in want._fields:
            got_value, want_value = getattr(est, field), getattr(want, field)
            assert type(got_value) is type(want_value), field
            assert got_value == want_value, (tile, field)


# K = 64·63: t_k of 64 or 192 divides it, 128 or 256 does not, so these
# C tiles break divisibility through t_k alone.
K_ONLY_PROBLEM = ProblemSpec(4096, 64 * 63, 2048)


@settings(max_examples=60)
@given(st.data())
def test_rank_raises_perf_arrays_error_for_the_first_t_k_that_does_not_divide(data):
    source = data.draw(st.sampled_from(tuple(EFF_SOURCES)))
    good = data.draw(c_tile_lists([(t_mc, t_k, t_n) for t_mc, t_k, t_n in RANK_C_TILES
                                   if t_k == 64] + [(64, 192, 128)]))
    tiles = list(good)
    # Each bad tile goes after a good tile of the same (t_mc, t_n), so a
    # memo that left t_k out of its key would serve it the good one's side.
    for _ in range(data.draw(st.integers(1, 3))):
        sibling = data.draw(st.sampled_from(good))
        bad = TileConfig(sibling.t_ma, sibling.t_mc, data.draw(st.sampled_from((128, 256))), sibling.t_n)
        after = tiles.index(sibling) + 1
        tiles.insert(data.draw(st.integers(after, len(tiles))), bad)
    # rank leaves out the tiles whose kernel cannot be shaped, so the first
    # error it raises is that of the first other tile that fails.
    first_error = None
    for tile in tiles:
        if shape_error(tile, source) is not None:
            continue
        try:
            perf_array(tile, K_ONLY_PROBLEM, CONFIG1, eff_source=source)
        except ConfigError as exc:
            first_error = str(exc)
            break
    assume(first_error is not None)
    assert "is not divisible by its array-level tile" in first_error
    with pytest.raises(ConfigError) as caught:
        rank(tiles, K_ONLY_PROBLEM, CONFIG1, eff_source=source)
    assert str(caught.value) == first_error


def test_gain_never_below_one_when_symmetric_present():
    result = explore(SearchSpace(), PROBLEM, CONFIG1)
    assert result.atb_gain >= 1.0


def test_tie_break_prefers_fewer_switches():
    # Two tiles with identical memory-bound performance: the lower-rho one
    # must rank first even though the higher-rho one has the smaller buffer.
    lo = TileConfig(32, 128, 64, 128)  # rho=4
    hi = TileConfig(16, 128, 64, 128)  # rho=8, smaller footprint
    assert buffer_footprint(hi, CONFIG1) < buffer_footprint(lo, CONFIG1)
    result = rank([hi, lo], PROBLEM, CONFIG1)
    assert result.entries[0][0] == lo
    assert result.entries[0][1].perf_array == result.entries[1][1].perf_array


def test_config2_packed_ordering_efficiency_beats_intensity():
    packed = PRECISION_PRESETS["config2_packed"]
    deep = TileConfig(32, 192, 128, 96)  # rho=6, higher eff at t_k=128
    wide = TileConfig(32, 256, 64, 128)  # rho=8, higher intensity
    assert check_feasible(deep, packed) and check_feasible(wide, packed)
    problem = ProblemSpec(3072, 4096, 3072)
    result = rank([wide, deep], problem, packed)
    assert result.entries[0][0] == deep
    assert result.entries[0][1].bound_kind == "compute"
    assert result.entries[0][1].eff_core > result.entries[1][1].eff_core
    assert result.entries[0][1].ai_array < result.entries[1][1].ai_array


def test_csv_emitters_are_stable():
    result = explore(small_space(), PROBLEM, CONFIG1)
    first = ranked_to_csv(result)
    assert first == ranked_to_csv(result)
    lines = first.strip().splitlines()
    assert lines[0].startswith("t_ma,t_mc,t_k,t_n,rho,")
    assert len(lines) == len(result.entries) + 1


def test_markdown_table_layout():
    result = explore(small_space(), PROBLEM, CONFIG1)
    text = ranked_to_markdown(result, PROBLEM, CONFIG1, limit=3)
    lines = text.strip().splitlines()
    assert lines[0].count("|") == 10
    assert len(lines) == 2 + 3
    assert "4096x4096x2048" in lines[2]
    assert "128x64x128" in lines[2]


def test_space_from_dict():
    space = search_space_from_dict({"t_k_min": 64, "t_k_max": 64, "rho_candidates": [1, 4]})
    assert space.rho_candidates == (1, 4)
    with pytest.raises(ConfigError):
        search_space_from_dict({"t_q_min": 8})
    for rhos in (["x"], [1.5], ["2"]):
        with pytest.raises(ConfigError):
            search_space_from_dict({"rho_candidates": rhos})
