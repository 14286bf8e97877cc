"""The three seeded workloads of the asymtile benchmark.

A workload turns ``(seed, pass index)`` into the inputs of one pass, made
before the pass is timed, and runs the pass as a list of operations. Every
operation calls the public API (``dse`` goes through ``asymtile.cli.main``),
checks what comes back, and records the simulated statistics it saw in the
pass fingerprint. Each call into a package module is a span named
``<module>.<what>``, so a traced pass times every layer the benchmark
touches. ``Recorder.run`` makes the calls that are the operation's work and
adds their time to the pass's program time; the benchmark's extra checks
(re-evaluating ``dse`` rows, comparing GEMM results element by element,
hashing CSVs) call through ``Recorder.tracer`` and stay out of it.

Why these workloads:

- ``dse``: ``asymtile search --emit csv`` on the default SearchSpace with the
  calibration efficiency source. Enumeration is about 90% of a search, so a
  faster search shows here. ``schedule``, ``movement`` and ``gemm`` are never
  called, so a change to them must leave this workload unchanged.
- ``kernels``: microkernel efficiency of buildable design-space tiles, which
  repeat a few kernel specs, next to random microkernel specs with
  non-default build options, which never repeat. A result cache would show
  on the first half and not on the second. ``schedule`` does nearly all the
  work and search is off the path.
- ``oracles``: the output-stationary loop nest driven symbolically by the
  movement walker and numerically by the tiled GEMM executor. Each payload
  has its own throughput, so a change that speeds up one and slows the other
  shows.

Passes are sized by work (tile MACs, instructions, nest steps, GEMM shapes)
rather than by operation count, so a pass costs about the same whatever the
seed draws.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import signal
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from asymtile import cli
from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    ProblemSpec,
    TileConfig,
    buffer_footprint,
    check_feasible,
    precision_from_value,
    problem_from_value,
)
from asymtile.gemm import Matrix, naive_gemm, tiled_gemm
from asymtile.intensity import ai_array, ai_tile
from asymtile.movement import measured_ai, random_divisible_case, simulate_movement
from asymtile.perf import perf_array
from asymtile.pipeline import eff_micro, microkernel_for_tile, total_latency
from asymtile.schedule import (
    build_microkernel_dag,
    check_bounds_hold,
    random_microkernel_spec,
    schedule,
    slots_for,
)
from asymtile.search import SearchSpace, enumerate_feasible

CSV_DIGESTS_PATH = Path(__file__).resolve().parent / "csv_sha256.json"

MENU_DIMS = (1024, 2048, 4096, 8192)
PRESETS = ("config1", "config2", "config2_packed", "config3")
DSE_MENU = tuple(
    (f"{m}x{k}x{n}", prec)
    for m, k, n in itertools.product(MENU_DIMS, repeat=3)
    for prec in PRESETS
)
REFERENCE_PAIR = ("4096x4096x2048", "config1")
REFERENCE_PROBLEM = problem_from_value(REFERENCE_PAIR[0])
REFERENCE_PREC = PRECISION_PRESETS[REFERENCE_PAIR[1]]
REFERENCE_TILE = TileConfig(32, 128, 64, 128)
# Values acceptance gate 9 checks on the reference search.
REFERENCE_TFLOPS = "26.6"
MIN_ATB_GAIN = 1.3
# Acceptance gate 7's tolerance for the tiled GEMM against the naive one.
GEMM_RTOL = 1e-9
BOUNDARIES = ("core", "array")
# Output elements of one microkernel cluster of the default spec.
KERNEL_OUTPUTS = 256
# Fixed GEMM shapes of equal MAC count (262,144), so every instance costs
# about the same; the seed picks the shape order, the tile and the values.
GEMM_SHAPES = ((64, 64, 64), (32, 64, 128))


@dataclass(frozen=True)
class Sizes:
    """Work in one pass of each workload."""

    tile_macs: int
    random_instrs: int
    case_steps: int
    gemm_instances: int


FULL = Sizes(tile_macs=6_000_000, random_instrs=18_000, case_steps=40_000, gemm_instances=24)
SMOKE = Sizes(tile_macs=400_000, random_instrs=1_200, case_steps=4_000, gemm_instances=1)


def search_argv(pair: tuple[str, str], *extra: str) -> list[str]:
    problem, prec = pair
    return ["search", "--problem", problem, "--precision", prec, *extra, "--emit", "csv"]


def grid_points(space: SearchSpace) -> int:
    """Points of the (t_mc, t_k, t_n, rho) grid a search walks."""
    def count(lo: int, hi: int) -> int:
        return len(range(lo, hi + 1, space.step))

    return (
        count(space.t_mc_min, space.t_mc_max)
        * count(space.t_k_min, space.t_k_max)
        * count(space.t_n_min, space.t_n_max)
        * len(set(space.rho_candidates))
    )


def nest_steps(problem: ProblemSpec, tile: TileConfig, boundary: str) -> int:
    """A-subtile staging steps of the loop nest: m/t_mc * n/t_n * k/t_k * rho,
    with the array boundary's tile spanning the whole core grid."""
    rows = DEFAULT_ARCH.n_rows if boundary == "array" else 1
    cols = DEFAULT_ARCH.n_cols if boundary == "array" else 1
    return (
        problem.m // (rows * tile.t_mc)
        * (problem.n // (cols * tile.t_n))
        * (problem.k // tile.t_k)
        * tile.rho
    )


def kernel_instrs(spec) -> int:
    """Instructions a spec's DAG is expected to hold, from its fields alone:
    per cluster, n_accum VMACs with r_load loads each, the prolog loads and
    n_store stores per chain. It tracks scheduling work far better than the
    VMAC count does."""
    return spec.n_clusters * (
        spec.n_accum * (1 + spec.r_load) + spec.n_store * spec.chains + spec.prolog_load_count
    )


def closed_form_ai(rec: "Recorder", problem, tile, prec, boundary: str) -> Fraction:
    if boundary == "core":
        return rec.run("intensity.ai_tile", ai_tile, tile.t_mc, tile.t_n, problem.k, prec).ai
    return rec.run("intensity.ai_array", ai_array, tile, problem.k, prec).ai


def _reference_step(table: dict, key: tuple, value: int) -> int:
    table[key] = table.get(key, 0) + value
    return value % 7


def reference_loop(numeric: bool = False) -> int:
    """Fixed pure-Python work, about 1 ms on a 2-vCPU x86-64 VM with Python
    3.11: calls, tuples, dict and list updates and integer arithmetic, plus
    float and exact rational arithmetic if ``numeric``. Its time is the
    host's speed at the moment it runs."""
    table: dict = {}
    window: list = []
    acc = 0
    x = 0.0
    q = Fraction(0)
    for i in range(1000 if numeric else 1400):
        key = (i & 31, i % 5)
        acc += _reference_step(table, key, i * 3 + 1)
        window.append(key)
        if len(window) > 8:
            del window[0]
        if numeric:
            x = x * 0.999 + key[1]
            if i % 16 == 0:
                q += Fraction(i, key[1] + 1)
    return acc + len(table) + sum(k for k, _ in window) + int(x) + q.numerator % 7


class HostClock:
    """Samples the host's speed by timing ``reference_loop``: on demand with
    ``sample``, and inside ``ticking`` every ``interval`` seconds of wall time
    from a SIGALRM handler, which runs in the main thread between bytecodes.
    ``spent`` is the time all samples took, so callers can take it out of
    what they measure."""

    def __init__(self, interval: float, numeric: bool = False) -> None:
        self.interval = interval
        self.numeric = numeric
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = perf_counter()
        reference_loop(self.numeric)
        seconds = perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class Tracer:
    """Span recorder. Disabled, ``call`` is a plain call; enabled, it keeps
    (id, parent id, name, operation id, start, end) per call in memory."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.op_id = -1
        self._next_id = 0
        self._stack: list[int | None] = [None]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, self.op_id, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


class Recorder:
    """What the operations of one pass report to the harness."""

    def __init__(self, tracer: Tracer, clock: HostClock) -> None:
        self.tracer = tracer
        self.clock = clock
        self.problems: list[str] = []
        # Wall time of the calls made through ``run``, less clock samples.
        self.program_s = 0.0
        # Numerators and host-second denominators of the throughputs.
        self.work: Counter = Counter()
        # Exact counts behind the per-layer count metrics.
        self.counts: Counter = Counter()
        self.distinct_specs: set = set()
        self.fingerprint: list = []

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call the program: a span whose time counts as the program's."""
        return self.timed(name, None, fn, *args, **kwargs)

    def timed(self, name: str, seconds_key: str | None, fn: Callable, *args, **kwargs):
        """``run``, also adding the time to ``work[seconds_key]``."""
        start, sampled = perf_counter(), self.clock.spent
        try:
            return self.tracer.call(name, fn, *args, **kwargs)
        finally:
            seconds = perf_counter() - start - (self.clock.spent - sampled)
            self.program_s += seconds
            if seconds_key is not None:
                self.work[seconds_key] += seconds

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


Op = tuple[str, Callable[[Recorder], None]]


class Workload:
    """Base: a seeded source of passes. ``setup`` runs once, untimed."""

    name = ""
    # The host's speed states slow float and rational arithmetic by less
    # than calls and container updates, so a workload whose payload is
    # mostly arithmetic is timed against the numeric reference loop.
    numeric = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def setup(self) -> None:
        pass

    def make_pass(self, index: int) -> list[Op]:
        raise NotImplementedError

    def instrument(self, tracer: Tracer):
        return contextlib.nullcontext()


# -- dse ----------------------------------------------------------------------

class Dse(Workload):
    """One full CSV search per pass: the reference pair first, then pairs of
    the menu in a seeded order, each at most once until the menu runs out."""

    name = "dse"

    def setup(self) -> None:
        self.digests = json.loads(CSV_DIGESTS_PATH.read_text())
        self.points = grid_points(SearchSpace())
        others = [pair for pair in DSE_MENU if pair != REFERENCE_PAIR]
        self.rng(0).shuffle(others)
        self.order = [REFERENCE_PAIR, *others]

    def make_pass(self, index: int) -> list[Op]:
        pair = self.order[index % len(self.order)]
        return [("search", lambda rec: self.search(rec, pair))]

    def instrument(self, tracer: Tracer):
        """Wrap the search stages ``cli`` calls, so that one ``cli.main``
        yields enumerate, rank and emit spans without searching twice."""
        stages = {
            "enumerate_feasible": "search.enumerate",
            "rank": "search.rank",
            "ranked_to_csv": "search.emit",
        }
        stack = contextlib.ExitStack()
        for attr, span in stages.items():
            if hasattr(cli, attr):
                original = getattr(cli, attr)
                setattr(cli, attr, tracer.wrap(span, original))
                stack.callback(setattr, cli, attr, original)
        return stack

    def search(self, rec: Recorder, pair: tuple[str, str]) -> None:
        label = f"{pair[0]}/{pair[1]}"
        out = io.StringIO()
        code = rec.timed("cli.main", "search_s", cli.main, search_argv(pair), out=out)
        rec.work["grid_points"] += self.points
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        rec.check(code == 0, f"{label}: exit code {code}")
        rec.check(
            digest == self.digests.get(label),
            f"{label}: CSV sha256 {digest[:16]} differs from the recorded one",
        )
        lines = text.splitlines()
        if code != 0 or len(lines) < 2:
            rec.check(False, f"{label}: no ranked rows")
            return
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]

        # Re-evaluate every ranked tile through the public API.
        problem = problem_from_value(pair[0])
        prec = precision_from_value(pair[1])
        estimates = []
        for row in rows:
            tile = TileConfig(*(int(row[key]) for key in ("t_ma", "t_mc", "t_k", "t_n")))
            fits = rec.tracer.call("arch.check_feasible", check_feasible, tile, prec)
            est = rec.tracer.call("perf.perf_array.calibration", perf_array, tile, problem, prec)
            rec.check(
                fits and est.feasible and est.buffer_bytes == int(row["buffer_bytes"]),
                f"{label}: tile {tile.as_tuple()} re-evaluates differently",
            )
            estimates.append((tile, est))
        perfs = [est.perf_array for _, est in estimates]
        rec.check(
            all(a >= b for a, b in zip(perfs, perfs[1:])),
            f"{label}: rows are not ranked best-first",
        )
        best_tile, best_est = estimates[0]
        if pair == REFERENCE_PAIR:
            symmetric = next((est for tile, est in estimates if tile.rho == 1), None)
            gain = best_est.perf_array / symmetric.perf_array if symmetric else 0.0
            rec.check(
                best_tile == REFERENCE_TILE
                and f"{best_est.perf_array / 1e12:.3g}" == REFERENCE_TFLOPS
                and gain >= MIN_ATB_GAIN,
                f"{label}: best {best_tile.as_tuple()} at "
                f"{best_est.perf_array / 1e12:.3g} TFLOPS, gain {gain:.2f}",
            )
        rec.counts["searches"] += 1
        rec.counts["kept"] += len(rows)
        rec.counts["grid_points"] += self.points
        rec.fingerprint.append(["search", label, code, len(rows), best_tile.as_tuple(), digest])


# -- kernels --------------------------------------------------------------------

class Kernels(Workload):
    """Tile-kernel operations on buildable tiles of the reference search,
    filled to a budget of tile MACs (t_ma * t_k * t_n), then random-spec
    soundness operations filled to a budget of expected instructions."""

    name = "kernels"

    def setup(self) -> None:
        # Buildable: t_ma * t_n fills whole 4-chain clusters of 8x8 outputs.
        space = replace(SearchSpace(), divisibility_problem=REFERENCE_PROBLEM)
        self.pool = [
            tile for tile in enumerate_feasible(space, REFERENCE_PREC)
            if tile.t_ma * tile.t_n % KERNEL_OUTPUTS == 0
        ]

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops: list[Op] = []
        macs = 0
        while macs < self.sizes.tile_macs:
            tile = rng.choice(self.pool)
            macs += tile.t_ma * tile.t_k * tile.t_n
            ops.append(("tile_kernel", lambda rec, tile=tile: self.tile_kernel(rec, tile)))
        instrs = 0
        while instrs < self.sizes.random_instrs:
            spec, options = random_microkernel_spec(rng)
            instrs += kernel_instrs(spec)
            ops.append(
                ("random_spec", lambda rec, s=spec, o=options: self.random_spec(rec, s, o))
            )
        return ops

    def tile_kernel(self, rec: Recorder, tile: TileConfig) -> None:
        spec = rec.run("pipeline.microkernel_for_tile", microkernel_for_tile, tile)
        bounds = rec.run("pipeline.total_latency", total_latency, spec)
        eff_closed = rec.run("pipeline.eff_micro", eff_micro, spec)
        dag = rec.run("schedule.build_dag", build_microkernel_dag, spec)
        result = rec.run("schedule.schedule", schedule, dag, slots_for(spec))
        est_closed = rec.run(
            "perf.perf_array.closed_form", perf_array, tile, REFERENCE_PROBLEM,
            REFERENCE_PREC, eff_source="closed_form",
        )
        est_sim = rec.run(
            "perf.perf_array.simulated", perf_array, tile, REFERENCE_PROBLEM,
            REFERENCE_PREC, eff_source="simulated",
        )
        violations = rec.run("schedule.check_bounds_hold", check_bounds_hold, spec, {})
        label = f"tile {tile.as_tuple()}"
        rec.check(not violations, f"{label}: schedule beats bounds {violations}")
        rec.check(
            est_sim.eff_micro <= est_closed.eff_micro,
            f"{label}: simulated eff_micro {est_sim.eff_micro} exceeds the closed "
            f"form {est_closed.eff_micro}",
        )
        rec.check(est_closed.eff_micro == eff_closed, f"{label}: closed-form paths disagree")
        rec.check(
            est_sim.eff_micro == result.vmac_issue_rate,
            f"{label}: simulated paths disagree",
        )
        rec.check(
            result.total_cycles >= bounds.l_total_sequential,
            f"{label}: {result.total_cycles} cycles beat {bounds.l_total_sequential}",
        )
        # One direct schedule, one inside perf_array, two in check_bounds_hold.
        rec.work["vmacs"] += 4 * spec.n_accum * spec.n_clusters
        rec.counts["tile_kernels"] += 1
        rec.counts["instrs"] += len(dag)
        rec.counts["sim_cycles"] += result.total_cycles
        rec.distinct_specs.add(spec)
        rec.fingerprint.append(
            ["tile_kernel", tile.as_tuple(), len(dag), result.total_cycles,
             str(eff_closed), str(est_sim.eff_micro)]
        )

    def random_spec(self, rec: Recorder, spec, options: dict) -> None:
        bounds = rec.run("pipeline.total_latency", total_latency, spec)
        violations = rec.run(
            "schedule.check_bounds_hold", check_bounds_hold, spec, options
        )
        rec.check(not violations, f"random spec {spec}: schedule beats bounds {violations}")
        rec.work["vmacs"] += 2 * spec.n_accum * spec.n_clusters
        rec.fingerprint.append(
            ["random_spec", spec.n_accum, spec.n_clusters, spec.chains,
             bounds.l_total_sequential, bounds.l_total_overlapped, len(violations)]
        )


# -- oracles --------------------------------------------------------------------

class Oracles(Workload):
    """The reference walks at both boundaries, random divisible cases filled
    to a nest-step budget, and tiled GEMMs of fixed shape checked against the
    naive product."""

    name = "oracles"
    numeric = True

    def make_pass(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops: list[Op] = [
            ("reference_walk", lambda rec, b=boundary: self.reference_walk(rec, b))
            for boundary in BOUNDARIES
        ]
        steps = 0
        while steps < self.sizes.case_steps:
            case = random_divisible_case(rng)
            steps += sum(nest_steps(case[0], case[1], b) for b in BOUNDARIES)
            ops.append(("movement_case", lambda rec, c=case: self.movement_case(rec, *c)))
        for _ in range(self.sizes.gemm_instances):
            m, k, n = rng.sample(rng.choice(GEMM_SHAPES), 3)
            t_ma, rho = rng.choice(
                [(t_ma, rho) for t_ma in (8, 16) for rho in (1, 2, 4) if m % (t_ma * rho) == 0]
            )
            tile = TileConfig(
                t_ma, t_ma * rho, rng.choice((8, 16, 32)), rng.choice((8, 16, 32))
            )
            a = Matrix(m, k, tuple(rng.uniform(-2, 2) for _ in range(m * k)))
            b = Matrix(k, n, tuple(rng.uniform(-2, 2) for _ in range(k * n)))
            ops.append(("gemm", lambda rec, a=a, b=b, t=tile: self.gemm(rec, a, b, t)))
        return ops

    def walk(self, rec: Recorder, span: str, problem, tile, prec, boundary: str):
        trace = rec.timed(
            span, "walk_s", simulate_movement, problem, tile, prec, boundary=boundary
        )
        rec.work["nest_steps"] += nest_steps(problem, tile, boundary)
        want = closed_form_ai(rec, problem, tile, prec, boundary)
        got = measured_ai(trace)
        label = f"{boundary} walk of {tile.as_tuple()} on {problem}"
        rec.check(got == want, f"{label}: measured intensity {got} != closed form {want}")
        rec.check(
            trace.bytes_c == prec.byte_cost_c * problem.m * problem.n,
            f"{label}: C written {trace.bytes_c} B, not once",
        )
        rec.check(
            trace.flops == 2 * problem.m * problem.k * problem.n,
            f"{label}: {trace.flops} flops",
        )
        for operand in ("a", "b", "c"):
            rec.counts[f"bytes_{operand}"] += getattr(trace, f"bytes_{operand}")
        rec.fingerprint.append(
            ["walk", boundary, tile.as_tuple(), [problem.m, problem.k, problem.n],
             str(trace.bytes_a), str(trace.bytes_b), str(trace.bytes_c),
             trace.peak_l1_occupancy]
        )

    def reference_walk(self, rec: Recorder, boundary: str) -> None:
        self.walk(
            rec, f"movement.walk.{boundary}", REFERENCE_PROBLEM, REFERENCE_TILE,
            REFERENCE_PREC, boundary,
        )

    def movement_case(self, rec: Recorder, problem, tile, prec) -> None:
        for boundary in BOUNDARIES:
            self.walk(rec, "movement.case_walk", problem, tile, prec, boundary)

    def gemm(self, rec: Recorder, a: Matrix, b: Matrix, tile: TileConfig) -> None:
        prec = REFERENCE_PREC
        capacity = rec.run("arch.buffer_footprint", buffer_footprint, tile, prec)
        got, trace = rec.timed("gemm.tiled", "gemm_s", tiled_gemm, a, b, tile, capacity, prec)
        want = rec.run("gemm.naive", naive_gemm, a, b)
        worst = max(
            abs(x - y) / max(1.0, abs(x), abs(y)) for x, y in zip(got.data, want.data)
        )
        label = f"gemm {a.rows}x{a.cols}x{b.cols} tile {tile.as_tuple()}"
        rec.check(worst <= GEMM_RTOL, f"{label}: relative error {worst:.3g}")
        rec.check(
            trace.peak_l1_occupancy <= capacity,
            f"{label}: peak {trace.peak_l1_occupancy} B over capacity {capacity} B",
        )
        closed = rec.run("intensity.ai_tile", ai_tile, tile.t_mc, tile.t_n, a.cols, prec).ai
        rec.check(measured_ai(trace) == closed, f"{label}: byte trace disagrees with ai_tile")
        rec.work["macs"] += a.rows * a.cols * b.cols
        rec.counts["gemm_peak_bytes"] += trace.peak_l1_occupancy
        rec.fingerprint.append(
            ["gemm", [a.rows, a.cols, b.cols], tile.as_tuple(), trace.peak_l1_occupancy,
             str(trace.bytes_a), str(trace.bytes_b), str(trace.bytes_c)]
        )


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Dse, Kernels, Oracles)}


def known_defects() -> dict:
    """ROADMAP item 2's reproductions, run once and untimed. Their outcomes
    are reported as status, not as gates: a fix changes these fields."""
    status: dict = {}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status["search_closed_form_exit_code"] = cli.main(
            search_argv(REFERENCE_PAIR, "--eff-source", "closed_form"), out=io.StringIO()
        )
    status["search_closed_form_stderr"] = err.getvalue().strip()

    tile = TileConfig(128, 128, 64, 128)
    arch = ArchSpec(buffer_multiplier_a=1, buffer_multiplier_b=1)
    try:
        est = perf_array(tile, REFERENCE_PROBLEM, REFERENCE_PREC, arch)
        perf_side = {"perf_array_feasible": est.feasible, "perf_array_bytes": est.buffer_bytes}
    except ConfigError as exc:
        perf_side = {"perf_array_error": str(exc)}
    status["single_buffered_ab"] = {
        "tile": list(tile.as_tuple()),
        "arch": {"buffer_multiplier_a": 1, "buffer_multiplier_b": 1},
        "check_feasible": check_feasible(tile, REFERENCE_PREC, arch),
        "check_feasible_bytes": buffer_footprint(tile, REFERENCE_PREC, arch),
        **perf_side,
    }
    return status
