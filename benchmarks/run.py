#!/usr/bin/env python3
"""asymtile benchmark: seeded workloads timed end to end and layer by layer.

Usage:
    python3 benchmarks/run.py [--workload dse|kernels|oracles|all] [--seed N]
        [--seconds S] [--trace 0|1] [--smoke]

One process, no threads, closed loop: each operation starts when the previous
one returns. A run sets up (cold CLI starts for ``setup_s``, then the
workload's own inputs), then runs passes until ``--seconds`` (default:
``run_seconds`` of ``BENCHMARK.json``) have gone by and at least three are
done. It prints a report, writes a result file
under ``benchmarks/results/`` and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. A
traced run alternates traced and untraced passes; per-layer numbers come
from the traced ones and the tracing overhead from the difference.

Every operation checks its outputs. Any failure makes ``correct`` false and
the exit code 1. Without the package sources next to this directory the run
exits 2 and prints no result. ``--smoke`` runs one small pass (two when
traced) so the harness's own tests stay fast. ``--workload all`` runs each
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

WORKLOAD_NAMES = ("dse", "kernels", "oracles")
MIN_PASSES = 3
# The fingerprint and the per-layer counts cover the first passes, which
# every full run makes, so they repeat exactly for a seed.
FINGERPRINT_PASSES = MIN_PASSES
SETUP_REPEATS = 11
# Normalised times are expressed on a host where the reference loop takes
# REFERENCE_S and the reference cold start REFERENCE_SETUP_S. A pass samples
# the reference loop every CLOCK_INTERVAL s.
CLOCK_INTERVAL = 0.04
REFERENCE_S = 0.001
REFERENCE_SETUP_S = 0.05
MAX_REPORTED_FAILURES = 20
LAYERS = (
    "cli", "search", "arch", "perf", "pipeline", "schedule", "intensity",
    "movement", "gemm", "bench",
)

# Cold start: a fresh interpreter imports the CLI, builds its parser and
# evaluates one tile. Import-time work shows up here.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from asymtile.cli import main
sys.exit(main(["eval", "--problem", "4096x4096x2048", "--tile", "32,128,64,128"]))
"""
SETUP_EXPECT = "perf_array: 26.6 TFLOPS"
# The same kind of work without the package: a fresh interpreter imports the
# standard modules the package uses and builds a parser. Each cold start is
# timed against one of these run just before it.
REFERENCE_SETUP_CODE = """\
import argparse, collections, dataclasses, fractions, heapq, io, json, math, random, typing
argparse.ArgumentParser().add_argument("--problem")
"""

# Gated in BENCHMARK.json. On a shared 2-vCPU VM the speed of the host moved
# by up to half within seconds, so both gated times are normalised by fixed
# reference work timed at the same moments. pass_norm_s is the program's time
# in one pass (the calls made through Recorder.run) over the mean time of the
# reference loop during the pass, times REFERENCE_S. setup_s is a cold start
# over the reference cold start before it, times REFERENCE_SETUP_S. The
# report adds the raw pass_s and setup_raw_s, failed_frac, peak_rss_mb and
# the workload's throughputs, which are not gated: raw times drift with the
# host, failed_frac is 0 on a correct run, each throughput applies to one
# workload only, and peak memory would gate the planned numpy search out for
# the ~15 MB numpy itself takes.
END_TO_END = (("pass_norm_s", "s"), ("setup_s", "s"))

# Per-layer metrics: (name, unit). Times per call in us or ms, or summed
# over a traced pass in s; counts over the fingerprint passes.
PER_LAYER = (
    ("cli.main.s", "s"),
    ("cli.overhead.s", "s"),
    ("search.enumerate.s", "s"),
    ("search.enumerate.kept", "count"),
    ("search.enumerate.keep_ratio", "ratio"),
    ("search.rank.s", "s"),
    ("search.rank.tiles", "count"),
    ("search.emit.s", "s"),
    ("arch.check_feasible.us", "us"),
    ("perf.perf_array.calibration.us", "us"),
    ("perf.perf_array.closed_form.us", "us"),
    ("perf.perf_array.simulated.ms", "ms"),
    ("pipeline.total_latency.us", "us"),
    ("pipeline.eff_micro.us", "us"),
    ("schedule.build_dag.s", "s"),
    ("schedule.schedule.s", "s"),
    ("schedule.instrs", "count"),
    ("schedule.sim_cycles", "count"),
    ("schedule.distinct_spec_ratio", "ratio"),
    ("intensity.ai_array.us", "us"),
    ("movement.walk.core.s", "s"),
    ("movement.walk.array.s", "s"),
    ("movement.verify_case.ms", "ms"),
    ("movement.bytes_a", "B"),
    ("movement.bytes_b", "B"),
    ("movement.bytes_c", "B"),
    ("gemm.tiled.s", "s"),
    ("gemm.naive.s", "s"),
    ("gemm.peak_occupancy_bytes", "B"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)
SPAN_SECONDS_PER_PASS = {
    "cli.main.s": "cli.main",
    "search.enumerate.s": "search.enumerate",
    "search.rank.s": "search.rank",
    "search.emit.s": "search.emit",
    "schedule.build_dag.s": "schedule.build_dag",
    "schedule.schedule.s": "schedule.schedule",
    "movement.walk.core.s": "movement.walk.core",
    "movement.walk.array.s": "movement.walk.array",
    "gemm.tiled.s": "gemm.tiled",
    "gemm.naive.s": "gemm.naive",
}
SPAN_PER_CALL = {
    "arch.check_feasible.us": ("arch.check_feasible", 1e6),
    "perf.perf_array.calibration.us": ("perf.perf_array.calibration", 1e6),
    "perf.perf_array.closed_form.us": ("perf.perf_array.closed_form", 1e6),
    "perf.perf_array.simulated.ms": ("perf.perf_array.simulated", 1e3),
    "pipeline.total_latency.us": ("pipeline.total_latency", 1e6),
    "pipeline.eff_micro.us": ("pipeline.eff_micro", 1e6),
    "intensity.ai_array.us": ("intensity.ai_array", 1e6),
}
# name: (work key, host-seconds key, workload); "pass_s" means whole passes.
THROUGHPUTS = {
    "grid_points_per_s": ("grid_points", "search_s", "dse"),
    "sim_vmacs_per_s": ("vmacs", "pass_s", "kernels"),
    "nest_steps_per_s": ("nest_steps", "walk_s", "oracles"),
    "gemm_macs_per_s": ("macs", "gemm_s", "oracles"),
}
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class ProgramMissing(RuntimeError):
    """The package sources are not next to the benchmark."""


def load_program():
    """Import ``asymtile`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "asymtile" / "__init__.py").is_file():
        raise ProgramMissing(f"no asymtile package under {SRC}")
    sys.path.insert(0, str(SRC))
    import asymtile

    if Path(asymtile.__file__).resolve().parent != SRC / "asymtile":
        raise ProgramMissing(f"imported asymtile from {asymtile.__file__}, not {SRC}")
    return asymtile


def run_seconds() -> float:
    """The measured time of one workload run, as ``BENCHMARK.json`` sets it."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass")
    return parser.parse_args(argv)


# -- measurement helpers --------------------------------------------------------

def pin_to_one_cpu() -> int | None:
    """Run this process and its children on one CPU, so the reference loops
    time the CPU the cold starts and passes run on."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cold_start(code: str) -> tuple[float, subprocess.CompletedProcess | None]:
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, timeout=20, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        proc = None
    return perf_counter() - start, proc


def measure_setup(repeats: int) -> tuple[list[float], list[float], list[str]]:
    """Cold starts: raw seconds, seconds normalised by the reference cold
    start run just before each, and the problems seen."""
    times, normalised, problems = [], [], []
    for _ in range(repeats):
        reference, _ = cold_start(REFERENCE_SETUP_CODE)
        seconds, proc = cold_start(SETUP_CODE)
        times.append(seconds)
        normalised.append(seconds * REFERENCE_SETUP_S / reference)
        if proc is None:
            problems.append("cold start: no exit within 20 s")
        elif proc.returncode != 0 or SETUP_EXPECT not in proc.stdout:
            problems.append(
                f"cold start: exit {proc.returncode}, stderr {proc.stderr.strip()[-300:]!r}"
            )
    return times, normalised, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def tail(samples: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            ordered = sorted(samples)
            return {"percentile": pct, "value": ordered[math.ceil(n * pct / 100) - 1]}
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def package_version(name: str) -> str | None:
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


# -- passes ---------------------------------------------------------------------

@dataclass
class PassRecord:
    index: int
    traced: bool
    seconds: float
    # The program's time (calls through Recorder.run), normalised.
    norm_s: float
    rec: object
    op_times: dict
    failures: list
    failed_ops: int


def run_pass(wl, workload, index: int, tracer, clock, traced: bool,
             first_op_id: int) -> PassRecord:
    ops = workload.make_pass(index)
    rec = wl.Recorder(tracer, clock)
    op_times: dict[str, list[float]] = defaultdict(list)
    failures: list[str] = []
    failed_ops = 0
    tracer.enabled = traced
    clock.samples.clear()
    clock.sample()
    # Wall times below leave out the clock's own samples.
    with workload.instrument(tracer) if traced else nullcontext(), clock.ticking():
        start, sampled = perf_counter(), clock.spent
        for op_id, (kind, op) in enumerate(ops, first_op_id):
            tracer.op_id = op_id
            rec.problems = []
            op_start, op_sampled = perf_counter(), clock.spent
            try:
                tracer.call(f"bench.{kind}", op, rec)
            except Exception:
                rec.problems.append(traceback.format_exc(limit=4).strip())
            op_times[kind].append(perf_counter() - op_start - (clock.spent - op_sampled))
            failed_ops += bool(rec.problems)
            failures.extend(f"op {op_id} ({kind}): {p}" for p in rec.problems)
        seconds = perf_counter() - start - (clock.spent - sampled)
    clock.sample()
    tracer.enabled = False
    norm_s = rec.program_s * REFERENCE_S / statistics.fmean(clock.samples)
    return PassRecord(index, traced, seconds, norm_s, rec, op_times, failures, failed_ops)


def layer_metrics(spans, traced_passes: int, counts: Counter, distinct: set,
                  overhead: float) -> dict[str, float]:
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, name, op_id, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_time: dict[str, float] = defaultdict(float)
    for span_id, parent, name, op_id, start, end in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        self_time[name] += duration - child_time[span_id]

    per_pass = max(traced_passes, 1)
    out: dict[str, float] = {}
    for metric, span in SPAN_SECONDS_PER_PASS.items():
        out[metric] = total[span] / per_pass
    out["cli.overhead.s"] = self_time["cli.main"] / per_pass
    for metric, (span, scale) in SPAN_PER_CALL.items():
        out[metric] = total[span] / calls[span] * scale if calls[span] else 0.0
    cases = calls["bench.movement_case"]
    out["movement.verify_case.ms"] = total["movement.case_walk"] / cases * 1e3 if cases else 0.0
    layer_self: dict[str, float] = defaultdict(float)
    for name, seconds in self_time.items():
        layer_self[name.split(".")[0]] += seconds
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / per_pass

    searches = counts["searches"]
    out["search.enumerate.kept"] = counts["kept"] / searches if searches else 0.0
    out["search.rank.tiles"] = out["search.enumerate.kept"]
    out["search.enumerate.keep_ratio"] = (
        counts["kept"] / counts["grid_points"] if counts["grid_points"] else 0.0
    )
    out["schedule.instrs"] = counts["instrs"]
    out["schedule.sim_cycles"] = counts["sim_cycles"]
    tiles = counts["tile_kernels"]
    out["schedule.distinct_spec_ratio"] = len(distinct) / tiles if tiles else 0.0
    for operand in "abc":
        out[f"movement.bytes_{operand}"] = int(counts[f"bytes_{operand}"])
    out["gemm.peak_occupancy_bytes"] = counts["gemm_peak_bytes"]
    out["trace.overhead_s"] = overhead
    return {name: out[name] for name, _ in PER_LAYER}


# -- one workload ---------------------------------------------------------------

def run_workload(args) -> int:
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    traced_run = bool(args.trace)
    min_passes = (2 if traced_run else 1) if args.smoke else MIN_PASSES
    fingerprint_passes = 1 if args.smoke else FINGERPRINT_PASSES

    cpu = pin_to_one_cpu()
    setup_times, setup_norm, setup_problems = measure_setup(1 if args.smoke else SETUP_REPEATS)
    workload = wl.WORKLOADS[args.workload](args.seed, wl.SMOKE if args.smoke else wl.FULL)
    workload.setup()

    tracer = wl.Tracer()
    clock = wl.HostClock(CLOCK_INTERVAL, workload.numeric)
    passes: list[PassRecord] = []
    next_op_id = 0
    start = perf_counter()
    while len(passes) < min_passes or (
        not args.smoke and perf_counter() - start < args.seconds
    ):
        index = len(passes)
        record = run_pass(
            wl, workload, index, tracer, clock, traced_run and index % 2 == 0, next_op_id
        )
        next_op_id += sum(len(t) for t in record.op_times.values())
        if index >= fingerprint_passes:
            # Keep memory flat however many passes a run makes.
            record.rec.fingerprint = []
            record.rec.distinct_specs = set()
        passes.append(record)
    elapsed = perf_counter() - start
    rss = peak_rss_mb()
    status = wl.known_defects()

    failures = [f"setup: {p}" for p in setup_problems]
    for record in passes:
        failures.extend(f"pass {record.index}: {f}" for f in record.failures)
    attempted = len(setup_times) + next_op_id
    failed = len(setup_problems) + sum(r.failed_ops for r in passes)

    untraced = [r for r in passes if not r.traced]
    traced = [r for r in passes if r.traced]
    pass_times = [r.seconds for r in untraced]
    work: Counter = Counter()
    for record in untraced:
        work.update(record.rec.work)
        work["pass_s"] += record.seconds
    throughputs = {
        name: work[num] / work[den]
        for name, (num, den, owner) in THROUGHPUTS.items()
        if owner == args.workload and work[den] > 0
    }
    counts: Counter = Counter()
    distinct: set = set()
    fingerprint = []
    for record in passes[:fingerprint_passes]:
        counts.update(record.rec.counts)
        distinct |= record.rec.distinct_specs
        fingerprint.append(record.rec.fingerprint)
    # Exact rationals are written as strings.
    fingerprint_json = json.dumps(fingerprint, sort_keys=True, default=str)
    digest = hashlib.sha256(fingerprint_json.encode()).hexdigest()

    end_to_end = {
        "pass_norm_s": statistics.median(r.norm_s for r in untraced),
        "setup_s": statistics.median(setup_norm),
    }
    per_layer = None
    if traced_run:
        overhead = (
            statistics.median(r.norm_s for r in traced)
            - statistics.median(r.norm_s for r in untraced)
        )
        per_layer = layer_metrics(tracer.spans, len(traced), counts, distinct, overhead)

    op_stats = {}
    op_samples: dict[str, list[float]] = defaultdict(list)
    for record in untraced:
        for kind, times in record.op_times.items():
            op_samples[kind].extend(times)
    for kind, times in op_samples.items():
        op_stats[kind] = {"n": len(times), "median_s": statistics.median(times), "tail": tail(times)}

    result = {
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": package_version("numpy"),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "load": "closed loop: one process, no threads; each operation "
                    "starts when the previous one returns",
            "threads_at_end": threading.active_count(),
            "pinned_cpu": cpu,
            "passes": len(passes),
            "traced_passes": len(traced),
            "untraced_passes": len(untraced),
            "setup_samples": len(setup_times),
            "operations": attempted,
            "failed_operations": failed,
            "measured_s": elapsed,
        },
        "end_to_end": {
            **{name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_raw_s": {"value": statistics.median(setup_times), "unit": "s"},
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            **{name: {"value": value, "unit": "1/s"} for name, value in throughputs.items()},
        },
        "pass_s_samples": {"n": len(pass_times), "tail": tail(pass_times), "values": pass_times},
        "pass_norm_s_samples": [r.norm_s for r in untraced],
        "setup_s_samples": {"normalised": setup_norm, "raw": setup_times},
        "operations": op_stats,
        "per_layer": per_layer,
        "known_defects": status,
        "fingerprint": {"sha256": digest, "passes": len(fingerprint), "data": json.loads(fingerprint_json)},
        "failures": failures[:MAX_REPORTED_FAILURES],
    }
    suffix = ("-smoke" if args.smoke else "") + ("-trace" if traced_run else "")
    RESULTS_DIR.mkdir(exist_ok=True)
    result_path = RESULTS_DIR / f"{args.workload}-seed{args.seed}{suffix}.json"
    result_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    if traced_run:
        with open(RESULTS_DIR / f"{args.workload}-seed{args.seed}{suffix}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print_report(args, result, result_path)
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    if traced_run:
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: result["end_to_end"][name] for name, _ in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


def show(value) -> str:
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"


def print_report(args, result: dict, result_path: Path) -> None:
    prov = result["provenance"]
    print(
        f"asymtile benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {args.trace}, {prov['passes']} passes in {prov['measured_s']:.1f} s"
    )
    print("end-to-end (untraced passes)")
    samples = result["pass_s_samples"]
    notes = {
        "pass_norm_s": f"gated; median of {samples['n']} passes: program time over reference loops",
        "pass_s": f"median of {samples['n']} passes; "
        + (
            f"p{samples['tail']['percentile']:g} {samples['tail']['value']:.4f} s"
            if samples["tail"] else "no percentile has 10 samples beyond it"
        ),
        "setup_s": f"gated; median of {prov['setup_samples']} cold starts over reference ones",
        "setup_raw_s": "median of the same cold starts, raw",
        "failed_frac": f"{prov['failed_operations']} of {prov['operations']} operations",
    }
    for name, metric in result["end_to_end"].items():
        print(f"  {name:<20} {show(metric['value'])} {metric['unit']:<6} {notes.get(name, '')}")
    if result["per_layer"] is not None:
        print(f"per-layer ({prov['traced_passes']} traced passes)")
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {show(result['per_layer'][name])} {unit}")
    print(f"fingerprint sha256 {result['fingerprint']['sha256']} "
          f"(first {result['fingerprint']['passes']} passes)")
    defects = result["known_defects"]
    single = defects["single_buffered_ab"]
    print("known defects (status, not gates)")
    print(f"  search --eff-source closed_form exit code: {defects['search_closed_form_exit_code']}")
    print(
        f"  A/B single-buffered tile {tuple(single['tile'])}: check_feasible "
        f"{single['check_feasible']} ({single['check_feasible_bytes']} B), "
        f"perf_array feasible {single.get('perf_array_feasible')} "
        f"({single.get('perf_array_bytes')} B)"
    )
    print(f"result file {result_path.relative_to(ROOT)}")


def run_all(args) -> int:
    codes = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        codes.append(subprocess.run(argv + (["--smoke"] if args.smoke else [])).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
