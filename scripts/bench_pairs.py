#!/usr/bin/env python3
"""Benchmark a change against a parent commit in alternated pairs.

Usage:
    python3 scripts/bench_pairs.py --workload W --parent REV --seeds S [S ...]
    python3 scripts/bench_pairs.py --pool BENCH_JSON [BENCH_JSON ...]

Both sides run from copies unpacked under one temporary directory, so
neither has the repository's location, file system or ``__pycache__`` to
itself. The parent is ``git archive REV``. The change is the working tree
this script sits in, as it is on disk: each file ``git ls-files --cached
--others --exclude-standard`` lists (tracked, or untracked and not
ignored), with its on-disk bytes, except a tracked file deleted on disk. No
worktree, commit or stash is made and nothing under ``.git`` changes. For
each seed both trees run ``benchmarks/run.py --workload W --seed S --trace
0`` at the run length ``BENCHMARK.json`` sets, the parent first on odd
seeds and the change first on even ones.

The gated metrics are the ``end_to_end`` entries of ``BENCHMARK.json``
(``pass_norm_s`` and ``setup_s``), each with the direction its ``better``
names. The report is written to ``BENCH_<W>.json`` at the repository root.
Each seed's run of each side is stored whole, as ``run_once`` returns it:
the gated metrics and ``peak_rss_mb``, unrounded, the ``sha256`` of its
fingerprint, whether it was ``correct`` (exit 0, no failed operation) and
whether it was ``pinned`` to one CPU. Besides the parent's short commit,
the change's ``tree`` digest (sha256 over the sorted paths and bytes of the
exported copy, taken before any run, leaving out the ``BENCH_*.json``
reports and the ``*.md`` documents at its root, which no benchmark reads,
so runs on either side of a document edit still pool) and the machine,
the report is one function of those runs, ``report``: per side the median
and quartiles (inclusive method) of each gated metric and of
``peak_rss_mb``, the verdicts, whether both sides have the same
fingerprint on every seed and whether every run was correct. So
``report`` on the stored runs gives the stored report back. The script
prints each seed's gated pairs as it goes, then one line per gated metric
with both sides' medians, the change's wins and the metric's verdict, and,
for a report that has them, one line with both sides' ``peak_rss_mb``
medians, which is no verdict and no gate. A SIGTERM stops the running
benchmark and removes both copies.

``--pool`` runs nothing. It reads several ``BENCH_<W>.json`` files of one
parent commit and one change tree, each with its own seeds. Files of one
workload pool into ``report`` of all their runs together, written to
``BENCH_<W>.json`` as if one run had taken every seed. Files of several
workloads pool into ``setup_report``, written to ``BENCH_setup_s.json``:
one ``setup_s`` verdict over every cold-start pair, since each workload
times the same cold start, and no pooled ``pass_norm_s``, which times
different work in each. It refuses files that differ in parent, tree or
machine, files run at another length than ``BENCHMARK.json`` sets, files
without a tree digest or whose runs are not stored whole, a seed of one
workload found in two files, and a ``BENCH_setup_s.json``.

The verdict rule, in ``verdicts`` of the report. Per gated metric, a win is
a seed on which the change is better and a loss one on which the parent is
(ties count for neither). The gap is the parent's median minus the
change's, signed so that a positive gap favours the change; the spread is
the parent's interquartile range (q3 - q1); the bound is the metric's
``bound`` in ``BENCHMARK.json``, read as a share of the parent's median;
``sign_p``, reported but not tested, is the exact two-sided sign test of
the wins against the losses under a fair coin (nine tenths of ten or more
pairs hold it at or below 22/1024). The first of these that holds is the
verdict:

1. "too few pairs": there are fewer than ten pairs. Six A/A pairs can lose
   six of six by chance (sign test p = 1/32), so no verdict rests on fewer
   than ten.
2. "regression": the change's median is worse than the parent's by more
   than the bound.
3. "gain": the change wins at least nine tenths of the pairs and the gap
   is larger than the spread.
4. "regression": the same with the sides swapped (losses and a negative
   gap).
5. "unresolved": the spread is wider than the bound and not every change
   run is better than every parent run, so the runs cannot show that the
   metric stayed within its bound.
6. "within spread": the gap, either way, is no larger than the spread.
7. "unresolved": otherwise (the medians differ by more than the spread, but
   the counts do not settle which side is better).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Gated metric name -> "lower" or "higher", whichever is better, and the
# bound on how far it may worsen, as a share of the parent's median.
GATED = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
BOUNDS = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
MIN_PAIRS = 10
METRICS = (*GATED, "peak_rss_mb")
# The gated metric that times the same work, a cold start, in every workload.
SHARED = "setup_s"
# The keys of a run_once record, each stored per seed and side.
RECORD = (*METRICS, "sha256", "correct", "pinned")
SIDES = ("parent", "change")
ORDER = "alternated: parent first on odd seeds, change first on even seeds"


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``: its end-to-end metrics, its
    fingerprint digest, whether it was correct and whether it was pinned to
    one CPU."""
    result_path = tree / "benchmarks" / "results" / f"{workload}-seed{seed}.json"
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if not result_path.exists():
        raise RuntimeError(
            f"{tree}: run of {workload} seed {seed} exited {proc.returncode} "
            f"without a result\n{proc.stderr[-2000:]}"
        )
    result = json.loads(result_path.read_text())
    end_to_end = result["end_to_end"]
    record = {name: end_to_end[name]["value"] for name in METRICS}
    record["sha256"] = result["fingerprint"]["sha256"]
    record["correct"] = (
        proc.returncode == 0 and result["provenance"]["failed_operations"] == 0
    )
    record["pinned"] = result["provenance"]["pinned_cpu"] is not None
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def better(change: float, parent: float, direction: str) -> bool:
    """Whether ``change`` beats ``parent`` on a metric where ``direction``
    ("lower" or "higher") is better; a tie beats neither."""
    return change < parent if direction == "lower" else change > parent


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value of ``wins`` against ``losses``
    under a fair coin; 1.0 when there is no untied pair."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    """The verdict of the module docstring's rule on per-seed pairs
    ``parent[i]``, ``change[i]``, with the figures it rests on."""
    n = len(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    q1, parent_median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    gap = parent_median - change_median if direction == "lower" else change_median - parent_median
    spread = q3 - q1
    allowed = bound * abs(parent_median)
    every_run_better = all(better(c, q, direction) for c in change for q in parent)
    if n < MIN_PAIRS:
        name = "too few pairs"
    elif -gap > allowed:
        name = "regression"
    elif 10 * wins >= 9 * n and gap > spread:
        name = "gain"
    elif 10 * losses >= 9 * n and -gap > spread:
        name = "regression"
    elif spread > allowed and not every_run_better:
        name = "unresolved"
    elif abs(gap) <= spread:
        name = "within spread"
    else:
        name = "unresolved"
    return {
        "verdict": name, "wins": wins, "losses": losses, "pairs": n,
        "gap": gap, "parent_iqr": spread, "sign_p": sign_test_p(wins, losses),
    }


def compare(pairs: list[dict], commit: str, tree: str, metrics: tuple[str, ...]) -> dict:
    """Both sides' quartiles of ``metrics`` over ``pairs``, each a
    ``{"parent": rec, "change": rec}`` of :func:`run_once` records, the
    verdict of each gated one, and whether every pair had equal fingerprints
    and every run was correct."""

    def values(side: str, name: str) -> list:
        return [pair[side][name] for pair in pairs]

    def quartiles_of(side: str) -> dict:
        return {name: quartiles(values(side, name)) for name in metrics}

    return {
        "parent": {"commit": commit, **quartiles_of("parent")},
        "change": {"tree": tree, **quartiles_of("change")},
        "verdicts": {
            name: verdict(values("parent", name), values("change", name), GATED[name],
                          BOUNDS[name])
            for name in metrics if name in GATED
        },
        "fingerprints_equal": values("parent", "sha256") == values("change", "sha256"),
        "all_correct_zero_failed": all(values("parent", "correct") + values("change", "correct")),
    }


def report(workload: str, commit: str, tree: str, runs: dict[int, dict[str, dict]],
           machine: dict) -> dict:
    """The report of per-seed runs ``{seed: {"parent": rec, "change": rec}}``,
    each ``rec`` a :func:`run_once` record: everything in it but the parent's
    ``commit``, the change's ``tree`` and the ``machine`` comes from the
    runs."""
    seeds = sorted(runs)
    return {
        "workload": workload,
        "command": f"python3 benchmarks/run.py --workload {workload} --seed SEED --trace 0",
        "seconds_per_run": BENCHMARK["run_seconds"],
        "seeds": seeds,
        "order": ORDER,
        **compare([runs[s] for s in seeds], commit, tree, METRICS),
        "runs": {str(s): {side: runs[s][side] for side in SIDES} for s in seeds},
        "machine": machine,
    }


def setup_report(commit: str, tree: str, runs: dict[str, dict[int, dict[str, dict]]],
                 machine: dict) -> dict:
    """The report of several workloads' runs ``{workload: {seed: {"parent":
    rec, "change": rec}}}`` on the ``SHARED`` metric alone: one verdict
    over every pair, taken in workload then seed order."""
    workloads = sorted(runs)
    seeds = {w: sorted(runs[w]) for w in workloads}
    return {
        "workloads": workloads,
        "command": "python3 benchmarks/run.py --workload W --seed SEED --trace 0",
        "seconds_per_run": BENCHMARK["run_seconds"],
        "seeds": seeds,
        "order": ORDER,
        **compare([runs[w][s] for w in workloads for s in seeds[w]], commit, tree, (SHARED,)),
        "runs": {w: {str(s): runs[w][s] for s in seeds[w]} for w in workloads},
        "machine": machine,
    }


def pool(reports: list[dict]) -> dict:
    """One report of the runs of several stored reports, as the module
    docstring's ``--pool`` says: :func:`report` of one workload's runs, or
    :func:`setup_report` of several workloads'. :class:`ValueError` names
    what differs."""
    for r in reports:
        if "workload" not in r:
            raise ValueError(f"a pooled {SHARED} report cannot be pooled again")
        name = f"the {r['workload']} report against {r['parent']['commit']}"
        if "tree" not in r["change"]:
            raise ValueError(f"{name} has no change tree digest")
        records = [rec for pair in r["runs"].values() for rec in pair.values()]
        missing = [key for key in RECORD if any(key not in rec for rec in records)]
        if missing:
            raise ValueError(f"{name} stores runs without {', '.join(missing)}")
    first = reports[0]
    for key, of in (("parent", lambda r: r["parent"]["commit"]),
                    ("tree", lambda r: r["change"]["tree"]),
                    ("machine", lambda r: r["machine"])):
        if any(of(r) != of(first) for r in reports):
            raise ValueError(f"the reports differ in {key}")
    if any(r["seconds_per_run"] != BENCHMARK["run_seconds"] for r in reports):
        raise ValueError(f"a report ran other than {BENCHMARK['run_seconds']} s per run")
    runs: dict[str, dict[int, dict]] = {}
    for r in reports:
        of_workload = runs.setdefault(r["workload"], {})
        for s, pair in r["runs"].items():
            if int(s) in of_workload:
                raise ValueError("a seed is in more than one report")
            of_workload[int(s)] = pair
    commit, tree, host = first["parent"]["commit"], first["change"]["tree"], first["machine"]
    if len(runs) > 1:
        return setup_report(commit, tree, runs, host)
    return report(first["workload"], commit, tree, runs[first["workload"]], host)


def machine(pinned: bool) -> dict:
    """The host the runs shared; ``pinned`` says every run was pinned to one
    CPU."""
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    release = ".".join(platform.release().split(".")[:2])
    cpu = f"{model}, {os.cpu_count()} vCPU"
    return {
        "cpu": f"{cpu}, process pinned to one CPU" if pinned else cpu,
        "arch": platform.machine(),
        "os": f"{platform.system()} {release}",
        "python": platform.python_version(),
    }


def export_tree(rev: str, dest: Path) -> None:
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def tree_digest(tree: Path) -> str:
    """sha256 over the sorted relative paths and bytes of every file under
    ``tree`` except, at its root, the ``BENCH_*.json`` reports, which this
    script rewrites between the runs it may pool, and the ``*.md``
    documents, which no benchmark reads."""
    digest = hashlib.sha256()
    left_out = {*tree.glob("BENCH_*.json"), *tree.glob("*.md")}
    for path in sorted(p for p in tree.rglob("*") if p.is_file() and p not in left_out):
        name = path.relative_to(tree).as_posix()
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def export_working_tree(root: Path, dest: Path) -> None:
    """Copy the git working tree at ``root`` into ``dest`` as the module
    docstring says: the files git lists, with their bytes on disk."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True,
    ).stdout.decode()
    for name in listed.split("\0"):
        source = root / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, dest / name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--parent", help="git revision of the parent")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument(
        "--pool", type=Path, nargs="+", metavar="BENCH_JSON",
        help="pool stored reports of one parent and tree instead of running",
    )
    args = parser.parse_args(argv)
    if args.pool:
        if args.workload or args.parent or args.seeds:
            parser.error("--pool takes no --workload, --parent or --seeds")
        try:
            result = pool([json.loads(path.read_text()) for path in args.pool])
        except ValueError as exc:
            parser.error(str(exc))
    elif not (args.workload and args.parent and args.seeds):
        parser.error("--workload, --parent and --seeds are required without --pool")
    elif len(set(args.seeds)) < len(args.seeds):
        parser.error("each seed may be given only once")
    elif len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    else:
        # A stop unwinds like an error: subprocess.run kills the running
        # benchmark and the temporary directory of both copies is removed.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        result = run_pairs(args.workload, args.parent, args.seeds)
    out = ROOT / f"BENCH_{result.get('workload', SHARED)}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"{out.name}:")
    for name, v in result["verdicts"].items():
        print(
            f"  {name} median {result['parent'][name]['median']:.4g} -> "
            f"{result['change'][name]['median']:.4g} (change wins {v['wins']}, loses "
            f"{v['losses']} of {v['pairs']}; gap {v['gap']:.4g} against parent IQR "
            f"{v['parent_iqr']:.4g}; sign test p {v['sign_p']:.3g}): {v['verdict']}"
        )
    if "peak_rss_mb" in result["parent"]:
        print(
            f"  peak_rss_mb median {result['parent']['peak_rss_mb']['median']:.4g} -> "
            f"{result['change']['peak_rss_mb']['median']:.4g} (not gated)"
        )
    return 0


def run_pairs(workload: str, parent: str, seeds: list[int]) -> dict:
    """Run the alternated pairs of the module docstring and return their
    report."""
    commit = subprocess.run(
        ["git", "rev-parse", "--short", parent],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    runs: dict[int, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_tree(commit, trees["parent"])
        export_working_tree(ROOT, trees["change"])
        tree = tree_digest(trees["change"])
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            runs[seed] = {side: run_once(trees[side], workload, seed) for side in order}
            pairs = "; ".join(
                name + " " + "  ".join(f"{side} {runs[seed][side][name]:.4f}" for side in SIDES)
                for name in GATED
            )
            print(f"seed {seed}: {pairs}", flush=True)

    pinned = all(runs[s][side]["pinned"] for s in runs for side in SIDES)
    return report(workload, commit, tree, runs, machine(pinned))


if __name__ == "__main__":
    sys.exit(main())
