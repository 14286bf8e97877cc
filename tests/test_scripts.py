"""Runs of ``scripts/reproduce_tables.py``, each in a fresh interpreter, and
the report of ``scripts/bench_pairs.py`` on synthetic run records, its
checks of its input, its stop on SIGTERM and its copy of a git working tree.

``reproduce_tables.py`` scores its reference rows and its efficiency sweep
with ``calibrated_eff_micro`` and ``eff_core`` directly, so a change to
either shows here. Each run must exit 0 and print exactly the pinned text of
its form (by sha256, so a wrong problem in a reference row or a reordered
sweep fails even where no gate reads it), a config1 and a config2 reference
row among it, and the config1 row must read as the search's best row in the
same report layout. The design-space search and its gain are the
``asymtile search`` command's, tested in ``test_cli.py``. No test here runs
the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import load_script

from asymtile.cli import main

ROOT = Path(__file__).resolve().parent.parent
# The config1 row the search also picks, and a config2 row that is compute
# bound and fits only at the packed storage cost (at 5/4 B it needs 65.0 KB).
REFERENCE_CELLS = (
    ("config1", "4096x4096x2048", "128x64x128", "4", "60.0", "84.0", "35", "410", "26.6", "26.6"),
    ("config2", "4096x4096x2048", "256x64x128", "8", "58.5", "90.0", "35", "728", "47.3", "35"),
)
# The sha256 of each form's whole stdout: every reference row and every
# sweep line. Recompute it (``reproduce_tables.py [--csv] | sha256sum``) only
# in a change that means to move the model's figures, and say so.
REPORT_SHA256 = {
    "markdown": "72ce4d45accd2dfc6d3bb2ffa0573efc99d765ddc109439eec9058c83ee92e40",
    "csv": "f9d845644685e9f4f38f2f1c6aa9702befc7e64be50c959ce22055c7b4350526",
}


def run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize(
    "form, args, sep", [("markdown", (), " | "), ("csv", ("--csv",), ",")], ids=["markdown", "csv"]
)
def test_reproduce_tables_reference_row(form, args, sep):
    text = run_script("reproduce_tables.py", *args)
    for cells in REFERENCE_CELLS:
        assert sep.join(cells) in text
    assert "\nEfficiency sweep (fixed 128x128 output tile):\nt_k,rho,eff_micro,eff_core\n" in text
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[form], text


def test_reproduce_tables_row_reads_as_the_search_table_row():
    # The script keeps its own arithmetic and storage byte costs, but on the
    # config1 row at 4096x4096x2048 both price the search's best tile alike.
    report = io.StringIO()
    load_script("reproduce_tables.py").emit_markdown(report)
    row = next(
        line for line in report.getvalue().splitlines()
        if line.startswith("| config1 | 4096x4096x2048 |")
    )
    table = io.StringIO()
    assert main(["search", "--problem", "4096x4096x2048", "--emit", "table2"], out=table) == 0
    assert row.removeprefix("| config1 ") == table.getvalue().splitlines()[2]


def test_reproduce_tables_closed_stdout_exits_3_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == "error: stdout was closed before the tables were written\n"


def run_record(pass_norm_s, setup_s=0.06712, sha="f" * 64, correct=True):
    return {"pass_norm_s": pass_norm_s, "setup_s": setup_s, "peak_rss_mb": 33.456,
            "sha256": sha, "correct": correct, "pinned": True}


def build_report(module, runs, workload="oracles", commit="abc1234", tree="d" * 64,
                 pinned=True):
    # The script's own report of synthetic runs, as main stores it.
    report = module.report(workload, commit, tree, runs, module.machine(pinned))
    return json.loads(json.dumps(report))


def test_bench_pairs_summary():
    module = load_script("bench_pairs.py")
    parents = (0.80, 0.70, 0.75, 0.60, 0.90)
    changes = (0.60, 0.70, 0.55, 0.61, 0.50)
    setup_changes = (0.06, 0.061, 0.062, 0.06712, 0.07)
    runs = {
        seed: {"parent": run_record(p), "change": run_record(c, setup)}
        for seed, p, c, setup in zip((15, 11, 12, 13, 14), parents, changes, setup_changes)
    }
    summary = build_report(module, runs)
    assert summary["parent"]["pass_norm_s"] == {"median": 0.75, "q1": 0.7, "q3": 0.8}
    assert summary["change"]["pass_norm_s"] == {"median": 0.6, "q1": 0.55, "q3": 0.61}
    assert summary["parent"]["setup_s"] == {"median": 0.06712, "q1": 0.06712, "q3": 0.06712}
    assert summary["change"]["setup_s"] == {"median": 0.062, "q1": 0.061, "q3": 0.06712}
    # Wins are counted for every gated metric of BENCHMARK.json, lower being
    # better for both. pass_norm_s: seed 11 ties and seed 13 is a loss, three
    # wins of five. setup_s: seed 13 ties and seed 14 is a loss, three wins.
    assert {name: v["wins"] for name, v in summary["verdicts"].items()} == {
        "pass_norm_s": 3, "setup_s": 3,
    }
    # Five pairs are too few for any verdict.
    assert {name: v["verdict"] for name, v in summary["verdicts"].items()} == {
        "pass_norm_s": "too few pairs", "setup_s": "too few pairs",
    }
    assert summary["fingerprints_equal"] and summary["all_correct_zero_failed"]
    assert summary["seeds"] == [11, 12, 13, 14, 15]
    assert list(summary["runs"]) == ["11", "12", "13", "14", "15"]
    # Each run is stored whole, as run_once returns it.
    assert summary["runs"]["15"] == {"parent": run_record(0.8), "change": run_record(0.6, 0.06)}

    runs[12]["change"] = run_record(0.55, sha="0" * 64)
    runs[14]["parent"] = run_record(0.90, correct=False)
    summary = build_report(module, runs)
    assert not summary["fingerprints_equal"]
    assert not summary["all_correct_zero_failed"]


def test_bench_pairs_verdicts_recompute_from_the_stored_runs(tmp_path):
    # Runs near dse's pass_norm_s, where rounding to four decimals would
    # leave two significant figures and move the parent's IQR.
    module = load_script("bench_pairs.py")
    parents = [0.0069 + i * 0.000037 for i in range(10)]
    changes = [0.0052 + i * 0.000041 for i in range(10)]
    runs = {
        seed: {"parent": run_record(p, 0.06 + p), "change": run_record(c, 0.06 + c)}
        for seed, p, c in zip(range(21, 31), parents, changes)
    }
    path = tmp_path / "BENCH_dse.json"
    path.write_text(json.dumps(build_report(module, runs, workload="dse"), indent=2) + "\n")
    stored = json.loads(path.read_text())
    seeds = sorted(stored["runs"], key=int)
    for name, direction in module.GATED.items():
        recomputed = module.verdict(
            [stored["runs"][s]["parent"][name] for s in seeds],
            [stored["runs"][s]["change"][name] for s in seeds],
            direction,
            module.BOUNDS[name],
        )
        assert recomputed == stored["verdicts"][name]
    assert stored["verdicts"]["pass_norm_s"]["verdict"] == "gain"
    # The whole report, not only its verdicts, is a function of the stored
    # runs and the parent, tree and machine it names.
    assert module.report(
        stored["workload"], stored["parent"]["commit"], stored["change"]["tree"],
        {int(s): pair for s, pair in stored["runs"].items()}, stored["machine"],
    ) == stored
    # So pooling one report gives it back.
    assert module.pool([stored]) == stored


def test_bench_pairs_names_pinning_only_when_every_run_was_pinned():
    machine = load_script("bench_pairs.py").machine
    assert machine(True)["cpu"].endswith(", process pinned to one CPU")
    assert "pinned" not in machine(False)["cpu"]


# Ten parent runs 1.00, 1.01, ..., 1.09: median 1.045, IQR 0.045, and a
# bound of 0.2 allows the change's median to be worse by 0.209.
PARENT_RUNS = [1 + i / 100 for i in range(10)]


@pytest.mark.parametrize(
    "change, direction, want",
    [
        # Ten wins by 0.2, far outside the IQR.
        ([p - 0.2 for p in PARENT_RUNS], "lower", "gain"),
        # Nine wins and one loss (sign test p = 22/1024) by 0.2.
        ([p - 0.2 for p in PARENT_RUNS[:9]] + [1.2], "lower", "gain"),
        # Nine wins, but by 0.01: the gap lies inside the parent's IQR.
        ([p - 0.01 for p in PARENT_RUNS[:9]] + [1.2], "lower", "within spread"),
        # Eight wins of ten by 0.2: below nine tenths.
        ([p - 0.2 for p in PARENT_RUNS[:8]] + [1.2, 1.2], "lower", "unresolved"),
        # A/A: the same runs, and the same runs in another order.
        (list(PARENT_RUNS), "lower", "within spread"),
        (PARENT_RUNS[5:] + PARENT_RUNS[:5], "lower", "within spread"),
        # Ten losses by 0.1: outside the IQR, inside the bound.
        ([p + 0.1 for p in PARENT_RUNS], "lower", "regression"),
        # One loss of ten, but the median is worse by more than the bound.
        ([p + 0.3 for p in PARENT_RUNS[:9]] + [0.5], "lower", "regression"),
        # Where higher is better, the same shifts read the other way.
        ([p + 0.2 for p in PARENT_RUNS], "higher", "gain"),
        ([p - 0.1 for p in PARENT_RUNS], "higher", "regression"),
    ],
)
def test_bench_pairs_verdict(change, direction, want):
    verdict = load_script("bench_pairs.py").verdict
    assert verdict(PARENT_RUNS, change, direction, 0.2)["verdict"] == want


def test_bench_pairs_verdict_reports_sign_p_and_needs_a_spread_within_the_bound():
    module = load_script("bench_pairs.py")
    assert module.sign_test_p(9, 1) == 22 / 1024
    assert module.sign_test_p(10, 0) == 2 / 1024
    assert module.sign_test_p(5, 5) == module.sign_test_p(0, 0) == 1.0
    # Four wins of four by 0.2 clear the share and the IQR, but four pairs
    # are too few for a verdict; sign_p is still reported.
    v = module.verdict(PARENT_RUNS[:4], [p - 0.2 for p in PARENT_RUNS[:4]], "lower", 0.2)
    assert (v["verdict"], v["wins"], v["sign_p"]) == ("too few pairs", 4, 0.125)
    # Parent runs 1..10 spread wider (IQR 4.5) than the bound allows (1.1):
    # a small steady loss cannot be told from noise.
    wide = [float(i) for i in range(1, 11)]
    v = module.verdict(wide, [p + 0.05 for p in wide], "lower", 0.2)
    assert (v["verdict"], v["losses"]) == ("unresolved", 10)


def test_nine_tenths_of_enough_pairs_always_clear_the_sign_test():
    # Why the rule tests no sign_p: from MIN_PAIRS pairs on, any win (or,
    # by symmetry, loss) count a verdict accepts, with any loss count that
    # fits beside it, gives a sign test of at most 22/1024 (nine wins, one
    # loss). Five wins of five would give 2/32.
    module = load_script("bench_pairs.py")
    worst = max(
        module.sign_test_p(wins, losses)
        for n in range(module.MIN_PAIRS, 201)
        for wins in range(-(-9 * n // 10), n + 1)
        for losses in range(n - wins + 1)
    )
    assert worst == 22 / 1024 < 0.05


def test_bench_pairs_gives_no_verdict_from_fewer_than_ten_pairs():
    # Six losses of six by 3.4%, outside the parent's 0.025 IQR and with
    # sign test p = 2/64, would read "regression" under the other rules;
    # A/A runs on identical code have lost six of six like this.
    module = load_script("bench_pairs.py")
    parent = PARENT_RUNS[:6]
    v = module.verdict(parent, [p * 1.034 for p in parent], "lower", 0.2)
    assert v["parent_iqr"] < -v["gap"]
    assert (v["verdict"], v["losses"], v["pairs"], v["sign_p"]) == (
        "too few pairs", 6, 6, 2 / 64,
    )


def test_bench_pairs_pools_reports_of_one_parent_and_tree(tmp_path, capsys):
    module = load_script("bench_pairs.py")
    # Two five-pair runs: each alone is too few pairs; pooled they are ten,
    # and the change wins nine by about 0.1, far outside the parent's IQR.
    parents = [0.60 + i * 0.003 for i in range(10)]
    changes = [p - 0.1 for p in parents[:9]] + [0.7]
    runs = {
        seed: {"parent": run_record(p, 0.06 + p / 100), "change": run_record(c)}
        for seed, p, c in zip(range(41, 51), parents, changes)
    }
    for pair in runs.values():
        pair["change"]["peak_rss_mb"] = 36.2
    first = build_report(module, {s: runs[s] for s in range(41, 46)})
    second = build_report(module, {s: runs[s] for s in range(46, 51)})
    assert first["verdicts"]["pass_norm_s"]["verdict"] == "too few pairs"
    pooled = module.pool([second, first])
    for name, direction in module.GATED.items():
        assert pooled["verdicts"][name] == module.verdict(
            [runs[s]["parent"][name] for s in range(41, 51)],
            [runs[s]["change"][name] for s in range(41, 51)],
            direction,
            module.BOUNDS[name],
        )
    assert pooled["verdicts"]["pass_norm_s"]["verdict"] == "gain"
    assert pooled["seeds"] == list(range(41, 51))
    assert pooled["parent"]["commit"] == "abc1234" and pooled["change"]["tree"] == "d" * 64
    assert pooled["fingerprints_equal"] and pooled["all_correct_zero_failed"]
    # Pooling gives what one ten-pair run would store.
    assert pooled == build_report(module, runs)

    # Through the command line the pooled report is written to
    # BENCH_<W>.json at the root (here a temporary one).
    paths = []
    for i, report in enumerate((first, second)):
        paths.append(tmp_path / f"run{i}.json")
        paths[-1].write_text(json.dumps(report))
    module.ROOT = tmp_path
    assert module.main(["--pool", *map(str, paths)]) == 0
    written = json.loads((tmp_path / "BENCH_oracles.json").read_text())
    assert written["verdicts"] == pooled["verdicts"]
    # One line per gated metric, then both sides' peak RSS medians, which
    # no verdict reads.
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "BENCH_oracles.json:"
    assert [line.split(" median ")[0] for line in printed[1:]] == [
        *(f"  {name}" for name in module.GATED), "  peak_rss_mb"
    ]
    assert printed[-1] == "  peak_rss_mb median 33.46 -> 36.2 (not gated)"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"pinned": False}, "the reports differ in machine"),
        ({"commit": "fff0000"}, "the reports differ in parent"),
        ({"tree": "e" * 64}, "the reports differ in tree"),
        ({"seeds": range(45, 50)}, "a seed is in more than one report"),
    ],
)
def test_bench_pairs_refuses_to_pool_mixed_reports(change, message):
    module = load_script("bench_pairs.py")
    seeds = change.pop("seeds", range(51, 56))
    first = build_report(module, {s: {"parent": run_record(1.0), "change": run_record(0.9)}
                                  for s in range(41, 46)})
    second = build_report(module, {s: {"parent": run_record(1.0), "change": run_record(0.9)}
                                   for s in seeds}, **change)
    with pytest.raises(ValueError, match=f"^{message}$"):
        module.pool([first, second])
    del first["change"]["tree"]
    with pytest.raises(ValueError, match="has no change tree digest$"):
        module.pool([first, first])


def test_bench_pairs_pools_setup_s_over_workloads(tmp_path, capsys):
    module = load_script("bench_pairs.py")
    # Five pairs of each workload: each alone is too few pairs. The cold
    # start is the same in every workload, so its fifteen pairs pool into one
    # setup_s verdict; a seed may recur in another workload.
    seeds = {"dse": range(41, 46), "kernels": range(46, 51), "oracles": range(41, 46)}
    runs = {
        w: {s: {"parent": run_record(0.5, 0.060 + s % 5 / 1e4), "change": run_record(0.4, 0.0602)}
            for s in seeds[w]}
        for w in seeds
    }
    reports = [build_report(module, runs[w], workload=w) for w in ("oracles", "kernels", "dse")]
    assert {r["verdicts"]["setup_s"]["verdict"] for r in reports} == {"too few pairs"}
    pooled = module.pool(reports)
    order = [(w, s) for w in ("dse", "kernels", "oracles") for s in seeds[w]]
    assert pooled["verdicts"] == {"setup_s": module.verdict(
        [runs[w][s]["parent"]["setup_s"] for w, s in order],
        [runs[w][s]["change"]["setup_s"] for w, s in order],
        "lower", module.BOUNDS["setup_s"],
    )}
    assert pooled["verdicts"]["setup_s"]["pairs"] == 15
    assert pooled["verdicts"]["setup_s"]["verdict"] == "within spread"
    # pass_norm_s times different work in each workload: nothing pools it.
    assert set(pooled["parent"]) == {"commit", "setup_s"}
    assert set(pooled["change"]) == {"tree", "setup_s"}
    assert pooled["workloads"] == ["dse", "kernels", "oracles"]
    assert pooled["seeds"] == {w: list(seeds[w]) for w in ("dse", "kernels", "oracles")}
    assert pooled["fingerprints_equal"] and pooled["all_correct_zero_failed"]
    assert pooled == json.loads(json.dumps(
        module.setup_report("abc1234", "d" * 64, runs, module.machine(True))
    ))
    # A seed repeated within one workload is refused, as is another host.
    with pytest.raises(ValueError, match="^a seed is in more than one report$"):
        module.pool([*reports, build_report(module, runs["dse"], workload="dse")])
    with pytest.raises(ValueError, match="^the reports differ in machine$"):
        module.pool([reports[0], build_report(module, runs["dse"], workload="dse", pinned=False)])

    # The command line writes the pooled verdict to BENCH_setup_s.json and
    # prints its one line.
    paths = []
    for report in reports:
        paths.append(tmp_path / f"BENCH_{report['workload']}.json")
        paths[-1].write_text(json.dumps(report))
    module.ROOT = tmp_path
    assert module.main(["--pool", *map(str, paths)]) == 0
    assert json.loads((tmp_path / "BENCH_setup_s.json").read_text()) == pooled
    with pytest.raises(ValueError, match="^a pooled setup_s report cannot be pooled again$"):
        module.pool([*reports, pooled])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "BENCH_setup_s.json:"
    assert len(printed) == 2 and printed[1].startswith("  setup_s median ")
    assert printed[1].endswith(": within spread")


def test_bench_pairs_pools_only_reports_it_can_rebuild(tmp_path, capsys):
    module = load_script("bench_pairs.py")
    stored = build_report(module, {s: {"parent": run_record(1.0), "change": run_record(0.9)}
                                   for s in range(41, 46)})
    longer = dict(stored, seconds_per_run=module.BENCHMARK["run_seconds"] + 1)
    with pytest.raises(ValueError, match=r"^a report ran other than \d+ s per run$"):
        module.pool([longer])
    # A report written before each run was stored whole keeps only the
    # metrics of each run, so its fingerprints, correctness and pinning
    # cannot be recomputed; --pool says so in one line.
    for pair in stored["runs"].values():
        for record in pair.values():
            del record["sha256"], record["correct"], record["pinned"]
    path = tmp_path / "BENCH_oracles.json"
    path.write_text(json.dumps(stored))
    module.ROOT = tmp_path
    with pytest.raises(SystemExit) as stop:
        module.main(["--pool", str(path)])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the oracles report against abc1234 stores runs without sha256, correct, pinned\n"
    )


@pytest.mark.parametrize("seeds", [["5", "5"], ["1", "2", "2", "3"]])
def test_bench_pairs_refuses_repeated_seeds(seeds, capsys):
    module = load_script("bench_pairs.py")
    module.run_pairs = lambda *args: pytest.fail("run_pairs was called")
    with pytest.raises(SystemExit) as stop:
        module.main(["--workload", "dse", "--parent", "HEAD", "--seeds", *seeds])
    assert stop.value.code == 2
    assert capsys.readouterr().err.endswith("error: each seed may be given only once\n")


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_bench_pairs_stopped_leaves_no_run_or_copy_behind(tmp_path):
    # A repository whose benchmark writes its PID and sleeps, so the script
    # is stopped while the parent's run of seed 1 is going.
    repo, tmp, pid_file = tmp_path / "repo", tmp_path / "tmp", tmp_path / "pid"
    (repo / "scripts").mkdir(parents=True)
    (repo / "benchmarks").mkdir()
    tmp.mkdir()
    shutil.copy(ROOT / "scripts" / "bench_pairs.py", repo / "scripts")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "pass_norm_s", "better": "lower", "bound": 0.2}],
    }))
    (repo / "benchmarks" / "run.py").write_text(
        "import os, pathlib, time\n"
        f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()) + '\\n')\n"
        "time.sleep(120)\n"
    )
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    proc = subprocess.Popen(
        [sys.executable, "scripts/bench_pairs.py", "--workload", "w", "--parent", "HEAD",
         "--seeds", "1", "2"],
        cwd=repo, env={**os.environ, "TMPDIR": str(tmp)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    child = None
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text().endswith("\n")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)
        assert list(tmp.iterdir()) == []
    finally:
        proc.kill()
        if child is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(child, signal.SIGKILL)


def test_bench_pairs_tree_digest_covers_paths_and_bytes(tmp_path):
    tree_digest = load_script("bench_pairs.py").tree_digest
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_bytes(b"x = 1\n")
    before = tree_digest(tmp_path)
    # The reports at the root are the script's own output, so rewriting one
    # between two runs leaves the tree the same; one elsewhere is a file.
    (tmp_path / "BENCH_oracles.json").write_text("{}")
    assert tree_digest(tmp_path) == before
    (tmp_path / "src" / "BENCH_oracles.json").write_text("{}")
    assert tree_digest(tmp_path) != before
    (tmp_path / "src" / "BENCH_oracles.json").unlink()
    # The documents at the root, which no benchmark reads, are left out
    # too; a .md file elsewhere is a file.
    for text in ("# roadmap\n", "# roadmap, edited\n"):
        (tmp_path / "ROADMAP.md").write_text(text)
        assert tree_digest(tmp_path) == before
    (tmp_path / "src" / "notes.md").write_text("# notes\n")
    assert tree_digest(tmp_path) != before
    (tmp_path / "src" / "notes.md").unlink()
    (tmp_path / "src" / "a.py").write_bytes(b"x = 2\n")
    assert tree_digest(tmp_path) != before
    (tmp_path / "src" / "a.py").write_bytes(b"x = 1\n")
    (tmp_path / "src" / "a.py").rename(tmp_path / "src" / "b.py")
    assert tree_digest(tmp_path) != before


def test_bench_pairs_copies_the_working_tree_as_git_lists_it(tmp_path):
    export_working_tree = load_script("bench_pairs.py").export_working_tree
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    files = {
        ".gitignore": b"ignored.txt\n",
        "src/edited.py": b"old = 1\n",
        "deleted.py": b"gone = 1\n",
        "kept.py": b"kept = 1\n",
    }
    for name, data in files.items():
        (repo / name).write_bytes(data)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src/edited.py").write_bytes(b"new = 2\n")
    (repo / "deleted.py").unlink()
    (repo / "src/untracked.py").write_bytes(b"fresh = 3\n")
    (repo / "ignored.txt").write_bytes(b"build output\n")
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, check=True).stdout
    export_working_tree(repo, dest)
    copied = {str(p.relative_to(dest)): p.read_bytes() for p in dest.rglob("*") if p.is_file()}
    assert copied == {
        ".gitignore": b"ignored.txt\n",
        "kept.py": b"kept = 1\n",
        "src/edited.py": b"new = 2\n",
        "src/untracked.py": b"fresh = 3\n",
    }
    # No commit or stash was made.
    assert subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, check=True).stdout == head
    assert subprocess.run(["git", "stash", "list"], cwd=repo, capture_output=True, check=True).stdout == b""
