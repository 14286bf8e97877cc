"""Tests of the benchmark harness itself, in smoke mode.

Run with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_checks_and_repeats_its_fingerprint(workload):
    results = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "7", "--smoke")
        assert proc.returncode == 0, proc.stderr
        line = last_json(proc)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }
        assert all(m["value"] > 0 for m in line["metrics"].values())
        results.append(json.loads((BENCH / "results" / f"{workload}-seed7-smoke.json").read_text()))
    first, second = results
    assert first["fingerprint"]["data"] and first["fingerprint"] == second["fingerprint"]
    for key in ("seed", "git_sha", "python", "numpy", "cpu_count", "passes", "load"):
        assert key in first["provenance"]
    assert first["known_defects"]["search_closed_form_exit_code"] in (0, 2, 3, 4)


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc = bench("--workload", "kernels", "--seed", "7", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["schedule.schedule.s"]["value"] > 0
    assert metrics["schedule.sim_cycles"]["value"] > 0
    spans = (BENCH / "results" / "kernels-seed7-smoke-trace-spans.jsonl").read_text().splitlines()
    span_id, parent, name, op_id, start, end = json.loads(spans[0])
    assert end >= start and op_id >= 0 and "." in name


def test_without_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("results"))
    proc = bench("--workload", "dse", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_raised_and_mismatched_operations_count_as_failed():
    run.load_program()
    import workloads as wl

    def boom(rec):
        raise RuntimeError("boom")

    class Broken(wl.Workload):
        name = "broken"

        def make_pass(self, index):
            return [
                ("ok", lambda rec: rec.check(True, "fine")),
                ("raises", boom),
                ("mismatch", lambda rec: rec.check(False, "wrong answer")),
            ]

    record = run.run_pass(
        wl, Broken(0, wl.SMOKE), 0, wl.Tracer(), wl.HostClock(run.CLOCK_INTERVAL), False, 0
    )
    assert record.failed_ops == 2
    assert any("wrong answer" in f for f in record.failures)
    assert any("RuntimeError: boom" in f for f in record.failures)


def test_program_time_leaves_out_checks_and_clock_samples():
    run.load_program()
    import workloads as wl

    clock = wl.HostClock(run.CLOCK_INTERVAL)
    rec = wl.Recorder(wl.Tracer(), clock)
    rec.tracer.call("bench.check", time.sleep, 0.05)
    rec.run("bench.sampling", clock.sample)
    assert rec.program_s < 0.01
    rec.timed("bench.payload", "payload_s", time.sleep, 0.02)
    assert 0.02 <= rec.program_s < 0.03
    assert rec.work["payload_s"] >= 0.02
