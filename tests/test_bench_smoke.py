"""Smoke runs of the benchmark harness, so it cannot rot unnoticed.

Each run goes through ``benchmarks/run.py --smoke`` in a fresh interpreter:
one small pass with every correctness check the harness makes (exact
rational intensities and byte counts for ``oracles``, the recorded CSV
SHA-256 digests for ``dse``, schedules against the closed-form bounds and
efficiencies for ``kernels``). No timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["oracles", "dse", "kernels"])
def test_benchmark_smoke_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload, "--smoke"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
