"""Runs of the scripts in ``scripts/``, each in a fresh interpreter.

They are the only callers of ``sweep_grid`` and ``calibrated_eff_micro``
outside the tests, so a change to either shows here. Each run must exit 0
and print the config1 reference row or the headline gain.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CELLS = ("4096x4096x2048", "128x64x128", "4", "60.0", "84.0", "35", "410", "26.6", "26.6")


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


@pytest.mark.parametrize("args, sep", [((), " | "), (("--csv",), ",")], ids=["markdown", "csv"])
def test_reproduce_tables_reference_row(args, sep):
    text = run_script("reproduce_tables.py", *args)
    assert "config1" + sep + sep.join(REFERENCE_CELLS) in text
    assert "Efficiency sweep" in text


def test_explore_design_space_gain():
    text = run_script("explore_design_space.py")
    assert "asymmetric-buffering gain: 1.40x" in text
