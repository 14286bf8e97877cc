"""Runs of ``scripts/reproduce_tables.py``, each in a fresh interpreter.

It is the only caller of ``sweep_grid`` outside the tests, and it scores
its reference rows with ``calibrated_eff_micro`` directly, so a change to
either shows here. Each run must exit 0 and print the config1 reference row. The design-space search and its gain
are the ``asymtile search`` command's, tested in ``test_cli.py``.
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
