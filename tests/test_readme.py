"""The README's library quick start, run as written in a fresh interpreter.

The snippet imports each name from the module that defines it, and the
trailing comment of each ``print`` line is that line's output, so the test
fails if the snippet or its comments drift from the code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUICK_START_STDOUT = [
    "2048/5 409.6",
    "26.624 memory",
    "(32, 128, 64, 128) 1.40",
    "(32, 128, 128, 64) 1.14",
]


def test_readme_quick_start_runs_as_written():
    [snippet] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == QUICK_START_STDOUT
    comments = [line.split("# ", 1)[1] for line in snippet.splitlines() if line.startswith("print(")]
    assert comments == QUICK_START_STDOUT
