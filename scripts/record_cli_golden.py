#!/usr/bin/env python3
"""Record the bytes of the ``search`` and ``eval`` reports into a golden file.

Usage:
    PYTHONPATH=src python3 scripts/record_cli_golden.py

Each case in ``CASES`` runs in-process through ``asymtile.cli.main``. Its
entry in ``tests/cli_golden.json`` holds the argv, the exit code, the sha256
of stdout and stderr as text. The cases cover ``search`` in text, csv and
table2 form under each efficiency source, on the reference problem and on a
config2 pair, plus a space that nothing survives; and ``eval`` in text and
csv form under each source, plus an infeasible tile.

Record the file from the code whose bytes it pins, and again only in a
change that means to move a report; ``tests/test_cli.py`` replays it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from asymtile.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "cli_golden.json"
SOURCES = ("calibration", "closed_form", "simulated")
PROBLEMS = (("4096x4096x2048", "config1"), ("2048x4096x2048", "config2"))

CASES = (
    *(
        ["search", "--problem", problem, "--precision", prec, "--eff-source", source,
         "--emit", emit]
        for problem, prec in PROBLEMS
        for source in SOURCES
        for emit in ("text", "csv", "table2")
    ),
    ["search", "--problem", "100x100x100"],
    *(
        ["eval", "--problem", "4096x4096x2048", "--tile", "32,128,64,128",
         "--eff-source", source, "--format", fmt]
        for source in SOURCES
        for fmt in ("text", "csv")
    ),
    ["eval", "--problem", "4096x4096x2048", "--tile", "128,128,64,128"],
)


def run_case(argv: list[str]) -> dict:
    """One in-process CLI run as a golden entry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(list(argv), out=out)
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    entries = [run_case(case) for case in CASES]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
