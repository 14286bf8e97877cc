#!/usr/bin/env python3
"""Record the bytes of the CLI's reports into a golden file.

Usage:
    PYTHONPATH=src python3 scripts/record_cli_golden.py

Each case in ``CASES`` runs in-process through ``asymtile.cli.main``. Its
entry in ``tests/cli_golden.json`` holds the argv, the exit code, the sha256
of stdout and stderr as text. The cases cover ``search`` in text, csv and
table2 form under each efficiency source, on the reference problem and on a
config2 pair, plus spaces that nothing survives under each source; ``eval``
in text and csv form under each source, plus an infeasible tile;
``simulate movement`` at the core and the array, a verification sweep and
an array walk the problem does not divide; ``simulate schedule`` plain, for
a tile, a verification sweep and a ``--dump``; and one flag-only line of
each class of configuration error.

A ``--dump`` path in a case is the placeholder ``DUMP``: the run writes to a
temporary file, its entry also holds the sha256 of what was written, and
the temporary path reads as ``DUMP`` again in the recorded stdout.

Record the file from the code whose bytes it pins, and again only in a
change that means to move a report; ``tests/test_cli.py`` replays it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from asymtile.cli import main as cli_main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "cli_golden.json"
SOURCES = ("calibration", "closed_form", "simulated")
PROBLEMS = (("4096x4096x2048", "config1"), ("2048x4096x2048", "config2"))
REFERENCE = ("--problem", "4096x4096x2048", "--tile", "32,128,64,128")
DUMP = "<dump>"

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
    # Empty spaces under the kernel sources; the last only by kernel shape.
    ["search", "--problem", "100x100x100", "--eff-source", "closed_form"],
    ["search", "--problem", "100x100x100", "--eff-source", "simulated"],
    ["search", "--problem", "4096x4096x2048", "--eff-source", "simulated",
     "--t-mc-max", "16", "--t-n-max", "8"],
    ["simulate", "movement", *REFERENCE],
    ["simulate", "movement", *REFERENCE, "--boundary", "array"],
    ["simulate", "movement", "--verify", "50"],
    # t_mc = 128 divides m = 4224; the array's 512-row L2 tile does not.
    ["simulate", "movement", "--problem", "4224x4096x2048", "--tile", "32,128,64,128",
     "--boundary", "array"],
    ["simulate", "schedule"],
    ["simulate", "schedule", "--tile", "32,128,64,128"],
    ["simulate", "schedule", "--verify", "100", "--seed", "11"],
    ["simulate", "schedule", "--tile", "32,128,64,128", "--dump", DUMP],
    # Configuration errors, one line of each class, from flags alone.
    [],
    ["simulate"],
    ["search", "--problem", "4096x4096x2048", "--limit", "-1"],
    ["eval", "--problem", "4096x4096x2048"],
    ["eval", "--problem", "4096x4096", "--tile", "32,128,64,128"],
    ["eval", "--problem", "4096x4096x2048", "--tile", "32,128,64"],
    ["eval", "--problem", "4096x4096x2048", "--tile", "32,16,64,128"],
    ["eval", *REFERENCE, "--precision", "fp64"],
    ["eval", *REFERENCE, "--eff-source", "vibes"],
    ["eval", *REFERENCE, "--eff-micro", "1.5"],
    ["eval", "--problem", "4000x4096x2048", "--tile", "32,128,64,128"],
    ["eval", "--problem", "4096x4096x2048", "--tile", "8,8,64,8", "--eff-source", "closed_form"],
    ["simulate", "schedule", "--tile", "8,8,64,8"],
    ["search", "--problem", "4096x4096x2048", "--rho", "1,x"],
    ["search", "--problem", "4096x4096x2048", "--step", "12"],
    ["eval", *REFERENCE, "--config", "no-such-dir/config.json"],
    ["simulate", "schedule", "--dump", "no-such-dir/schedule.csv"],
)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


def run_case(argv: list[str]) -> dict:
    """One in-process CLI run as a golden entry."""
    dump = None
    if DUMP in argv:
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "schedule.csv")
            code, out, err = _run([path if arg == DUMP else arg for arg in argv])
            dump = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        out, err = out.replace(path, DUMP), err.replace(path, DUMP)
    else:
        code, out, err = _run(argv)
    entry = {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": err,
    }
    if dump is not None:
        entry["dump_sha256"] = dump
    return entry


def main() -> int:
    entries = [run_case(case) for case in CASES]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
