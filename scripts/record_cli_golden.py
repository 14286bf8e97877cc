#!/usr/bin/env python3
"""Record the bytes of the CLI's reports into a golden file.

Usage:
    PYTHONPATH=src python3 scripts/record_cli_golden.py

Each case in ``CASES`` runs in-process through ``asymtile.cli.main``. Its
entry in ``tests/cli_golden.json`` holds the argv, the exit code, the sha256
of stdout and stderr as text. The cases cover each report form of each
subcommand, each efficiency source, empty spaces, tiles over capacity and
at it, verification sweeps, one line of each class of configuration error
and one config document per top-level key; the comments in ``CASES`` say
what a group reaches that no other does.

A case is an argv list, or a dict of ``argv`` and a JSON ``config``
document (:func:`with_config`). A ``--dump`` path in a case is the
placeholder ``DUMP`` and a ``--config`` path the placeholder ``CONFIG``:
the run writes the dump to, or reads the document from, a temporary file,
and the temporary path reads as the placeholder again in the recorded
output. An entry also holds the document it ran with and the sha256 of a
dump (null for a case given ``DUMP`` whose run wrote no dump).

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
from asymtile.perf import EFF_SOURCES

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "cli_golden.json"
SOURCES = tuple(EFF_SOURCES)
PROBLEMS = (("4096x4096x2048", "config1"), ("2048x4096x2048", "config2"))
REFERENCE = ("--problem", "4096x4096x2048", "--tile", "32,128,64,128")
DUMP = "<dump>"
CONFIG = "<config>"


def with_config(config: dict, *argv: str) -> dict:
    """A case that runs ``argv`` with ``config`` as its ``--config`` file."""
    return {"argv": [*argv, "--config", CONFIG], "config": config}


CASES = (
    *(
        ["search", "--problem", problem, "--precision", prec, "--eff-source", source,
         "--emit", emit]
        for problem, prec in PROBLEMS
        for source in SOURCES
        for emit in ("text", "csv", "table2")
    ),
    ["search", "--problem", "100x100x100"],
    # A valid --rho whose space holds no symmetric tile.
    ["search", "--problem", "4096x4096x2048", "--rho", "2,4", "--limit", "2"],
    *(
        ["eval", "--problem", "4096x4096x2048", "--tile", "32,128,64,128",
         "--eff-source", source, "--format", fmt]
        for source in SOURCES
        for fmt in ("text", "csv")
    ),
    ["eval", "--problem", "4096x4096x2048", "--tile", "128,128,64,128"],
    # One update per cluster: fewer live chains than the kernel's four.
    ["eval", "--problem", "4096x4096x2048", "--tile", "32,128,8,128", "--eff-source", "closed_form"],
    # Empty spaces under the kernel sources; the last only by kernel shape.
    ["search", "--problem", "100x100x100", "--eff-source", "closed_form"],
    ["search", "--problem", "100x100x100", "--eff-source", "simulated"],
    ["search", "--problem", "4096x4096x2048", "--eff-source", "simulated",
     "--t-mc-max", "16", "--t-n-max", "8"],
    ["simulate", "movement", *REFERENCE],
    ["simulate", "movement", *REFERENCE, "--boundary", "array"],
    *(
        ["simulate", "movement", *REFERENCE, "--boundary", boundary, "--format", "csv"]
        for boundary in ("core", "array")
    ),
    ["simulate", "movement", "--verify", "50"],
    # t_mc = 128 divides m = 4224; the array's 512-row L2 tile does not.
    ["simulate", "movement", "--problem", "4224x4096x2048", "--tile", "32,128,64,128",
     "--boundary", "array"],
    # B and C alone take 80 KB of the 63 KB L1, at either boundary.
    *(
        ["simulate", "movement", "--problem", "4096x4096x2048", "--tile", "128,128,64,128",
         "--boundary", boundary]
        for boundary in ("core", "array")
    ),
    ["simulate", "schedule"],
    ["simulate", "schedule", "--tile", "32,128,64,128"],
    ["simulate", "schedule", "--tile", "32,128,8,128"],
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
    # Precision as inline JSON, then as inline JSON that does not parse.
    ["eval", *REFERENCE, "--precision",
     '{"byte_cost_a": 1, "byte_cost_b": 1, "byte_cost_c": 2, "accum_label": "fp16"}'],
    ["eval", *REFERENCE, "--precision", '{"byte_cost_a": 1,'],
    ["eval", *REFERENCE, "--eff-source", "vibes"],
    ["eval", *REFERENCE, "--eff-micro", "1.5"],
    ["eval", "--problem", "4000x4096x2048", "--tile", "32,128,64,128"],
    ["eval", "--problem", "4096x4096x2048", "--tile", "8,8,64,8", "--eff-source", "closed_form"],
    ["simulate", "schedule", "--tile", "8,8,64,8"],
    ["search", "--problem", "4096x4096x2048", "--rho", "1,x"],
    ["search", "--problem", "4096x4096x2048", "--step", "12"],
    ["eval", *REFERENCE, "--config", "no-such-dir/config.json"],
    ["simulate", "schedule", "--dump", "no-such-dir/schedule.csv"],
    # Config documents, one per top-level key, then the two unknown keys.
    with_config({"arch": {"offchip_bw": 1.3e11, "switch_overhead_delta": 0}}, "eval", *REFERENCE),
    with_config({"precision": {"byte_cost_a": "3/2", "byte_cost_b": 1, "byte_cost_c": 2}},
                "eval", *REFERENCE),
    with_config({"problem": {"m": 2048, "k": 4096, "n": 2048}},
                "eval", "--tile", "32,128,64,128"),
    with_config({"tile": {"t_ma": 16, "t_mc": 128, "t_k": 64, "t_n": 128}},
                "eval", "--problem", "4096x4096x2048"),
    with_config({"search": {"t_mc_max": 128, "t_n_max": 128, "rho_candidates": [1, 2]}},
                "search", "--problem", "4096x4096x2048"),
    with_config({"microkernel": {"l_store": 3}}, "eval", *REFERENCE, "--eff-source", "closed_form"),
    # Load classes as a [latency, count] list and as an object, unaligned.
    with_config({"microkernel": {"load_classes": [[8, 4], {"latency": 2, "count": 1, "unaligned": True}]}},
                "simulate", "schedule"),
    with_config({"eff_source": "closed_form"}, "eval", *REFERENCE),
    with_config({"eff_micro": 0.5}, "eval", *REFERENCE),
    with_config({"tiles": [32, 128, 64, 128]}, "eval", *REFERENCE),
    with_config({"arch": {"l1_size": 32768}}, "eval", *REFERENCE),
    # L1 capacity at the reference tile's footprint (61,440 B), then one byte
    # under it, at each boundary.
    *(
        with_config({"arch": {"l1_capacity": capacity}},
                    "simulate", "movement", *REFERENCE, "--boundary", boundary)
        for capacity in (61440, 61439)
        for boundary in ("core", "array")
    ),
    # The document is parsed whole before flags replace its values: four
    # bad values under four valid flags, and an eff_micro out of (0, 1]
    # under a subcommand that scores no single tile.
    with_config({"problem": "garbage", "tile": "nope", "eff_source": 3, "precision": "fp64"},
                "eval", *REFERENCE, "--eff-source", "closed_form", "--precision", "config1"),
    with_config({"eff_micro": 1.5}, "search", "--problem", "4096x4096x2048"),
    # The accumulator register count is the core's, not a key.
    with_config({"microkernel": {"accum_regs": 5}}, "simulate", "schedule"),
    # A sweep of zero cases on each target.
    ["simulate", "movement", "--verify", "0"],
    ["simulate", "schedule", "--verify", "0"],
    # A flag the run's mode does not read is refused: each one-case flag
    # under a sweep, and --seed in a one-case report.
    *(
        ["simulate", "movement", "--verify", "2", flag, value]
        for flag, value in (("--tile", "32,128,64,128"), ("--problem", "4096x4096x2048"),
                            ("--precision", "config2"), ("--format", "csv"),
                            ("--boundary", "array"))
    ),
    ["simulate", "movement", *REFERENCE, "--seed", "3"],
    ["simulate", "schedule", "--verify", "2", "--tile", "32,128,64,128"],
    ["simulate", "schedule", "--verify", "2", "--dump", DUMP],
    ["simulate", "schedule", "--seed", "3"],
    # An explicit efficiency is not scored, so no source is read beside it.
    ["eval", *REFERENCE, "--eff-micro", "0.5", "--eff-source", "simulated"],
    # Nor beside a config document's eff_micro.
    with_config({"eff_micro": 0.5}, "eval", *REFERENCE, "--eff-source", "simulated"),
    # A multi-cluster kernel the builder rejects: the sequential run scaled
    # from one cluster raises the full build's error.
    with_config({"microkernel": {"r_load": 1, "n_clusters": 3}}, "simulate", "schedule"),
    # Every command checks a search section it is given, though only search
    # reads one: a bad one exits 3, and a valid one leaves eval's report as
    # it is without the section.
    with_config({"search": {"step": 0}}, "eval", *REFERENCE),
    with_config({"search": {"t_mc_max": 128, "rho_candidates": [1, 2]}}, "eval", *REFERENCE),
    with_config({"search": {"rho_candidates": []}}, "simulate", "movement", *REFERENCE),
)


def split_case(case) -> tuple[list[str], dict | None]:
    """The argv and the config document (None without one) of a case."""
    if isinstance(case, dict):
        return list(case["argv"]), case["config"]
    return list(case), None


def run_case(argv: list[str], config: dict | None = None) -> dict:
    """One in-process CLI run as a golden entry."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {DUMP: str(Path(tmp) / "schedule.csv"), CONFIG: str(Path(tmp) / "config.json")}
        if config is not None:
            Path(paths[CONFIG]).write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main([paths.get(arg, arg) for arg in argv], out=out)
        out, err = out.getvalue(), err.getvalue()
        dump_path = Path(paths[DUMP])
        dump = hashlib.sha256(dump_path.read_bytes()).hexdigest() if dump_path.exists() else None
    for placeholder, path in paths.items():
        out, err = out.replace(path, placeholder), err.replace(path, placeholder)
    entry = {"argv": list(argv)} if config is None else {"argv": list(argv), "config": config}
    entry.update(exit=code, stdout_sha256=hashlib.sha256(out.encode()).hexdigest(), stderr=err)
    if DUMP in argv:
        entry["dump_sha256"] = dump
    return entry


def main() -> int:
    entries = [run_case(*split_case(case)) for case in CASES]
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
