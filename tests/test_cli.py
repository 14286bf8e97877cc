"""End-to-end tests for the command-line interface.

Each test drives ``main`` with an argv list and an in-memory output stream,
checking the report text, emitted CSV/markdown, and the exit-code contract:
0 success, 2 infeasible, 3 configuration error, 4 verification failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from conftest import load_script
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from asymtile import cli
from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    derive_l2_tiles,
)
from asymtile.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFY_FAILURE,
    main,
)
from asymtile.perf import perf_array
from asymtile.pipeline import MicrokernelSpec, microkernel_for_tile
from asymtile.schedule import build_microkernel_dag, kernel_run
from asymtile.search import RANK_CSV_COLUMNS, SearchSpace

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_eval_reference_tile_report():
    code, text = run_cli(
        "eval", "--tile", "32,128,64,128", "--problem", "4096x4096x2048"
    )
    assert code == EXIT_OK
    assert "ai_array: 409.6 op/B" in text
    assert "perf_array: 26.6 TFLOPS" in text
    assert "bound_kind: memory" in text
    assert "buffer: 60.0 KB of 63.0 KB" in text
    assert "feasible: yes" in text


def test_eval_csv_row_matches_search_columns():
    code, text = run_cli(
        "eval",
        "--tile",
        "32,128,64,128",
        "--problem",
        "4096x4096x2048",
        "--format",
        "csv",
    )
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0] == RANK_CSV_COLUMNS
    assert lines[1].startswith("32,128,64,128,4,61440,True,409.6000,")
    assert lines[1].endswith(",memory")


def test_eval_infeasible_exits_2():
    code, text = run_cli(
        "eval", "--tile", "128,128,64,128", "--problem", "4096x4096x2048"
    )
    assert code == EXIT_INFEASIBLE
    assert "feasible: no" in text
    assert "84.0 KB exceeds capacity 63.0 KB" in text


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"probem": "4x4x4"}))
    code, _ = run_cli("eval", "--config", str(cfg), "--tile", "8,8,64,8")
    assert code == EXIT_CONFIG_ERROR
    assert "probem" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key",
    [("microkernel", "clamp_ii"), ("microkernel", "u_vmac"), ("arch", "n_cores"),
     ("search", "eff_source"), ("microkernel", "accum_regs")],
)
def test_removed_config_keys_exit_3(tmp_path, capsys, section, key):
    # The core issues one VMAC per cycle, so the initiation interval always
    # floors at one cycle; the core count is n_rows * n_cols; and the core
    # has five accumulator registers: none of the four is a config key. The
    # efficiency source is a top-level key, read by eval as well as search,
    # so the search section has none.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: {"n_cores": 32, "accum_regs": 5}.get(key, True)}}))
    code, text = run_cli("eval", "--config", str(cfg), "--tile", "32,128,64,128")
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert capsys.readouterr().err == f"error: unknown key {key!r} in section {section!r}\n"


def test_zero_cluster_kernel_exits_3(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^n_clusters must be >= 1, got 0$"):
        MicrokernelSpec(n_clusters=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"microkernel": {"n_clusters": 0}}))
    code, text = run_cli("simulate", "schedule", "--config", str(cfg))
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert capsys.readouterr().err == "error: n_clusters must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "given, value",
    [("flag", "vibes"), ("config", "vibes"), ("config", ["calibration"]),
     ("config", {"calibration": 1}), ("config", 3), ("config", None)],
    ids=["flag", "config", "config-list", "config-object", "config-number", "config-null"],
)
def test_unknown_eff_source_exits_3(tmp_path, capsys, given, value):
    # A config value of any JSON type, hashable or not, gets the one
    # unknown-source message, with no traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eff_source": value} if given == "config" else {}))
    flag = ("--eff-source", value) if given == "flag" else ()
    code, text = run_cli("search", "--problem", "4096x4096x2048", "--config", str(cfg), *flag)
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert capsys.readouterr().err == (
        f"error: unknown eff_source {value!r}; expected one of "
        "('calibration', 'closed_form', 'simulated')\n"
    )


def test_unknown_subcommand_exits_3(capsys):
    code, _ = run_cli("nosuch")
    assert code == EXIT_CONFIG_ERROR
    assert "invalid choice" in capsys.readouterr().err


def test_missing_required_inputs_exit_3(capsys):
    code, _ = run_cli("eval", "--problem", "4096x4096x2048")
    assert code == EXIT_CONFIG_ERROR
    assert "tile" in capsys.readouterr().err


def test_search_reference_outcome():
    code, text = run_cli("search", "--problem", "4096x4096x2048")
    assert code == EXIT_OK
    assert "best_overall: 128x64x128 rho=4 at 26.6 TFLOPS" in text
    assert "best_symmetric: 128x64x64 at 19 TFLOPS" in text
    assert "atb_gain: 1.40" in text


@pytest.mark.parametrize("source, gain", [("closed_form", "1.02"), ("simulated", "1.14")])
def test_search_kernel_sources_keep_buildable_tiles(source, gain):
    code, text = run_cli("search", "--problem", "4096x4096x2048", "--eff-source", source)
    assert code == EXIT_OK
    assert text.startswith("evaluated 167 feasible configurations\n")
    assert "best_overall: 128x128x64 rho=4 at 19 TFLOPS" in text
    assert f"atb_gain: {gain}" in text


def test_search_kernel_filter_can_empty_the_space():
    code, text = run_cli(
        "search", "--problem", "4096x4096x2048", "--eff-source", "simulated",
        "--t-mc-max", "16", "--t-n-max", "8",
    )
    assert code == EXIT_INFEASIBLE
    assert "divisibility and kernel shape filters removed everything" in text


def test_search_symmetric_only_gain_is_one():
    code, text = run_cli("search", "--problem", "4096x4096x2048", "--rho", "1")
    assert code == EXIT_OK
    assert "atb_gain: 1.00" in text


def test_search_and_eval_bytes_match_the_golden_file():
    # scripts/record_cli_golden.py recorded each case's exit code, stdout
    # sha256 and stderr; every case, with its config document if it has one,
    # must replay to the same bytes.
    recorder = load_script("record_cli_golden.py")
    golden = json.loads(recorder.GOLDEN.read_text())
    cases = [recorder.split_case(case) for case in recorder.CASES]
    assert [(entry["argv"], entry.get("config")) for entry in golden] == cases
    for entry in golden:
        assert recorder.run_case(entry["argv"], entry.get("config")) == entry


def test_search_empty_space_exits_2():
    code, text = run_cli("search", "--problem", "100x100x100")
    assert code == EXIT_INFEASIBLE
    assert text == (
        "no feasible tile configuration in the search space "
        "(buffer capacity and divisibility filters removed everything)\n"
    )


def test_search_table_emit():
    code, text = run_cli(
        "search", "--problem", "4096x4096x2048", "--emit", "table2", "--limit", "3"
    )
    assert code == EXIT_OK
    lines = text.strip().splitlines()
    assert lines[0].startswith("| Problem (MxKxN) |")
    assert len(lines) == 2 + 3  # header, separator, three rows
    assert "| 128x64x128 | 4 | 60.0 | 84.0 |" in lines[2]


def test_search_csv_emit_header():
    code, text = run_cli(
        "search", "--problem", "4096x4096x2048", "--emit", "csv"
    )
    assert code == EXIT_OK
    assert text.splitlines()[0] == RANK_CSV_COLUMNS


def test_simulate_movement_reference_counts():
    unit = json.dumps(
        {"byte_cost_a": 1, "byte_cost_b": 1, "byte_cost_c": 1, "accum_label": "fp32"}
    )
    code, text = run_cli(
        "simulate",
        "movement",
        "--tile",
        "8,16,8,8",
        "--problem",
        "16x16x16",
        "--precision",
        unit,
    )
    assert code == EXIT_OK
    assert "total_bytes: 1024" in text
    assert "flops: 8192" in text
    assert "measured_ai: 8.0000 op/B" in text


def test_simulate_movement_verify_passes():
    code, text = run_cli("simulate", "movement", "--verify", "10", "--seed", "3")
    assert code == EXIT_OK
    assert text.startswith("PASS: 10 random configs")


def test_simulate_movement_verify_uses_config_arch(tmp_path, monkeypatch):
    seen = []

    def spy(n, seed=0, arch=DEFAULT_ARCH):
        seen.append(arch)
        return []

    monkeypatch.setattr("asymtile.movement.verify_movement_equivalence", spy)
    cfg = tmp_path / "arch.json"
    cfg.write_text(json.dumps({"arch": {"l1_capacity": 32768, "buffer_multiplier_a": 1}}))
    code, _ = run_cli("simulate", "movement", "--config", str(cfg), "--verify", "3")
    assert code == EXIT_OK
    assert seen == [ArchSpec(l1_capacity=32768, buffer_multiplier_a=1)]


def test_simulate_schedule_verify_passes():
    code, text = run_cli("simulate", "schedule", "--verify", "10", "--seed", "5")
    assert code == EXIT_OK
    assert text.startswith("PASS: 10 random microkernel specs")


@pytest.mark.parametrize(
    "target, line",
    [("movement", "PASS: 0 random configs, 0 discrepancies\n"),
     ("schedule", "PASS: 0 random microkernel specs, all schedule cycle counts within the "
                  "analytic bounds\n")],
    ids=["movement", "schedule"],
)
def test_simulate_verify_zero_runs_the_empty_sweep(target, line):
    # --verify 0 is a sweep of no cases, not the one-case report.
    assert run_cli("simulate", target, "--verify", "0") == (EXIT_OK, line)


@pytest.mark.parametrize(
    "target, sweep, record, line",
    [("movement", "verify_movement_equivalence",
      {"index": 1, "boundary": "core", "problem": ProblemSpec(4096, 4096, 2048),
       "tile": TileConfig(32, 128, 64, 128), "prec": PrecisionSpec(1, 1, 2, "test"),
       "measured": Fraction(2047, 5), "closed_form": Fraction(2048, 5)},
      "FAIL: 1 discrepancies in 3 configs; first: boundary=core "
      "tile=TileConfig(t_ma=32, t_mc=128, t_k=64, t_n=128) measured=2047/5 closed_form=2048/5\n"),
     ("schedule", "verify_random_specs",
      {"index": 2, "spec": MicrokernelSpec(), "options": {"share_inputs": True, "double_buffer": False},
       "violations": [("l_total_overlapped", 253, 252)]},
      "FAIL: 1 specs beat a bound out of 3; first violations: [('l_total_overlapped', 253, 252)]\n")],
    ids=["movement", "schedule"],
)
def test_simulate_verify_failure_exits_4(monkeypatch, target, sweep, record, line):
    calls = []

    def failing_sweep(n, seed=0, **kwargs):
        calls.append((n, seed))
        return [record]

    monkeypatch.setattr(f"asymtile.{target}.{sweep}", failing_sweep)
    assert run_cli("simulate", target, "--verify", "3", "--seed", "7") == (EXIT_VERIFY_FAILURE, line)
    assert calls == [(3, 7)]


REFUSED_FLAGS = [
    ("movement", "--verify", "--tile", "32,128,64,128"),
    ("movement", "--verify", "--problem", "4096x4096x2048"),
    ("movement", "--verify", "--precision", "config2"),
    ("movement", "--verify", "--format", "text"),
    ("movement", "--verify", "--boundary", "core"),
    ("movement", None, "--seed", "3"),
    ("schedule", "--verify", "--tile", "32,128,64,128"),
    ("schedule", "--verify", "--dump", "DUMP"),
    ("schedule", None, "--seed", "3"),
]


@pytest.mark.parametrize(
    "target, verify, flag, value", REFUSED_FLAGS,
    ids=[f"{t}-{'verify' if v else 'one_case'}-{f[2:]}" for t, v, f, _ in REFUSED_FLAGS],
)
def test_simulate_refuses_a_flag_its_mode_does_not_read(
    target, verify, flag, value, tmp_path, capsys
):
    # A one-case flag under a --verify sweep, or --seed without one, was
    # dropped without a word; it is refused, naming both flags. Each given
    # value is the one the mode would have used, so nothing else fails.
    dump = tmp_path / "schedule.csv"
    value = str(dump) if value == "DUMP" else value
    argv = ["simulate", target, flag, value]
    if target == "movement" and verify is None:
        argv += ["--problem", "4096x4096x2048", "--tile", "32,128,64,128"]
    if verify:
        argv += [verify, "2"]
    assert run_cli(*argv) == (EXIT_CONFIG_ERROR, "")
    if verify:
        line = f"error: {flag} is not read by a --verify sweep\n"
    else:
        line = f"error: {flag} is read only with --verify\n"
    assert capsys.readouterr().err == line
    assert not dump.exists()


def test_eval_refuses_eff_source_beside_eff_micro(capsys):
    # An explicit --eff-micro is the efficiency, so --eff-source was dropped
    # without a word (exit 0); it is refused, naming both flags.
    argv = ["eval", "--problem", "4096x4096x2048", "--tile", "32,128,64,128",
            "--eff-micro", "0.5", "--eff-source", "simulated"]
    assert run_cli(*argv) == (EXIT_CONFIG_ERROR, "")
    assert capsys.readouterr().err == "error: --eff-source is not read with --eff-micro\n"


def test_eval_refuses_eff_source_beside_a_documents_eff_micro(tmp_path, capsys):
    # The document's eff_micro is the efficiency, so a given --eff-source was
    # dropped without a word (exit 0). It is refused once the whole document
    # has parsed, so a bad key in it is reported first.
    argv = ["eval", "--problem", "4096x4096x2048", "--tile", "32,128,64,128",
            "--eff-source", "simulated", "--config", str(tmp_path / "c.json")]
    for doc, line in (
        ({"eff_micro": 0.5}, "error: --eff-source is not read with the config document's eff_micro\n"),
        ({"eff_micro": 0.5, "arch": 3}, "error: 'arch' section must be an object\n"),
    ):
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert run_cli(*argv) == (EXIT_CONFIG_ERROR, "")
        assert capsys.readouterr().err == line


@pytest.fixture
def reference_kernel_config(tmp_path):
    cfg = tmp_path / "kernel.json"
    cfg.write_text(
        json.dumps(
            {
                "microkernel": {
                    "chains": 1,
                    "n_accum": 1,
                    "n_clusters": 1,
                    "r_load": 2,
                    "load_classes": [[3, 2], [3, 1], [3, 1]],
                }
            }
        )
    )
    return cfg


def test_simulate_schedule_reference_kernel(reference_kernel_config):
    code, text = run_cli(
        "simulate", "schedule", "--config", str(reference_kernel_config)
    )
    assert code == EXIT_OK
    assert "first_vmac_cycle: 4" in text
    assert "instructions: 7" in text
    assert "total_cycles: 13" in text


def test_simulate_schedule_dump(reference_kernel_config, tmp_path):
    dump = tmp_path / "sched.csv"
    code, text = run_cli(
        "simulate",
        "schedule",
        "--config",
        str(reference_kernel_config),
        "--dump",
        str(dump),
    )
    assert code == EXIT_OK
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "cycle,slot,id,kind"
    assert len(lines) == 1 + 7
    assert f"schedule written to {dump}" in text


@st.composite
def buildable_config1_tile(draw) -> TileConfig:
    """A tile the default kernel shapes to: ``t_ma·t_n`` a multiple of 256
    (64 outputs per chain, four chains), one to 64 clusters."""
    t_ma = 8 * draw(st.integers(1, 8))
    t_n = draw(st.integers(1, 32).map(lambda q: 8 * q).filter(lambda t_n: t_ma * t_n % 256 == 0))
    return TileConfig(t_ma, t_ma * draw(st.sampled_from([1, 2, 4])), 8 * draw(st.integers(1, 16)), t_n)


@settings(max_examples=40, deadline=None)
@given(tile=buildable_config1_tile())
def test_simulate_schedule_prints_the_simulated_sources_kernel_run(tile):
    # The report, the scorer and the simulated source read one run: its
    # efficiency is the source's, its cycles kernel_run's, and its
    # instruction count that of the kernel built in full.
    code, text = run_cli("simulate", "schedule", "--tile", ",".join(map(str, tile)))
    assert code == EXIT_OK
    lines = dict(line.split(": ", 1) for line in text.splitlines())
    spec = microkernel_for_tile(tile)
    est = perf_array(
        tile, ProblemSpec(*derive_l2_tiles(tile)), PRECISION_PRESETS["config1"],
        eff_source="simulated",
    )
    assert lines["eff_micro_sim"] == f"{float(est.eff_micro):.4f}"
    assert lines["total_cycles"] == str(kernel_run(spec).total_cycles)
    assert lines["instructions"] == str(len(build_microkernel_dag(spec)))


@pytest.mark.parametrize("tile, n_clusters", [((32, 128, 64, 128), 16), ((8, 8, 64, 32), 1)])
def test_simulate_schedule_dump_describes_the_run_it_prints(tile, n_clusters, tmp_path):
    # The summary is kernel_run's record, scaled from one cluster when the
    # kernel's clusters are sequential; the dump is a full schedule beside
    # it, and must describe the same run.
    spec = microkernel_for_tile(TileConfig(*tile))
    assert spec.n_clusters == n_clusters
    dump = tmp_path / "sched.csv"
    code, text = run_cli("simulate", "schedule", "--tile", ",".join(map(str, tile)),
                         "--dump", str(dump))
    assert code == EXIT_OK
    *summary, written = text.splitlines()
    assert written == f"schedule written to {dump}"
    lines = dict(line.split(": ", 1) for line in summary)
    header, *rows = dump.read_text().splitlines()
    assert header == "cycle,slot,id,kind"
    rows = [(int(cycle), kind) for cycle, _, _, kind in (row.split(",") for row in rows)]
    assert len(rows) == int(lines["instructions"])
    assert min(cycle for cycle, kind in rows if kind == "vmac") == int(lines["first_vmac_cycle"])
    ends = [cycle + (spec.l_store if kind == "vstore" else 1) for cycle, kind in rows]
    assert max(ends) == int(lines["total_cycles"])


@pytest.mark.parametrize("target", ["missing-dir", "/dev/full"])
def test_simulate_schedule_unwritable_dump_exits_3(tmp_path, capsys, target):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this platform")
    dump = tmp_path / "missing" / "x.csv" if target == "missing-dir" else target
    code, text = run_cli("simulate", "schedule", "--dump", str(dump))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert text.startswith("instructions: ")
    assert re.fullmatch(rf"error: cannot write schedule to {re.escape(str(dump))}: .+\n", err)


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--problem", "4096x4096x2048", "--limit", "300"),
        ("search", "--problem", "4096x4096x2048", "--emit", "csv"),
    ],
)
def test_closed_stdout_exits_3_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "asymtile.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert proc.stderr == "error: stdout was closed before the report was written\n"


def test_reports_are_byte_identical_across_runs():
    argv = ("search", "--problem", "4096x4096x2048", "--emit", "csv")
    _, first = run_cli(*argv)
    _, second = run_cli(*argv)
    assert first == second


def test_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "4096x4096x2048", "tile": [16, 128, 64, 128]}))
    code, text = run_cli(
        "eval", "--config", str(cfg), "--tile", "32,128,64,128"
    )
    assert code == EXIT_OK
    assert "t_ma=32" in text


def test_config_file_supplies_problem_and_tile(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "4096x4096x2048", "tile": [32, 128, 64, 128]}))
    code, text = run_cli("eval", "--config", str(cfg))
    assert code == EXIT_OK
    assert "ai_array: 409.6 op/B" in text


def test_bad_json_config_exits_3(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _ = run_cli("eval", "--config", str(cfg), "--tile", "8,8,64,8")
    assert code == EXIT_CONFIG_ERROR
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("boundary", ["core", "array"])
def test_simulate_movement_rejects_tile_over_capacity(boundary):
    tile_argv = ("--tile", "128,128,64,128", "--problem", "4096x4096x2048")
    code, text = run_cli("simulate", "movement", *tile_argv, "--boundary", boundary)
    _, eval_text = run_cli("eval", *tile_argv)
    assert code == EXIT_INFEASIBLE
    assert text == "infeasible: buffer 84.0 KB exceeds capacity 63.0 KB\n"
    assert text == eval_text.splitlines(keepends=True)[-1]


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"search": {"step": "8"}}, ("search",)),
        ({"search": {"t_mc_max": None}}, ("search",)),
        ({"search": {"rho_candidates": ["x"]}}, ("search",)),
        ({"search": {"rho_candidates": [1.5]}}, ("search",)),
        ({"search": {"rho_candidates": [True]}}, ("search",)),
        ({"eff_micro": "1/0"}, ("eval", "--tile", "32,128,64,128")),
        ({}, ("eval", "--tile", "32,128,64,128", "--eff-micro", "abc")),
        (
            {"precision": {"byte_cost_a": float("inf"), "byte_cost_b": 1, "byte_cost_c": 1}},
            ("eval", "--tile", "32,128,64,128"),
        ),
        (
            {"precision": {"byte_cost_a": float("nan"), "byte_cost_b": 1, "byte_cost_c": 1}},
            ("eval", "--tile", "32,128,64,128"),
        ),
        (
            {"tile": {"t_ma": 32, "t_mc": 128, "t_k": 64, "t_n": 128, "microtile": 1}},
            ("eval",),
        ),
        ({"search": {"divisibility_problem": "8x8x8"}}, ("search",)),
        ({"arch": {"peak_macs_per_cycle": 10**400}}, ("eval", "--tile", "32,128,64,128")),
        ({}, ("search", "--limit", "-1")),
        ({}, ("simulate", "movement", "--verify", "-3")),
        ({}, ("simulate", "schedule", "--verify", "-2")),
        # Flags a simulate subcommand does not read are not registered on it
        # (the --problem this test adds is one of them for schedule).
        ({}, ("simulate", "movement", "--tile", "32,128,64,128", "--eff-source", "simulated")),
        ({}, ("simulate", "schedule", "--eff-source", "simulated")),
        ({}, ("simulate", "schedule", "--precision", "config1")),
        ({}, ("simulate", "schedule")),
    ],
)
def test_bad_search_and_efficiency_input_exits_3(tmp_path, capsys, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli(*argv, "--config", str(cfg), "--problem", "4096x4096x2048")
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, argv",
    [
        ({"microkernel": {"chains": 2.5}}, ("simulate", "schedule")),
        ({"microkernel": {"n_clusters": 1.5}}, ("simulate", "schedule")),
        ({"microkernel": {"l_store": 1.5}}, ("simulate", "schedule")),
        ({"microkernel": {"pipeline_depth": True}}, ("simulate", "schedule")),
        ({"microkernel": {"load_classes": [[8.5, 4]]}}, ("simulate", "schedule")),
        (
            {"microkernel": {"load_classes": [{"latency": 8, "count": "4"}]}},
            ("simulate", "schedule"),
        ),
        (
            {"arch": {"buffer_multiplier_a": 1.5}},
            ("simulate", "movement", "--tile", "32,128,64,128"),
        ),
        ({"arch": {"n_rows": 4.0, "n_cols": 8}}, ("search",)),
        ({"arch": {"switch_overhead_delta": 50.5}}, ("eval", "--tile", "32,128,64,128")),
        ({"microkernel": {"load_classes": [[8, 4], [4, 2, "no"]]}}, ("simulate", "schedule")),
        (
            {"microkernel": {"load_classes": [{"latency": 8, "count": 4, "unaligned": 0}]}},
            ("simulate", "schedule"),
        ),
        ({"tile": {"t_ma": 32.0, "t_mc": 128, "t_k": 64, "t_n": 128}}, ("eval",)),
        ({"tile": [32.7, 128, 64, 128]}, ("eval",)),
        ({"problem": {"m": 4096.0, "k": 4096, "n": 2048}}, ("eval", "--tile", "32,128,64,128")),
        ({"arch": {"clock_hz": float("nan")}}, ("eval", "--tile", "32,128,64,128")),
        ({"arch": {"clock_hz": True}}, ("eval", "--tile", "32,128,64,128")),
    ],
)
def test_non_integer_kernel_and_arch_counts_exit_3(tmp_path, capsys, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli(*argv, "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    # Count fields must be ints, flag fields bools and rates finite positive
    # numbers; either way one line names the field and the value it got.
    assert re.fullmatch(
        r"error: \w+ must be (an integer|true or false|a finite positive number), got .+\n",
        err,
    )


REFERENCE_FLAGS = ("--problem", "4096x4096x2048", "--tile", "32,128,64,128")


@pytest.mark.parametrize(
    "config, flags",
    [
        ({"problem": "garbage"}, ("--problem", "4096x4096x2048")),
        ({"tile": "nope"}, ("--tile", "32,128,64,128")),
        ({"precision": "fp64"}, ("--precision", "config1")),
        ({"eff_source": 3}, ("--eff-source", "closed_form")),
        ({"eff_micro": 1.5}, ("--eff-micro", "0.5")),
        (
            {"problem": "garbage", "tile": "nope", "eff_source": 3, "precision": "fp64"},
            ("--eff-source", "closed_form", "--precision", "config1"),
        ),
    ],
    ids=["problem", "tile", "precision", "eff_source", "eff_micro", "four-keys"],
)
def test_flag_does_not_hide_a_bad_config_value(tmp_path, capsys, config, flags):
    # The whole document is parsed before a flag replaces one of its values,
    # so a valid flag leaves the document's error, and only that line.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli("eval", "--config", str(cfg)) == (EXIT_CONFIG_ERROR, "")
    alone = capsys.readouterr().err
    code, text = run_cli("eval", "--config", str(cfg), *REFERENCE_FLAGS, *flags)
    assert (code, text) == (EXIT_CONFIG_ERROR, "")
    assert capsys.readouterr().err == alone
    assert alone.startswith("error: ") and alone.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("eval", *REFERENCE_FLAGS), ("search", "--problem", "4096x4096x2048"),
     ("simulate", "movement", *REFERENCE_FLAGS), ("simulate", "schedule")],
    ids=["eval", "search", "simulate-movement", "simulate-schedule"],
)
def test_eff_micro_range_holds_in_every_subcommand(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eff_micro": 1.5}))
    assert run_cli(*argv, "--config", str(cfg)) == (EXIT_CONFIG_ERROR, "")
    assert capsys.readouterr().err == "error: eff_micro must lie in (0, 1], got 3/2\n"


@pytest.mark.parametrize(
    "config",
    [
        {"arch": {"bogus": 1}},
        {"problem": {"m": 8, "k": 8, "n": 8, "bogus": 1}},
        {"tile": {"bogus": 1}},
        {"precision": {"bogus": 1}},
        {"search": {"bogus": 1}},
        {"microkernel": {"bogus": 1}},
        {"microkernel": {"load_classes": [{"latency": 8, "count": 4, "bogus": 1}]}},
    ],
)
def test_unknown_section_key_has_one_message(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli("eval", "--config", str(cfg))
    section = next(iter(config))
    if section == "microkernel" and "load_classes" in config[section]:
        section = "load_classes"
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert capsys.readouterr().err == f"error: unknown key 'bogus' in section '{section}'\n"


def test_microkernel_section_reaches_every_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"microkernel": {"chains": 1}}))
    tile_argv = ("--tile", "32,128,64,128", "--problem", "4096x4096x2048")
    code, text = run_cli("eval", *tile_argv, "--eff-source", "closed_form", "--config", str(cfg))
    assert code == EXIT_OK
    assert "eff_micro: 0.205" in text  # 8 / 39; the default kernel gives 8 / 25
    # One chain per cluster makes every tile of the default space a kernel,
    # so the closed-form search keeps all 215 tiles, not the default
    # kernel's 167.
    code, text = run_cli(
        "search", "--problem", "4096x4096x2048", "--eff-source", "closed_form",
        "--config", str(cfg),
    )
    assert code == EXIT_OK
    assert text.startswith("evaluated 215 feasible configurations\n")
    assert "best_overall: 128x128x64 rho=4 at 14.6 TFLOPS" in text
    # With a tile too, the schedule is the config's kernel shaped by the tile:
    # n_accum 8 and 64 one-chain clusters, not the config's one cluster.
    code, text = run_cli("simulate", "schedule", "--tile", "32,128,64,128", "--config", str(cfg))
    assert code == EXIT_OK
    assert "bound_sequential: 2496\n" in text


def test_repeated_main_calls_match_single_runs(tmp_path):
    # main builds its parser once per process. Each call in a sequence must
    # report what the same argv reports in a process of its own: no default,
    # option value or error state may carry over from the call before.
    dump = tmp_path / "sched.csv"
    problem = ("--problem", "4096x4096x2048")
    tile = ("--tile", "32,128,64,128")
    sequence = [
        ("search", *problem, "--limit", "3", "--emit", "text"),
        ("search", *problem),
        ("eval", *tile, *problem, "--format", "csv"),
        ("eval", *tile, *problem),
        ("search", *problem, "--limit", "-1"),
        ("search", *problem, "--emit", "table2"),
        ("simulate", "schedule", "--dump", str(dump)),
        ("simulate", "schedule"),
    ]
    in_process = []
    for argv in sequence:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run_cli(*argv)
        in_process.append((code, text, err.getvalue()))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 3, 0, 0, 0]
    for argv, got in zip(sequence, in_process):
        alone = subprocess.run(
            [sys.executable, "-m", "asymtile.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv


def test_cli_import_does_not_load_numpy():
    # The CLI loads only the modules it runs (not the numeric GEMM), and the
    # package root, which re-exports nothing, loads no submodule at all. An
    # eval of one tile loads neither the search (whose SearchSpace is the
    # one dataclass the CLI can reach), nor dataclasses and the inspect
    # module it pulls in, nor the movement walker or the scheduler; a
    # search loads its module when it runs.
    loaded = (
        "import io, sys; from asymtile.cli import main; "
        "main([{}], out=io.StringIO()); "
        "print([m for m in ('dataclasses', 'inspect', 'asymtile.search', 'asymtile.movement',"
        " 'asymtile.schedule') if m in sys.modules])"
    )
    probes = {
        "import sys, asymtile.cli; print('numpy' in sys.modules, 'asymtile.gemm' in sys.modules)": "False False",
        "import sys, asymtile; print(sorted(m for m in sys.modules if m.startswith('asymtile.')))": "[]",
        loaded.format('"eval", "--problem", "4096x4096x2048", "--tile", "32,128,64,128"'): "[]",
        loaded.format('"search", "--problem", "4096x4096x2048"'): "['dataclasses', 'inspect', 'asymtile.search']",
    }
    for probe, want in probes.items():
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == want


# -- the exit-code contract under fuzzed input ---------------------------------

# Valid sections that one fuzzed field replaces a field of.
BASE_SECTIONS = {
    "arch": {},
    "problem": {"m": 512, "k": 64, "n": 1024},
    "tile": {"t_ma": 32, "t_mc": 128, "t_k": 64, "t_n": 128},
    "precision": {"byte_cost_a": 2, "byte_cost_b": "5/4", "byte_cost_c": 2, "accum_label": "bf16"},
    "search": {},
    "microkernel": {},
}
SECTION_TYPES = {
    "arch": ArchSpec,
    "problem": ProblemSpec,
    "tile": TileConfig,
    "precision": PrecisionSpec,
    "search": SearchSpace,
    "microkernel": MicrokernelSpec,
}
# Every field of every section, then every top-level key as a whole value.
FUZZED_KEYS = [
    (section, name)
    for section, cls in SECTION_TYPES.items()
    for name in (cls._fields if cls is not SearchSpace else [f.name for f in fields(cls)])
] + [(section, None) for section in sorted({*cli.RunConfig._fields, "bogus"})]
# Values that size a loop (search ranges, the L1 capacity, the core grid and
# the kernel shape) are drawn small, so that one run takes milliseconds. The
# sections and fields below size no loop and draw ints of any size.
SMALL_INTS = st.integers(-8, 600)
WIDE_INTS = SMALL_INTS | st.integers(-(2**70), 2**70) | st.just(10**400)
WIDE_INT_KEYS = {
    "problem", "tile", "precision", "eff_micro",
    "peak_macs_per_cycle", "clock_hz", "offchip_bw", "switch_overhead_delta",
    "buffer_multiplier_a", "buffer_multiplier_b", "buffer_multiplier_c",
}
SPECIALS = st.sampled_from(
    [float("inf"), float("nan"), 32.0, 1e308, 5e-324, "4096x4096x2048", "32,128,64,128",
     "config1", "closed_form", "1/3", "{"]
)
BAD_COUNTS = st.sampled_from(["x", "1.5", ""])
LIMITS = st.integers(-5, 300).map(str) | BAD_COUNTS
VERIFY_COUNTS = st.integers(-5, 2).map(str) | BAD_COUNTS
SEEDS = st.integers(0, 3).map(str)
FORMATS = st.sampled_from(["text", "csv"])


def json_values(ints):
    """Mostly scalars; lists and objects of them, and deeper nesting, less often."""
    scalars = SPECIALS | st.none() | st.booleans() | ints | st.floats() | st.text(max_size=6)
    nested = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )
    return scalars | st.lists(scalars, max_size=4) | nested


VALUES = {False: json_values(SMALL_INTS), True: json_values(WIDE_INTS)}


def command(head, *optional):
    """``head``, then each ``(flag, values)`` of ``optional`` as the flag and
    a drawn value, or left out."""
    drawn = [st.just(()) | values.map(lambda value, flag=flag: (flag, value))
             for flag, values in optional]
    return st.tuples(*drawn).map(lambda parts: [*head, *(arg for part in parts for arg in part)])


def fuzzed_argv(section):
    """Commands that read ``section``. Flags win over the config, so each
    gives only what the config leaves out. Each mode may also get flags it
    reads, and one flag beside them that it refuses: ``--eff-source``
    beside ``--eff-micro``, a one-case flag under ``--verify`` or ``--seed``
    without it."""
    # A small problem keeps the search space and the movement walk short.
    problem = [] if section == "problem" else ["--problem", "512x64x1024"]
    tile = [] if section == "tile" else ["--tile", "32,128,64,128"]
    sources = ("--eff-source", st.sampled_from(["closed_form", "simulated"]))
    return st.one_of(
        command(["eval", *tile, *problem], ("--eff-micro", st.sampled_from(["1/2", "0.3"])),
                sources, ("--format", FORMATS)),
        command(["search", *problem], ("--emit", st.sampled_from(["text", "csv", "table2"])),
                ("--limit", LIMITS), sources),
        command(["simulate", "movement", "--tile", "32,128,64,128", "--problem", "512x64x1024"],
                ("--boundary", st.sampled_from(["core", "array"])), ("--format", FORMATS),
                ("--seed", SEEDS)),
        VERIFY_COUNTS.flatmap(lambda n: command(
            ["simulate", "movement", "--verify", n], ("--seed", SEEDS), ("--format", FORMATS))),
        # A config tile would size the scheduled kernel; the flag keeps it small.
        command(["simulate", "schedule", "--tile", "32,128,64,128"], ("--seed", SEEDS)),
        VERIFY_COUNTS.flatmap(lambda n: command(
            ["simulate", "schedule", "--verify", n], ("--seed", SEEDS),
            ("--tile", st.just("32,128,64,128")))),
    )


ARGVS = {section: fuzzed_argv(section) for section, _ in FUZZED_KEYS}


# Shrinking an example of 112 draws takes minutes; a failure prints all of them.
@settings(max_examples=15, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(data=st.data())
def test_fuzzed_input_keeps_exit_code_contract(data):
    """Each example gives every section field and top-level key one fuzzed
    value, in a config of its own, to a command that reads it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        for section, key in FUZZED_KEYS:
            value = data.draw(VALUES[section in WIDE_INT_KEYS or key in WIDE_INT_KEYS])
            if key is not None:
                value = {**BASE_SECTIONS[section], key: value}
            argv = data.draw(ARGVS[section])
            path.write_text(json.dumps({section: value}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, _ = run_cli(*argv, "--config", str(path))
            assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_CONFIG_ERROR, EXIT_VERIFY_FAILURE)
            assert "Traceback" not in err.getvalue()
            if code == EXIT_CONFIG_ERROR:
                assert re.fullmatch(r"error: [^\n]+\n", err.getvalue())


class ReadRecorder:
    """Stands in for a parsed namespace and records the attributes read."""

    def __init__(self, namespace):
        self.namespace = namespace
        self.read = set()

    def __getattr__(self, name):  # every name but namespace and read
        self.read.add(name)
        return getattr(self.namespace, name)


@settings(max_examples=60, deadline=None)
@given(argv=st.sampled_from(sorted({section for section, _ in FUZZED_KEYS})).flatmap(fuzzed_argv))
def test_every_given_flag_is_read_or_refused(argv):
    # A run that exits 3, a refusal among them, stops at its first error,
    # so the flags after it go unread. Every other run reads every flag it
    # was given. A flag of the config's fields counts as read once
    # _build_run_config reads it, even where the command then drops it.
    recorders = []
    run = cli._run

    def recording_run(args, out):
        recorders.append(ReadRecorder(args))
        return run(recorders[-1], out)

    err = io.StringIO()
    with mock.patch.object(cli, "_run", recording_run), contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv)
    if code == EXIT_CONFIG_ERROR:
        return
    [recorder] = recorders
    given = [arg for arg in argv if arg.startswith("--")]
    assert [flag for flag in given if flag[2:].replace("-", "_") not in recorder.read] == []


def test_search_csv_matches_every_recorded_digest():
    # benchmarks/csv_sha256.json holds the SHA-256 of `search --emit csv`
    # for every (problem, precision) pair of the benchmark's search menu,
    # recorded from the code the benchmark was defined on. The file is only
    # read here: the search's CSV bytes must not change.
    recorded = json.loads(
        (SRC.parent / "benchmarks" / "csv_sha256.json").read_text()
    )
    assert len(recorded) == 256
    mismatched = []
    for pair, digest in sorted(recorded.items()):
        problem, prec = pair.split("/")
        code, text = run_cli(
            "search", "--problem", problem, "--precision", prec, "--emit", "csv"
        )
        assert code == EXIT_OK, pair
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            mismatched.append(pair)
    assert mismatched == []
