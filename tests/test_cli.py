"""End-to-end tests for the command-line interface.

Each test drives ``main`` with an argv list and an in-memory output stream,
checking the report text, emitted CSV/markdown, and the exit-code contract:
0 success, 2 infeasible, 3 configuration error, 4 verification failure.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asymtile import cli
from asymtile.arch import DEFAULT_ARCH, ArchSpec
from asymtile.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    main,
)
from asymtile.search import RANK_CSV_COLUMNS


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


def test_search_symmetric_only_gain_is_one():
    code, text = run_cli("search", "--problem", "4096x4096x2048", "--rho", "1")
    assert code == EXIT_OK
    assert "atb_gain: 1.00" in text


def test_search_empty_space_exits_2():
    code, text = run_cli("search", "--problem", "100x100x100")
    assert code == EXIT_INFEASIBLE
    assert "no feasible tile configuration" in text


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

    monkeypatch.setattr(cli, "verify_movement_equivalence", spy)
    cfg = tmp_path / "arch.json"
    cfg.write_text(json.dumps({"arch": {"l1_capacity": 32768, "buffer_multiplier_a": 1}}))
    code, _ = run_cli("simulate", "movement", "--config", str(cfg), "--verify", "3")
    assert code == EXIT_OK
    assert seen == [ArchSpec(l1_capacity=32768, buffer_multiplier_a=1)]


def test_simulate_schedule_verify_passes():
    code, text = run_cli("simulate", "schedule", "--verify", "10", "--seed", "5")
    assert code == EXIT_OK
    assert text.startswith("PASS: 10 random microkernel specs")


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
        ({"arch": {"n_rows": 4.0, "n_cols": 8, "n_cores": 32}}, ("search",)),
        ({"arch": {"switch_overhead_delta": 50.5}}, ("eval", "--tile", "32,128,64,128")),
        ({"microkernel": {"load_classes": [[8, 4], [4, 2, "no"]]}}, ("simulate", "schedule")),
        ({"microkernel": {"clamp_ii": "no"}}, ("simulate", "schedule")),
    ],
)
def test_non_integer_kernel_and_arch_counts_exit_3(tmp_path, capsys, config, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run_cli(*argv, "--config", str(cfg), "--problem", "4096x4096x2048")
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    # Count fields must be ints and flag fields bools; either way one line
    # names the field and the value it got.
    assert re.fullmatch(r"error: \w+ must be (an integer|true or false), got .+\n", err)


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, asymtile.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
