"""Command-line entry point: evaluate, search, and simulate from one place.

Subcommands
-----------
``eval``      two-sided performance estimate for one tile configuration.
``search``    design-space exploration with ranked output and the
              symmetric-vs-asymmetric gain.
``simulate``  run the movement oracle or the microkernel scheduler, either on
              one configuration or as a randomized verification sweep against
              the closed forms.

Configuration comes from an optional JSON file (``--config``) plus flags.
The whole document is parsed and checked first; then each given flag
replaces its value, and a value neither sets takes its default. A flag
given on the command line is read by the run or refused: a ``simulate``
sweep (``--verify``) reads no one-case flag, a one-case report reads no
``--seed``, and ``eval`` reads no ``--eff-source`` beside an efficiency
given by ``--eff-micro`` or the document.
Reports are deterministic: identical inputs produce identical bytes. Exit
codes: 0 success, 2 infeasible/empty result, 3 configuration error or
unwritable output, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

from asymtile.arch import (
    DEFAULT_ARCH,
    PRECISION_PRESETS,
    ArchSpec,
    ConfigError,
    PrecisionSpec,
    ProblemSpec,
    TileConfig,
    arch_from_dict,
    buffer_footprint,
    check_feasible,
    precision_from_value,
    problem_from_value,
    tile_from_value,
)
from asymtile.movement import (
    BOUNDARIES,
    measured_ai,
    simulate_movement,
    trace_to_csv,
    verify_movement_equivalence,
)
from asymtile.perf import EFF_SOURCE_CALIBRATION, _coerce_eff, eff_scorer, perf_array
from asymtile.pipeline import (
    DEFAULT_MICROKERNEL,
    MicrokernelSpec,
    microkernel_for_tile,
    microkernel_from_dict,
    total_latency,
)
from asymtile.schedule import (
    build_microkernel_dag,
    dump_schedule_csv,
    schedule,
    slots_for,
    verify_random_specs,
)
from asymtile.search import (
    RANK_CSV_COLUMNS,
    EmptySearchSpace,
    SearchSpace,
    _kb1,
    _sig3,
    estimate_csv_row,
    explore,
    ranked_to_csv,
    ranked_to_markdown,
    search_space_from_dict,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG_ERROR = 3
EXIT_VERIFY_FAILURE = 4


def _count(text: str) -> int:
    """argparse type for a nonnegative count."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as ConfigError (exit 3)
    instead of exiting the process directly."""

    def error(self, message: str):
        raise ConfigError(message)


class RunConfig(NamedTuple):
    """Resolved inputs of one command; the fields are the config's top-level keys."""

    arch: ArchSpec
    precision: PrecisionSpec
    problem: ProblemSpec | None
    tile: TileConfig | None
    search: SearchSpace
    microkernel: MicrokernelSpec
    eff_source: str
    eff_micro: Fraction | None


def _load_json_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - set(RunConfig._fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _parse_eff_micro(value) -> Fraction:
    try:
        eff = Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad eff_micro {value!r}: not a finite number") from exc
    return _coerce_eff(eff)


def _parse_eff_source(value) -> str:
    eff_scorer(value)  # an unknown source fails here, before any work
    return value


def _parse_rho(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(r) for r in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --rho value {value!r}: {exc}") from exc


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    raw = _load_json_config(args.config) if args.config else {}

    def resolve(key: str, parse, default=None):
        """The flag if given, else the document's value, else ``default``.
        Both given values go through ``parse``, the document's first."""
        value = parse(raw[key]) if key in raw else default
        flag = getattr(args, key, None)
        return value if flag is None else parse(flag)

    space = resolve("search", search_space_from_dict, SearchSpace())
    overrides = {
        name: getattr(args, name, None)
        for name in ("t_mc_max", "t_k_min", "t_k_max", "t_n_max", "step")
    }
    rho = getattr(args, "rho", None)
    overrides["rho_candidates"] = None if rho is None else _parse_rho(rho)
    space = replace(space, **{k: v for k, v in overrides.items() if v is not None})

    return RunConfig(
        arch=resolve("arch", arch_from_dict, DEFAULT_ARCH),
        precision=resolve("precision", precision_from_value, PRECISION_PRESETS["config1"]),
        problem=resolve("problem", problem_from_value),
        tile=resolve("tile", tile_from_value),
        search=space,
        microkernel=resolve("microkernel", microkernel_from_dict, DEFAULT_MICROKERNEL),
        eff_source=resolve("eff_source", _parse_eff_source, EFF_SOURCE_CALIBRATION),
        eff_micro=resolve("eff_micro", _parse_eff_micro),
    )


# The flags each simulate mode does not read, by (target, --verify given).
# Given to that mode, such a flag is refused rather than dropped.
_UNREAD_FLAGS = {
    ("movement", True): ("tile", "problem", "precision", "format", "boundary"),
    ("movement", False): ("seed",),
    ("schedule", True): ("tile", "dump"),
    ("schedule", False): ("seed",),
}


def _refuse_unread_flags(args: argparse.Namespace) -> None:
    sweep = args.verify is not None
    for name in _UNREAD_FLAGS[args.which, sweep]:
        if getattr(args, name) is not None:
            if sweep:
                raise ConfigError(f"--{name} is not read by a --verify sweep")
            raise ConfigError(f"--{name} is read only with --verify")


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required for this command")
    return value


def cmd_eval(cfg: RunConfig, fmt: str, out) -> int:
    tile = _require(cfg.tile, "a tile (--tile or config)")
    problem = _require(cfg.problem, "a problem size (--problem or config)")
    est = perf_array(
        tile,
        problem,
        cfg.precision,
        cfg.arch,
        eff_micro=cfg.eff_micro,
        eff_source=cfg.eff_source,
        kernel=cfg.microkernel,
    )
    if fmt == "csv":
        out.write(RANK_CSV_COLUMNS + "\n")
        out.write(estimate_csv_row(tile, est) + "\n")
    else:
        out.write(
            f"tile: {tile.t_mc}x{tile.t_k}x{tile.t_n} (t_ma={tile.t_ma}, rho={tile.rho})\n"
            f"precision: {cfg.precision.accum_label} accumulate, byte costs "
            f"a={float(cfg.precision.byte_cost_a)} b={float(cfg.precision.byte_cost_b)} "
            f"c={float(cfg.precision.byte_cost_c)}\n"
            f"buffer: {_kb1(est.buffer_bytes)} KB of {_kb1(cfg.arch.l1_capacity)} KB\n"
            f"feasible: {'yes' if est.feasible else 'no'}\n"
        )
        if est.feasible:
            out.write(
                f"ai_array: {float(est.ai_array):.1f} op/B\n"
                f"eff_micro: {float(est.eff_micro):.3f}\n"
                f"eff_core: {float(est.eff_core):.3f}\n"
                f"memory_bound: {_sig3(est.memory_bound / 1e12)} TFLOPS\n"
                f"compute_bound: {_sig3(est.compute_bound / 1e12)} TFLOPS\n"
                f"perf_array: {_sig3(est.perf_array / 1e12)} TFLOPS\n"
                f"bound_kind: {est.bound_kind}\n"
            )
    if not est.feasible:
        return _report_infeasible(est.buffer_bytes, cfg.arch, out)
    return EXIT_OK


def _report_infeasible(buffer_bytes: int, arch: ArchSpec, out) -> int:
    out.write(
        f"infeasible: buffer {_kb1(buffer_bytes)} KB exceeds capacity "
        f"{_kb1(arch.l1_capacity)} KB\n"
    )
    return EXIT_INFEASIBLE


def cmd_search(cfg: RunConfig, emit: str, limit: int, out) -> int:
    problem = _require(cfg.problem, "a problem size (--problem or config)")
    try:
        result = explore(
            cfg.search, problem, cfg.precision, cfg.arch, cfg.microkernel, eff_source=cfg.eff_source
        )
    except EmptySearchSpace as exc:
        out.write(f"{exc}\n")
        return EXIT_INFEASIBLE
    if emit == "csv":
        out.write(ranked_to_csv(result))
    elif emit == "table2":
        out.write(ranked_to_markdown(result, problem, cfg.precision, cfg.arch, limit=limit))
    else:
        out.write(f"evaluated {len(result.entries)} feasible configurations\n")
        for tile, est in result.entries[:limit]:
            out.write(
                f"  {tile.t_mc}x{tile.t_k}x{tile.t_n} rho={tile.rho}: "
                f"{_sig3(est.perf_array / 1e12)} TFLOPS ({est.bound_kind}-bound, "
                f"buffer {_kb1(est.buffer_bytes)} KB)\n"
            )
        best_tile, best_est = result.best_overall
        out.write(
            f"best_overall: {best_tile.t_mc}x{best_tile.t_k}x{best_tile.t_n} "
            f"rho={best_tile.rho} at {_sig3(best_est.perf_array / 1e12)} TFLOPS\n"
        )
        if result.best_symmetric is not None:
            sym_tile, sym_est = result.best_symmetric
            out.write(
                f"best_symmetric: {sym_tile.t_mc}x{sym_tile.t_k}x{sym_tile.t_n} "
                f"at {_sig3(sym_est.perf_array / 1e12)} TFLOPS\n"
            )
            # No gain when the symmetric tile's rate rounds to zero.
            gain = "n/a" if result.atb_gain is None else f"{result.atb_gain:.2f}"
            out.write(f"atb_gain: {gain}\n")
        else:
            out.write("best_symmetric: none in space\natb_gain: n/a\n")
    return EXIT_OK


def cmd_simulate_movement(cfg: RunConfig, args, out) -> int:
    if args.verify is not None:
        failures = verify_movement_equivalence(args.verify, seed=args.seed or 0, arch=cfg.arch)
        if failures:
            first = failures[0]
            out.write(
                f"FAIL: {len(failures)} discrepancies in {args.verify} configs; "
                f"first: boundary={first['boundary']} tile={first['tile']} "
                f"measured={first['measured']} closed_form={first['closed_form']}\n"
            )
            return EXIT_VERIFY_FAILURE
        out.write(f"PASS: {args.verify} random configs, 0 discrepancies\n")
        return EXIT_OK
    tile = _require(cfg.tile, "a tile (--tile or config)")
    problem = _require(cfg.problem, "a problem size (--problem or config)")
    # The per-core tile must fit L1 at either boundary; the array boundary
    # walks the grid's L2 tile built from it.
    if not check_feasible(tile, cfg.precision, cfg.arch):
        return _report_infeasible(buffer_footprint(tile, cfg.precision, cfg.arch), cfg.arch, out)
    boundary = args.boundary or "core"
    trace = simulate_movement(problem, tile, cfg.precision, cfg.arch, boundary=boundary)
    if args.format == "csv":
        out.write(trace_to_csv(trace, boundary))
    else:
        out.write(
            f"boundary: {boundary}\n"
            f"bytes_a: {float(trace.bytes_a):.0f}\n"
            f"bytes_b: {float(trace.bytes_b):.0f}\n"
            f"bytes_c: {float(trace.bytes_c):.0f}\n"
            f"total_bytes: {float(trace.total_bytes):.0f}\n"
            f"flops: {trace.flops}\n"
            f"measured_ai: {float(measured_ai(trace)):.4f} op/B\n"
            f"peak_occupancy: {trace.peak_l1_occupancy} B\n"
            f"evictions_a: {trace.evictions_a}\n"
        )
    return EXIT_OK


def cmd_simulate_schedule(cfg: RunConfig, args, out) -> int:
    if args.verify is not None:
        failures = verify_random_specs(args.verify, seed=args.seed or 0)
        if failures:
            first = failures[0]
            out.write(
                f"FAIL: {len(failures)} specs beat a bound out of {args.verify}; "
                f"first violations: {first['violations']}\n"
            )
            return EXIT_VERIFY_FAILURE
        out.write(
            f"PASS: {args.verify} random microkernel specs, all schedule cycle "
            f"counts within the analytic bounds\n"
        )
        return EXIT_OK
    spec = cfg.microkernel
    if cfg.tile is not None:
        spec = microkernel_for_tile(cfg.tile, spec)
    dag = build_microkernel_dag(spec)
    result = schedule(dag, slots_for(spec))
    bounds = total_latency(spec)
    ii = result.ii_observed
    ii_line = f"ii_observed: {float(ii):.3f}\n" if ii is not None else "ii_observed: n/a\n"
    out.write(
        f"instructions: {len(dag)}\n"
        f"first_vmac_cycle: {result.phase_times[0]}\n"
        f"total_cycles: {result.total_cycles}\n"
        f"bound_sequential: {bounds.l_total_sequential}\n"
        f"bound_overlapped: {bounds.l_total_overlapped}\n"
        f"eff_micro_sim: {float(result.vmac_issue_rate):.4f}\n"
        + ii_line
    )
    if args.dump:
        try:
            with open(args.dump, "w", encoding="utf-8") as handle:
                handle.write(dump_schedule_csv(dag, result))
        except OSError as exc:
            raise ConfigError(f"cannot write schedule to {args.dump}: {exc}") from exc
        out.write(f"schedule written to {args.dump}\n")
    return EXIT_OK


@functools.cache
def _make_parser() -> _Parser:
    parser = _Parser(prog="asymtile", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    # Each subcommand registers only the inputs it reads.
    def add_common(p: _Parser, eff_source: bool) -> None:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--precision", help="preset name or inline spec")
        p.add_argument("--problem", help="problem size MxKxN")
        if eff_source:
            p.add_argument("--eff-source", dest="eff_source", help="eff_micro source")

    p_eval = sub.add_parser("eval", help="evaluate one tile configuration")
    add_common(p_eval, eff_source=True)
    p_eval.add_argument("--tile", help="tile as t_ma,t_mc,t_k,t_n")
    p_eval.add_argument("--eff-micro", dest="eff_micro", help="explicit efficiency")
    p_eval.add_argument("--format", choices=("text", "csv"), default="text")

    p_search = sub.add_parser("search", help="explore the tile design space")
    add_common(p_search, eff_source=True)
    p_search.add_argument("--rho", help="comma-separated rho candidates")
    p_search.add_argument("--t-mc-max", dest="t_mc_max", type=int)
    p_search.add_argument("--t-k-min", dest="t_k_min", type=int)
    p_search.add_argument("--t-k-max", dest="t_k_max", type=int)
    p_search.add_argument("--t-n-max", dest="t_n_max", type=int)
    p_search.add_argument("--step", type=int)
    p_search.add_argument("--emit", choices=("text", "csv", "table2"), default="text")
    p_search.add_argument("--limit", type=_count, default=10)

    p_sim = sub.add_parser("simulate", help="run an oracle simulation")
    sim_sub = p_sim.add_subparsers(dest="which", parser_class=_Parser)

    p_move = sim_sub.add_parser("movement", help="byte-count the tiled loop nest")
    add_common(p_move, eff_source=False)
    p_move.add_argument("--tile", help="tile as t_ma,t_mc,t_k,t_n")
    # No simulate flag has a parser default: a flag left unset reads None,
    # so _refuse_unread_flags sees which were given (the defaults are core,
    # text and seed 0).
    p_move.add_argument("--boundary", choices=BOUNDARIES)
    p_move.add_argument("--format", choices=("text", "csv"))
    p_move.add_argument("--verify", type=_count, metavar="N", help="random equivalence sweep")
    p_move.add_argument("--seed", type=int)

    p_sched = sim_sub.add_parser("schedule", help="schedule the microkernel DAG")
    p_sched.add_argument("--config", help="JSON config file")
    p_sched.add_argument("--tile", help="derive the kernel from this tile")
    p_sched.add_argument("--dump", metavar="FILE", help="write schedule CSV here")
    p_sched.add_argument("--verify", type=_count, metavar="N", help="random soundness sweep")
    p_sched.add_argument("--seed", type=int)

    return parser


def _run(args: argparse.Namespace, out) -> int:
    if args.command is None:
        raise ConfigError("a subcommand is required (eval, search, simulate)")
    if args.command == "simulate":
        if args.which is None:
            raise ConfigError("simulate needs a target: movement or schedule")
        _refuse_unread_flags(args)
    elif args.command == "eval" and args.eff_micro is not None and args.eff_source is not None:
        raise ConfigError("--eff-source is not read with --eff-micro")
    cfg = _build_run_config(args)
    if args.command == "eval":
        if args.eff_source is not None and cfg.eff_micro is not None:
            raise ConfigError("--eff-source is not read with the config document's eff_micro")
        return cmd_eval(cfg, args.format, out)
    if args.command == "search":
        return cmd_search(cfg, args.emit, args.limit, out)
    if args.which == "movement":
        return cmd_simulate_movement(cfg, args, out)
    return cmd_simulate_schedule(cfg, args, out)


def main(argv=None, out=None) -> int:
    """Run one command line and return its exit code. The parser is built once
    per process: parsing leaves it unchanged and returns a fresh namespace."""
    out = out if out is not None else sys.stdout
    try:
        code = _run(_make_parser().parse_args(argv), out)
        out.flush()
        return code
    # A count or rate too large for a float (say, a 400-digit integer in the
    # config) overflows where a report converts it; that is bad input too.
    except (ConfigError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except BrokenPipeError:
        # The reader closed stdout (``asymtile search | head``). Point stdout
        # at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
