#!/usr/bin/env python3
"""Re-derive the headline result tables from the model.

Emits two artifacts on stdout:

1. The reference GEMM configuration table (markdown or CSV): one row per
   frozen evaluation point, its group and then the report columns of
   ``asymtile.search``. Intensity uses each row's arithmetic byte costs;
   the buffer columns use the row's physical storage costs, which for the
   BFP16 rows is the packed 9/8 B/element layout. The acceptance gates
   read their reference points from ``REFERENCE_ROWS``.

2. The efficiency sweep over (t_k, rho) at a fixed 128x128 output tile,
   showing how kernel-switch overhead erodes core efficiency for shallow
   contraction tiles.

Usage:
    python3 scripts/reproduce_tables.py [--csv]
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from asymtile.arch import DEFAULT_ARCH, PRECISION_PRESETS, ProblemSpec, TileConfig
from asymtile.intensity import ai_array
from asymtile.perf import calibrated_eff_micro, eff_core
from asymtile.search import REPORT_COLUMNS, markdown_table, report_cells


@dataclass(frozen=True)
class ReferenceRow:
    group: str
    ai_preset: str
    storage_preset: str
    problem: ProblemSpec
    tile: TileConfig


REFERENCE_ROWS = (
    ReferenceRow("config1", "config1", "config1",
                 ProblemSpec(8192, 4224, 4096), TileConfig(64, 64, 88, 64)),
    ReferenceRow("config1", "config1", "config1",
                 ProblemSpec(2048, 4096, 2048), TileConfig(64, 64, 64, 128)),
    ReferenceRow("config1", "config1", "config1",
                 ProblemSpec(2048, 4480, 2048), TileConfig(16, 64, 224, 64)),
    ReferenceRow("config1", "config1", "config1",
                 ProblemSpec(4096, 4096, 2048), TileConfig(32, 128, 64, 128)),
    ReferenceRow("config2", "config2", "config2_packed",
                 ProblemSpec(7680, 4096, 8192), TileConfig(96, 96, 128, 64)),
    ReferenceRow("config2", "config2", "config2_packed",
                 ProblemSpec(4096, 4096, 2048), TileConfig(128, 128, 64, 128)),
    ReferenceRow("config2", "config2", "config2_packed",
                 ProblemSpec(4096, 4096, 2048), TileConfig(32, 256, 64, 128)),
    ReferenceRow("config2", "config2", "config2_packed",
                 ProblemSpec(3072, 4096, 1536), TileConfig(32, 192, 128, 96)),
    ReferenceRow("config3", "config3", "config3",
                 ProblemSpec(3072, 4096, 2048), TileConfig(96, 96, 64, 128)),
    ReferenceRow("config3", "config3", "config3",
                 ProblemSpec(4096, 4096, 2048), TileConfig(32, 128, 64, 128)),
)

HEADER_CELLS = ("Group",) + REPORT_COLUMNS


def row_cells(row: ReferenceRow) -> tuple[str, ...]:
    arch = DEFAULT_ARCH
    tile, problem = row.tile, row.problem
    ai = float(ai_array(tile, problem.k, PRECISION_PRESETS[row.ai_preset]).ai)
    compute = float(eff_core(tile, calibrated_eff_micro(tile.t_k), arch)) * arch.peak_array_flops
    storage = PRECISION_PRESETS[row.storage_preset]
    return (row.group,) + report_cells(
        problem, tile, storage, arch, ai, ai * arch.offchip_bw, compute
    )


def emit_markdown(out) -> None:
    out.write(markdown_table(HEADER_CELLS, map(row_cells, REFERENCE_ROWS)))


def emit_csv(out) -> None:
    out.write(",".join(c.replace(" ", "_") for c in HEADER_CELLS) + "\n")
    for row in REFERENCE_ROWS:
        out.write(",".join(row_cells(row)) + "\n")


def emit_report(out, csv: bool) -> None:
    if csv:
        emit_csv(out)
    else:
        emit_markdown(out)

    out.write("\nEfficiency sweep (fixed 128x128 output tile):\n")
    out.write("t_k,rho,eff_micro,eff_core\n")
    drops = []
    for t_k in (8, 16, 32, 64):
        eff = calibrated_eff_micro(t_k)
        by_rho = [(rho, eff_core(TileConfig(128 // rho, 128, t_k, 128), eff)) for rho in (1, 2, 4, 8)]
        out.writelines(f"{t_k},{rho},{float(eff):.4f},{float(core):.4f}\n" for rho, core in by_rho)
        drop = float((by_rho[0][1] - by_rho[-1][1]) / by_rho[0][1])
        drops.append(f"t_k={t_k}: rho 1->8 relative efficiency drop {drop:.1%}\n")
    out.writelines(drops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of markdown")
    args = parser.parse_args(argv)
    try:
        emit_report(sys.stdout, args.csv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``reproduce_tables.py | head``). Point
        # stdout at devnull so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the tables were written", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
