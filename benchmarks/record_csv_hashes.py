#!/usr/bin/env python3
"""Record the SHA-256 of ``asymtile search --emit csv`` for every dse pair.

The dse workload draws (problem, precision) pairs from a fixed menu and
checks each search's CSV against the digest stored in ``csv_sha256.json``.
The digests were recorded once, from the code the benchmark was defined on,
because the search output must stay byte-identical while the search gets
faster. Re-record only when a change is meant to alter the CSV bytes, and
say so in CHANGES.md.

Usage:
    python3 benchmarks/record_csv_hashes.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys

from run import BENCH_DIR, load_program

OUT_PATH = BENCH_DIR / "csv_sha256.json"


def main() -> int:
    load_program()
    from asymtile import cli
    from workloads import DSE_MENU, search_argv

    digests = {}
    for pair in DSE_MENU:
        out = io.StringIO()
        code = cli.main(search_argv(pair), out=out)
        if code != 0:
            print(f"{pair}: exit {code}", file=sys.stderr)
            return 1
        digests[f"{pair[0]}/{pair[1]}"] = hashlib.sha256(
            out.getvalue().encode()
        ).hexdigest()
        print(f"{pair[0]}/{pair[1]} {digests[f'{pair[0]}/{pair[1]}']}", flush=True)
    OUT_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
