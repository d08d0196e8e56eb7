#!/usr/bin/env python3
"""Benchmark entry point for secaggsim.

Run from the repository root:

    python3 perfbench/run.py --workload detect243 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the command fails with exit code 2 and
prints no result.  BLAS is pinned to one thread before numpy loads, so a
run uses one core.  See ``bench.py`` for what is measured and checked.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "secaggsim" / "__init__.py").is_file():
        print(f"error: no secaggsim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return bench.main(args, ROOT / "BENCHMARK.json")


if __name__ == "__main__":
    raise SystemExit(main())
