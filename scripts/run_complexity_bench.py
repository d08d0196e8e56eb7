#!/usr/bin/env python3
"""Instrumented cost comparison: tree protocol vs full-pairwise baseline.

The baseline runs on the same engine as a one-leaf tree whose ring
covers every user.  Prints per-user PRG expansions, per-user traffic,
and per-dropout recovery work across population sizes and tree shapes,
then the 1000-user tree-shape traffic comparison.
"""

import argparse
from pathlib import Path

from secaggsim.scenarios import exactness_config
from secaggsim.simulation import bench_csv, bench_once


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="32,64,128")
    parser.add_argument("--dropout", type=float, default=0.15)
    parser.add_argument("--big", type=int, default=1000, help="population for the tree-shape row")
    parser.add_argument("--out", default="out/bench.csv")
    args = parser.parse_args()

    rows = []
    for n in (int(s) for s in args.sizes.split(",")):
        for protocol in ("tree", "baseline"):
            cfg = exactness_config(0, n, 2, 2, protocol=protocol, dropout_rate=args.dropout)
            rows.append(bench_once(cfg))
    for height, degree in ((2, 2), (3, 2), (3, 3)):
        cfg = exactness_config(0, args.big, height, degree, dropout_rate=args.dropout)
        rows.append(bench_once(cfg))

    for row in rows:
        print(
            f"{row.protocol:8s} N={row.n_users:5d} {row.tree_shape:4s} "
            f"prg/user={row.per_user_prg:8.2f} bytes/user={row.per_user_bytes:12.1f} "
            f"cancel/drop={row.cancellations_per_dropout:8.2f} wall={row.wall_ms:9.1f}ms"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(bench_csv(rows))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
