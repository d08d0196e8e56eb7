#!/usr/bin/env python3
"""Sweep attacker counts and schedules on the standard detection scenario.

Writes one CSV row per run with final DR/CR/FPR and after-attack
accuracies.  Mirrors the converging-phase attack experiments.

Runs from a plain checkout: the package is imported from ``src/`` next to
this directory.
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from secaggsim.scenarios import converging_attack_config  # noqa: E402
from secaggsim.simulation import run_scenario  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--attackers", default="1,3,5,7,9,11,13")
    parser.add_argument("--out", default="out/detection_sweep.csv")
    args = parser.parse_args()

    rows = []
    for n_attackers in (int(x) for x in args.attackers.split(",")):
        for strategy in ("one_shot", "continuous"):
            for seed in range(args.seeds):
                cfg = converging_attack_config(
                    seed=seed, n_attackers=n_attackers, strategy=strategy
                )
                report = run_scenario(cfg)
                m = report.metrics
                rows.append(
                    [
                        n_attackers,
                        strategy,
                        seed,
                        m["DR"],
                        m["CR"],
                        m["FPR"],
                        report.final_main_acc,
                        report.final_backdoor_acc,
                    ]
                )
                print(
                    f"attackers={n_attackers:2d} {strategy:10s} seed={seed}: "
                    f"DR={m['DR']:.2f} CR={m['CR']:.2f} FPR={m['FPR']:.4f}"
                )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["attackers", "strategy", "seed", "DR", "CR", "FPR", "main_acc", "backdoor_acc"])
        writer.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
