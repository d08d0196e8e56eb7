"""Command-line entry point: ``secaggsim run`` and ``secaggsim bench``.

``run`` executes one scenario from a JSON config (flags override config
keys) and writes ``report.csv`` plus ``transcript.json`` into the output
directory.  ``bench`` sweeps a grid of population sizes, tree shapes, and
dropout rates through single instrumented rounds and, with ``--baseline``,
the full-pairwise protocol (a one-leaf tree whose ring covers every
user), and writes ``bench.csv``.  Exit codes: 1 for configuration errors, 2 for a
protocol abort.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversary import AttackPlan
from .errors import ConfigError, ProtocolAbort, UnrecoverableRoundError
from .simulation import ScenarioConfig, bench_csv, bench_grid, run_scenario


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    return ScenarioConfig.from_json(Path(path).read_text())


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.seed is not None:
        config.seed = args.seed
    if args.rounds is not None:
        config.rounds = args.rounds
    if args.protocol is not None:
        config.protocol = args.protocol
    if args.rho is not None:
        config.detection.expansion = args.rho
    if args.attackers is not None:
        if args.attackers == 0:
            config.attack = None
        else:
            plan = config.attack or AttackPlan(attacker_ids=(0,))
            plan.attacker_ids = tuple(range(args.attackers))
            config.attack = plan
    if args.scale is not None and config.attack is not None:
        config.attack.scale_override = args.scale
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    report = run_scenario(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report.to_csv())
    (out / "transcript.json").write_text(report.to_json())
    print(f"rounds={len(report.rows)} DR={report.metrics['DR']} CR={report.metrics['CR']} FPR={report.metrics['FPR']}")
    print(f"final main_acc={report.final_main_acc} backdoor_acc={report.final_backdoor_acc}")
    print(f"wrote {out / 'report.csv'} and {out / 'transcript.json'}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    shapes = [tuple(int(x) for x in s.split("x")) for s in args.trees.split(",")]
    configs = []
    for n in sizes:
        for height, degree in shapes:
            configs.append(
                ScenarioConfig(
                    n_users=n,
                    protocol="tree",
                    tree_height=height,
                    tree_degree=degree,
                    neighbor_radius=args.kappa,
                    share_threshold=2,
                    dropout_rate=args.dropout,
                    seed=args.seed or 0,
                    detection=_bench_detection(),
                    dh_group=args.group,
                )
            )
        if args.baseline:
            configs.append(
                ScenarioConfig(
                    n_users=n,
                    protocol="baseline",
                    share_threshold=2,
                    dropout_rate=args.dropout,
                    seed=args.seed or 0,
                    detection=_bench_detection(),
                    dh_group=args.group,
                )
            )
    rows = bench_grid(configs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "bench.csv").write_text(bench_csv(rows))
    for row in rows:
        print(json.dumps(row.__dict__, sort_keys=True))
    print(f"wrote {out / 'bench.csv'}")
    return 0


def _bench_detection():
    from .simulation import DetectionSettings

    return DetectionSettings(enabled=False, low_bits_override=16)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="secaggsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("--config", help="scenario JSON path")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--rounds", type=int)
    run_p.add_argument("--protocol", choices=["tree", "baseline"])
    run_p.add_argument("--attackers", type=int, help="first K users attack (0 disables)")
    run_p.add_argument("--scale", type=float, help="attacker scale override")
    run_p.add_argument("--rho", type=float, help="detection threshold expansion")
    run_p.add_argument("--out", default="out")
    run_p.set_defaults(func=cmd_run)

    bench_p = sub.add_parser("bench", help="sweep instrumented single rounds")
    bench_p.add_argument("--sizes", default="64,128,256")
    bench_p.add_argument("--trees", default="2x2,3x2,3x3")
    bench_p.add_argument("--kappa", type=int, default=4)
    bench_p.add_argument("--dropout", type=float, default=0.0)
    bench_p.add_argument("--baseline", action="store_true")
    bench_p.add_argument("--group", default="sim256")
    bench_p.add_argument("--seed", type=int)
    bench_p.add_argument("--out", default="out")
    bench_p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ProtocolAbort, UnrecoverableRoundError) as exc:
        print(f"protocol abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
