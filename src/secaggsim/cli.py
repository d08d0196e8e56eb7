"""Command-line entry point: ``secaggsim run``.

``run`` executes one scenario from a JSON config (flags override config
keys) and writes ``report.csv`` plus ``transcript.json`` into the output
directory.  Exit codes: 1 for configuration errors, 2 for a protocol
abort.  Single-round cost sweeps over population sizes, tree shapes and
the full-pairwise baseline are ``scripts/run_complexity_bench.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adversary import AttackPlan
from .errors import ConfigError, ProtocolAbort, UnrecoverableRoundError
from .simulation import ScenarioConfig, run_scenario


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
