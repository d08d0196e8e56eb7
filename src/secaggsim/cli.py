"""Command-line entry point: ``secaggsim run``.

``run`` executes the one scenario its JSON config document describes
(``--config``; without it, the ``ScenarioConfig`` defaults) and writes
``report.csv`` plus ``transcript.json`` into the ``--out`` directory.
Every setting of a run lives in that document: no flag overrides it.
Exit codes: 1 for configuration errors, 2 for a protocol abort.
Single-round cost sweeps over population sizes, tree shapes and
the full-pairwise baseline are ``scripts/run_complexity_bench.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, ProtocolAbort, UnrecoverableRoundError
from .simulation import ScenarioConfig, run_scenario


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    return ScenarioConfig.from_json(text)


def cmd_run(args: argparse.Namespace) -> int:
    report = run_scenario(_load_config(args.config))
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
