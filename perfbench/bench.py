"""Measurement, correctness checks and the result line.

Closed loop, one process, one scenario at a time: each workload runs
``simulation.run_scenario`` on the same seeded config again and again
until ``--seconds`` have passed (at least once).

Untraced run (``--trace 0``).  The only wrapper is the round clock around
the module attribute ``simulation.execute_round``.  It times each round
and, after the timer stops, checks the round's aggregate against the
plaintext oracle.  Before each scenario, set-up time is also sampled by
probes that end the scenario as round 0 starts.

The host's CPU speed drifts and stalls in bursts of seconds, and the
noise only ever adds time.  So the gated times keep the fastest samples
of the program's own repeated work: ``round_s`` is the round time that a
tenth of the run's rounds beat, and ``run_s`` sums, step by step (set-up
and round 0, each later round with the work before it, the tail), the
fastest time of that step across the run's scenarios, which all run the
same seeded config.  The median round and scenario times are printed too.

Traced run (``--trace 1``).  One untraced scenario, then traced ones with
a span around the public functions of every layer (see ``spans.py``).
The traced counters and report digest must equal the untraced run's,
which shows that tracing does not change the program, and the per-tag
bytes must sum exactly to the counters' byte totals.

Any failed check or failed round prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from secaggsim import scenarios, simulation
from secaggsim.errors import ProtocolAbort, UnrecoverableRoundError

import spans

# The full-pairwise baseline is deliberately not a workload: its traffic
# bypasses StarTransport and reads 0 bytes/user, so fixing that would show
# as a byte regression.
WORKLOADS = {
    # Paper headline: detection, exclusion and adversary training; per-pair
    # and per-message costs dominate at m = 330.
    "detect243": lambda seed: scenarios.converging_attack_config(seed, 5, "continuous"),
    # PRG-bound: masking and dropout cancellation at m = 2 * 10^4.
    "wide_m": lambda seed: scenarios.exactness_config(seed, 243, 3, 3, vector_len=20_000, dropout_rate=0.15),
    # Population-bound: share distribution, O(N) broadcasts, tree setup.
    "wide_n": lambda seed: scenarios.exactness_config(seed, 2000, 4, 3, vector_len=24, dropout_rate=0.15),
}

# Set-up probes before each scenario: at least MIN, more while they take
# under half a second.
MIN_SETUP_PROBES, MAX_SETUP_PROBES, SETUP_PROBE_BUDGET_S = 1, 15, 0.5

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "run_s": "s",
    "up_bytes_per_user": "B/user/round",
    "down_bytes_per_user": "B/user/round",
    "prg_per_user": "count/user/round",
}


class SetupProbe(Exception):
    """Raised by the round clock to end a scenario as round 0 starts."""


# ---------------------------------------------------------------------------
# round clock and oracle
# ---------------------------------------------------------------------------


def oracle_mismatch(kw: dict, result) -> str | None:
    """Check the round total: the sum of the included users' inputs plus
    survivors * X_t for each excluded (flagged or void) leaf, mod 2^w."""
    model = kw["model"]
    inputs = kw["inputs"]
    total = np.zeros(len(model), dtype=np.uint64)
    online = 0
    for leaf, members in enumerate(kw["server"].setup.mask_assignment.members):
        survivors = [u for u in members if u in inputs]
        online += len(survivors)
        if leaf in result.flagged or len(survivors) < 2:
            total += model.values * np.uint64(len(survivors))
        else:
            for u in survivors:
                total += inputs[u].values
    total &= np.uint64(model.spec.word_mask)
    if not np.array_equal(total, result.total.values):
        return "aggregate differs from the plaintext oracle"
    if result.n_eff != online:
        return f"n_eff {result.n_eff} != {online} online users"
    return None


class RoundClock:
    """Stands in for ``simulation.execute_round``: times the round, then
    runs the oracle outside the timed interval."""

    def __init__(self, inner, started: float, probe: bool):
        self.inner = inner
        self.started = started
        self.probe = probe
        self.setup_s: float | None = None
        self.round_s: list[float] = []
        self.round_end: list[float] = []
        self.round_return: list[float] = []
        self.check_s = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.raised: BaseException | None = None

    def __call__(self, **kw):
        if self.setup_s is None:
            self.setup_s = perf_counter() - self.started
        if self.probe:
            raise SetupProbe
        self.attempted += 1
        t = kw["round_seed"][1]
        t0 = perf_counter()
        try:
            result = self.inner(**kw)
        except (ProtocolAbort, UnrecoverableRoundError) as exc:
            self.raised = exc
            self.failures.append(f"round {t}: {type(exc).__name__}: {exc}")
            raise
        t1 = perf_counter()
        self.round_s.append(t1 - t0)
        self.round_end.append(t1)
        problem = oracle_mismatch(kw, result)
        if problem:
            self.failures.append(f"round {t}: {problem}")
        self.round_return.append(perf_counter())
        self.check_s += self.round_return[-1] - t1
        return result

    def steps(self, started: float, ended: float) -> list[float]:
        """Set-up and round 0, each later round with the work before it,
        and the tail after the last round; oracle time excluded."""
        if not self.round_end:
            return [ended - started]
        out = [self.round_end[0] - started]
        out += [end - ret for end, ret in zip(self.round_end[1:], self.round_return)]
        out.append(ended - self.round_return[-1])
        return out


@dataclass
class ScenarioRun:
    setup_s: float
    run_s: float
    round_s: list[float]
    steps: list[float]
    attempted: int
    failures: list[str]
    report: "simulation.RunReport | None" = None
    digest: str = ""


def report_digest(report) -> str:
    h = hashlib.sha256(report.to_csv().encode())
    h.update(report.to_json().encode())
    return h.hexdigest()


def run_timed(config, probe: bool = False) -> ScenarioRun:
    """One ``run_scenario`` call under the round clock."""
    started = perf_counter()
    clock = RoundClock(simulation.execute_round, started, probe)
    simulation.execute_round = clock
    report = None
    failures = clock.failures
    try:
        report = simulation.run_scenario(config)
    except SetupProbe:
        pass
    except (ProtocolAbort, UnrecoverableRoundError) as exc:
        if exc is not clock.raised:
            failures.append(f"outside a round: {type(exc).__name__}: {exc}")
    finally:
        ended = perf_counter()
        run_s = ended - started - clock.check_s
        simulation.execute_round = clock.inner
    return ScenarioRun(
        setup_s=clock.setup_s if clock.setup_s is not None else run_s,
        run_s=run_s,
        round_s=clock.round_s,
        steps=clock.steps(started, ended),
        attempted=clock.attempted,
        failures=failures,
        report=report,
        digest=report_digest(report) if report is not None else "",
    )


def run_for(make, seconds: float, started: float, setups: list[float] | None = None) -> list[ScenarioRun]:
    """Scenarios until ``seconds`` have passed, at least one; with ``setups``,
    set-up probes before each scenario are appended to it."""
    runs = []
    while not runs or perf_counter() - started < seconds:
        if setups is not None:
            setups += setup_probes(make)
        runs.append(run_timed(make()))
    return runs


def setup_probes(make) -> list[float]:
    samples: list[float] = []
    spent = 0.0
    while len(samples) < MIN_SETUP_PROBES or (
        len(samples) < MAX_SETUP_PROBES and spent < SETUP_PROBE_BUDGET_S
    ):
        t0 = perf_counter()
        samples.append(run_timed(make(), probe=True).setup_s)
        spent += perf_counter() - t0
    return samples


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _per_user_round(value: float, config) -> float:
    return value / (config.n_users * config.rounds)


def fast_tenth(samples: list[float]) -> float:
    """The sample that a tenth of the samples beat (the fastest if fewer than ten)."""
    return sorted(samples)[len(samples) // 10]


def end_to_end(config, setups: list[float], runs: list[ScenarioRun]) -> dict[str, float]:
    c = runs[0].report.counters
    return {
        "setup_s": statistics.median(setups + [r.setup_s for r in runs]),
        "round_s": fast_tenth([s for r in runs for s in r.round_s]),
        "run_s": sum(min(step) for step in zip(*(r.steps for r in runs))),
        "up_bytes_per_user": _per_user_round(c.bytes_user_to_server, config),
        "down_bytes_per_user": _per_user_round(c.bytes_server_to_user, config),
        "prg_per_user": _per_user_round(c.prg_user_total(), config),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p90/p80/p50 with at least ten samples beyond it."""
    for pct in (90, 80, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def outcome_detail(config, runs: list[ScenarioRun]) -> dict[str, dict]:
    """The workload-specific end-to-end figures, exact for a given seed."""
    report = runs[0].report
    rounds = [s for r in runs for s in r.round_s]
    out = {
        "round_s.samples": {"value": len(rounds), "unit": "count"},
        "round_s.median": {"value": statistics.median(rounds), "unit": "s"},
        "run_s.median": {"value": statistics.median(r.run_s for r in runs), "unit": "s"},
    }
    tail = tail_percentile(rounds)
    if tail:
        out[f"round_s.p{tail[0]}"] = {"value": tail[1], "unit": "s"}
    dropouts = sum(row.dropouts for row in report.rows)
    if dropouts:
        out["cancellations_per_dropout"] = {
            "value": report.counters.mask_cancellations / dropouts,
            "unit": "count/dropout",
        }
    if config.attack is not None:
        out["DR"] = {"value": report.metrics["DR"], "unit": "ratio"}
        out["FPR"] = {"value": report.metrics["FPR"], "unit": "ratio"}
        out["main_acc"] = {"value": report.final_main_acc, "unit": "ratio"}
        out["backdoor_acc"] = {"value": report.final_backdoor_acc, "unit": "ratio"}
    return out


USERAGENT_SPANS = (
    "begin_round",
    "receive_peer_list",
    "distribute_shares",
    "receive_share",
    "mask_input",
    "unmask_response",
    "verify_reveal",
)
AGGSERVER_SPANS = (
    "finish_setup",
    "peer_list_for",
    "route_share",
    "receive_unmask",
    "aggregate_subgroups",
    "recover_dropout",
    "exclusion_requests",
    "finalize",
)
ADVERSARY_SPANS = ("benign_update", "attacker_update", "train_backdoor_target", "evaluate")


def _per_layer_units() -> dict[str, str]:
    u = {}
    for fn in ("prg_expand", "derive_shared_seed", "randomize_pub", "share_secret", "reconstruct_secret"):
        u[f"crypto.{fn}.calls"] = "calls/round"
        u[f"crypto.{fn}.self_s"] = "s/round"
    u["crypto.prg_mb_per_s"] = "MB/s"
    u["crypto.prg_bits_used_ratio"] = "ratio"
    u["fixedpoint.paramvector.constructed"] = "count/round"
    u["fixedpoint.paramvector.self_s"] = "s/round"
    u["fixedpoint.vec_add_sub.self_s"] = "s/round"
    for fn in ("run_tree_setup", "build_peer_sets", "verify_setup"):
        u[f"orgtree.{fn}.self_s"] = "s/round"
    u["wire.to_bytes.calls"] = "calls/round"
    u["wire.to_bytes.self_s"] = "s/round"
    u["wire.deliver.calls"] = "calls/round"
    for tag in sorted(spans.TAG_NAMES):
        u[f"wire.bytes.{spans.TAG_NAMES[tag]}"] = "B/user/round"
    for fn in USERAGENT_SPANS:
        u[f"useragent.{fn}.self_s"] = "s/round"
    u["useragent.refused"] = "count/round"
    u["useragent.forced_releases"] = "count/round"
    for fn in AGGSERVER_SPANS:
        u[f"aggserver.{fn}.self_s"] = "s/round"
    u["aggserver.share_use_ratio"] = "ratio"
    u["detection.detect.self_s"] = "s/round"
    u["detection.flagged_per_round"] = "count/round"
    for fn in ADVERSARY_SPANS:
        u[f"adversary.{fn}.self_s"] = "s/round"
    u["simulation.execute_round.self_s"] = "s/round"
    for phase in spans.PHASES:
        u[f"phase.{phase}_s"] = "s/round"
    u["trace.overhead"] = "ratio"
    u["trace.coverage"] = "ratio"
    return u


PER_LAYER_UNITS = _per_layer_units()


def per_layer(tr: spans.Tracer, config, base: ScenarioRun, traced: list[ScenarioRun]) -> dict[str, float]:
    r = tr.rounds
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        if name.endswith(".calls"):
            out[name] = tr.calls[name[: -len(".calls")]] / r
        elif name.endswith(".self_s"):
            out[name] = tr.self_s[name[: -len(".self_s")]] / r
    counts = tr.counts
    out["crypto.prg_mb_per_s"] = counts["prg_bytes"] / 1e6 / tr.self_s["crypto.prg_expand"]
    out["crypto.prg_bits_used_ratio"] = counts["prg_bits_used"] / counts["prg_bits_drawn"]
    out["fixedpoint.paramvector.constructed"] = tr.calls["fixedpoint.paramvector"] / r
    for tag, tag_name in spans.TAG_NAMES.items():
        sent = tr.wire_bytes[("up", tag)] + tr.wire_bytes[("down", tag)]
        out[f"wire.bytes.{tag_name}"] = sent / (config.n_users * r)
    out["useragent.refused"] = counts["refused"] / r
    out["useragent.forced_releases"] = counts["forced_releases"] / r
    out["aggserver.share_use_ratio"] = counts["shares_consumed"] / counts["shares_received"]
    out["detection.flagged_per_round"] = counts["flagged"] / r
    for phase in spans.PHASES:
        out[f"phase.{phase}_s"] = tr.phase_s[phase] / r
    traced_rounds = [s for t in traced for s in t.round_s]
    out["trace.overhead"] = statistics.median(traced_rounds) / statistics.median(base.round_s)
    out["trace.coverage"] = sum(tr.phase_s.values()) / tr.round_wall_s
    return {name: out[name] for name in PER_LAYER_UNITS}


def layer_shares(tr: spans.Tracer) -> dict[str, float]:
    """Each layer's share of the traced self time."""
    total = sum(tr.self_s.values())
    shares: dict[str, float] = {}
    for name, s in tr.self_s.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + s / total
    return dict(sorted(shares.items()))


# ---------------------------------------------------------------------------
# checks shared by both modes
# ---------------------------------------------------------------------------


def determinism_failures(runs: list[ScenarioRun]) -> list[str]:
    digests = {r.digest for r in runs if r.report is not None}
    if len(digests) > 1:
        return [f"report digests differ between runs of one seed: {sorted(digests)}"]
    return []


def traced_failures(tr: spans.Tracer, base: ScenarioRun, traced: list[ScenarioRun]) -> list[str]:
    out = []
    for t in traced:
        if t.report is not None and vars(t.report.counters) != vars(base.report.counters):
            out.append("traced OpCounters differ from the untraced run")
    for direction, attr in (("up", "bytes_user_to_server"), ("down", "bytes_server_to_user")):
        per_tag = sum(b for (d, _), b in tr.wire_bytes.items() if d == direction)
        counted = sum(getattr(t.report.counters, attr) for t in traced if t.report is not None)
        if per_tag != counted:
            out.append(f"per-tag {direction} bytes {per_tag} != counter total {counted}")
    return out


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def _check_manifest(path, trace: int) -> str | None:
    """The emitted metric names and units must be the ones BENCHMARK.json lists."""
    doc = json.loads(path.read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    emitted = PER_LAYER_UNITS if trace else END_TO_END
    if listed != emitted:
        return f"metrics differ from {path.name}: {sorted(set(listed) ^ set(emitted))}"
    if sorted(w["name"] for w in doc["workloads"]) != sorted(WORKLOADS):
        return f"workloads differ from {path.name}"
    return None


def main(args, manifest) -> int:
    problem = _check_manifest(manifest, args.trace)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    def make():
        return WORKLOADS[args.workload](args.seed)

    config = make()
    if args.trace:
        started = perf_counter()
        base = run_timed(make())
        tr = spans.Tracer()
        tr.install()
        try:
            traced = run_for(make, args.seconds, started)
        finally:
            tr.restore()
        runs = [base] + traced
    else:
        setups: list[float] = []
        runs = run_for(make, args.seconds, perf_counter(), setups)

    failures = [f for r in runs for f in r.failures]
    if all(r.report is not None for r in runs):
        failures += determinism_failures(runs)
        if args.trace:
            failures += traced_failures(tr, base, traced)
    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failures) for r in runs)
    correct = not failures

    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    metrics: dict[str, float] = {}
    units = PER_LAYER_UNITS if args.trace else END_TO_END
    if correct and args.trace:
        metrics = per_layer(tr, config, base, traced)
        detail["layer_share"] = layer_shares(tr)
    elif correct:
        metrics = end_to_end(config, setups, runs)
        detail.update(outcome_detail(config, runs))
    detail["round_fail_share"] = failed / max(attempted, 1)
    detail["scenarios"] = len(runs)
    detail["digest"] = sorted({r.digest for r in runs if r.digest})
    detail["failures"] = failures
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": max(failed, 0 if correct else 1),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1
