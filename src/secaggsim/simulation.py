"""Scenario configuration, deterministic round orchestration, and reports.

A scenario fixes the population, tree shape, fixed-point layout, dropout
model, workload (synthetic drift or the toy classification task), attack
plan, and detection settings.  ``run_scenario`` executes the full
per-round pipeline: grouping setup, share distribution, masked upload
with dropout injection, unmask, subgroup aggregation with partial
disclosure, detection, exclusion, and the global update; it emits a CSV
of per-round metrics and a JSON transcript, both byte-stable for a fixed
(config, seed) pair.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import hashlib
import io
import json
import math
import platform
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields
from random import Random

import numpy as np

from . import detection as det
from .adversary import (
    N_CLASSES,
    AttackPlan,
    ToyTask,
    attacker_update,
    benign_update_synthetic,
    benign_update_task,
)
from .aggserver import AggServer, fedsgd_update
from .counters import OpCounters
from .crypto import FAST_GROUP, PRG_BATCH_BYTES
from .errors import ConfigError, ProtocolAbort, UnrecoverableRoundError, WireError
from .fixedpoint import ParamVector, SegmentSpec, dequantize_vector, quantize_vector, word_bytes, zeros
from .orgtree import TreeConfig
from .useragent import UserAgent, begin_rounds, mask_inputs, receive_peer_lists
from .wire import (
    SERVER,
    AdvertMsg,
    GlobalModelMsg,
    MaskedUploadMsg,
    PeerListMsg,
    RandOpenMsg,
    RevealMsg,
    ServerCommitMsg,
    ShareMsg,
    StarTransport,
    TreeCommitMsg,
    UnmaskRequestMsg,
    UnmaskResponseMsg,
    decode_from,
)

REPORT_SCHEMA = "run-report-v1"


# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Keep freed vector buffers in the process heap (glibc only).

    A round allocates and frees thousands of m-word buffers (PRG streams,
    masks, partial sums, wire payloads).  Under glibc's default dynamic
    thresholds, whether such a buffer is mmapped, or the heap top is
    trimmed after it is freed, depends on the allocation history, so
    identical rounds page-fault from a few thousand to over 10^5 times and
    their times spread widely.  Fixed thresholds (mmap only above 32 MiB,
    trim only above 256 MiB free) reuse heap pages instead; the peak
    resident size is unchanged.
    """
    if platform.system() != "Linux" or platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _sub_rng(seed: int, *labels) -> Random:
    tag = ("%d|" % seed + "|".join(map(str, labels))).encode()
    return Random(int.from_bytes(hashlib.sha256(tag).digest(), "big"))


def _sub_np_rng(seed: int, *labels) -> np.random.Generator:
    tag = ("np|%d|" % seed + "|".join(map(str, labels))).encode()
    return np.random.default_rng(int.from_bytes(hashlib.sha256(tag).digest(), "big"))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# synthetic benign updates: X_t + Normal(drift_t, sigma_t^2), where sigma_t
# decays from SIGMA0 by SIGMA_DECAY per round down to SIGMA_FLOOR and the
# drift shrinks with it from DRIFT_SCALE; the initial model coordinates are
# U(-VALUE_RANGE, VALUE_RANGE)
DRIFT_SCALE, SIGMA0, SIGMA_DECAY, SIGMA_FLOOR, VALUE_RANGE = 0.05, 0.2, 0.9, 0.01, 4.0


@dataclass
class SyntheticWorkload:
    """Benign updates X_t + Normal(drift_t, sigma_t^2) with decaying noise."""

    vector_len: int = 64


@dataclass
class TaskWorkload:
    classes_per_user: int | None = None  # < N_CLASSES gives non-iid data
    local_lr: float = 0.5
    lr_decay: float = 1.0  # per-round factor on the local learning rate
    weight_decay: float = 0.0
    noise: float = 0.6
    attacker_steps: int = 60
    attacker_lr: float = 0.5


@dataclass
class DetectionSettings(det.DetectionConfig):
    """The detector's own settings plus the ones that size the disclosure."""

    enabled: bool = True
    epsilon: float | None = None  # disclosure radius; None = spec default
    low_bits_override: int | None = None


@dataclass
class ScenarioConfig:
    n_users: int = 243
    rounds: int = 20
    eta: float = 1.0
    seed: int = 0
    protocol: str = "tree"  # "tree" | "baseline": a one-leaf tree whose ring covers every user
    mode: str = "synthetic"  # "synthetic" | "toy_task"
    word_bits: int = 32
    frac_bits: int = 8
    inter_mask_margin_bits: int = 6
    tree_height: int = 3
    tree_degree: int = 3
    neighbor_radius: int = 2
    share_threshold: int = 3
    dropout_rate: float = 0.0  # users drop after share distribution, the worst case
    detection: DetectionSettings = field(default_factory=DetectionSettings)
    synthetic: SyntheticWorkload = field(default_factory=SyntheticWorkload)
    task: TaskWorkload = field(default_factory=TaskWorkload)
    attack: AttackPlan | None = None

    # -- derived pieces ------------------------------------------------------

    def tree(self) -> TreeConfig:
        if self.protocol == "baseline":
            return TreeConfig(
                height=0,
                degree=2,
                neighbor_radius=self.n_users // 2,
                share_threshold=self.share_threshold,
            )
        if self.protocol != "tree":
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        return TreeConfig(
            height=self.tree_height,
            degree=self.tree_degree,
            neighbor_radius=self.neighbor_radius,
            share_threshold=self.share_threshold,
        )

    def segment_spec(self) -> SegmentSpec:
        base = SegmentSpec(word_bits=self.word_bits, frac_bits=self.frac_bits, low_bits=self.frac_bits + 8)
        if self.detection.low_bits_override is not None:
            k = self.detection.low_bits_override
        else:
            n = self.tree().subgroup_size(self.n_users)
            eps = self.detection.epsilon
            if eps is None:
                eps = det.default_epsilon(base)
            k = det.segment_bits_for(det.reveal_threshold(n, eps), base)
        return SegmentSpec(word_bits=self.word_bits, frac_bits=self.frac_bits, low_bits=k)

    def inter_mask_bits(self, spec: SegmentSpec) -> int:
        bits = spec.low_bits - self.inter_mask_margin_bits
        if bits < 1:
            raise ConfigError(
                f"inter-group masks need >= 1 bit: low_bits={spec.low_bits}, "
                f"margin={self.inter_mask_margin_bits}"
            )
        return bits

    def validate(self) -> None:
        if self.mode not in ("synthetic", "toy_task"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ConfigError(f"eta must be finite and > 0, not {self.eta}")
        if self.inter_mask_margin_bits < 0:
            raise ConfigError("inter_mask_margin_bits must be >= 0")
        if self.detection.window < 1:
            raise ConfigError("detection window must be >= 1")
        if not self.detection.expansion > 0:
            raise ConfigError("detection expansion must be > 0")
        if self.synthetic.vector_len < 1:
            raise ConfigError("synthetic vector_len must be >= 1")
        per_user = self.task.classes_per_user
        if per_user is not None and not 1 <= per_user <= N_CLASSES:
            raise ConfigError(f"task classes_per_user must be in [1, {N_CLASSES}]")
        if not self.task.local_lr >= 0:
            raise ConfigError("task local_lr must be >= 0")
        if not self.task.lr_decay >= 0:
            raise ConfigError("task lr_decay must be >= 0")
        if not self.task.noise >= 0:
            raise ConfigError("task noise must be >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout rate must be in [0, 1)")
        tree = self.tree()
        tree.validate_for(self.n_users)
        self.inter_mask_bits(self.segment_spec())
        # the carry bound needs inter masks 2^margin times smaller than
        # the low segment; closure can add a few peers in uneven trees
        max_inter = 4 * tree.height
        if (1 << self.inter_mask_margin_bits) < max_inter:
            raise ConfigError(
                f"margin {self.inter_mask_margin_bits} bits too small for "
                f"up to {max_inter} inter-group masks per user"
            )
        if self.attack is not None:
            self.attack.validate(self.n_users, self.rounds)
            bad = [a for a in self.attack.attacker_ids if not (0 <= a < self.n_users)]
            if bad:
                raise ConfigError(f"attacker ids out of range: {bad}")

    # -- (de)serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(doc: dict) -> "ScenarioConfig":
        """The config a JSON document describes; ``ConfigError`` names any
        key, at the top level or in a section, that no field takes, any
        field left without a value, any value of the wrong type, and a
        document that is not a JSON object."""
        if not isinstance(doc, dict):
            raise ConfigError(f"the config document is a JSON {type(doc).__name__}, not an object")
        doc = dict(doc)
        for key, cls in _SECTIONS.items():
            if isinstance(doc.get(key), dict):
                doc[key] = _from_fields(cls, doc[key], key)
        return _from_fields(ScenarioConfig, doc, "config")

    @staticmethod
    def from_json(text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"the config document is not JSON: {exc}") from None
        return ScenarioConfig.from_dict(doc)


_SECTIONS = {"detection": DetectionSettings, "synthetic": SyntheticWorkload, "task": TaskWorkload, "attack": AttackPlan}


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field's type: an int fits a float, a
    bool no number, and a list of ints a ``tuple[int, ...]``."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if hint is float:
        return type(value) in (int, float)
    if hint is int:
        return type(value) is int
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
    return isinstance(value, hint)


def _from_fields(cls, doc: dict, section: str):
    """``cls(**doc)``, or ``ConfigError`` naming the keys of ``doc`` that
    are not fields of ``cls``, or the first field that ``doc`` lacks
    though it has no default, or gives a value of the wrong type."""
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        if f.name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{section} key {f.name} is missing")
        elif not _has_type(doc[f.name], hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"{section} key {f.name} is {doc[f.name]!r}, not {name}")
    return cls(**{key: tuple(value) if isinstance(value, list) else value for key, value in doc.items()})


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


@dataclass
class RoundRow:
    """One CSV row; the fields are the columns, in order."""

    round: int
    dropouts: int
    flagged: list[int]
    std: float
    threshold: float
    DR: float
    CR: float
    FPR: float
    main_acc: float
    backdoor_acc: float
    main_loss: float
    n_eff: int


CSV_COLUMNS = [f.name for f in fields(RoundRow)]


def _csv_cell(value) -> object:
    """A leaf list joins with "|", a float prints by ``repr`` (shortest
    round-trip, nan as "nan"), an int as itself."""
    if isinstance(value, list):
        return "|".join(map(str, value))
    return repr(value) if isinstance(value, float) else value


@dataclass
class RunReport:
    config: ScenarioConfig
    rows: list[RoundRow]
    counters: OpCounters
    metrics: dict[str, float]
    transcript: list[dict]
    final_main_acc: float = float("nan")
    final_backdoor_acc: float = float("nan")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([_csv_cell(getattr(r, column)) for column in CSV_COLUMNS])
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "config": json.loads(self.config.to_json()),
            "metrics": self.metrics,
            "final": {
                "main_acc": self.final_main_acc,
                "backdoor_acc": self.final_backdoor_acc,
            },
            "counters": self.counters.as_dict(),
            "rounds": self.transcript,
        }
        return json.dumps(doc, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Workload:
    """Produces per-user inputs and knows the attack ground truth."""

    def __init__(self, config: ScenarioConfig, spec: SegmentSpec):
        self.config = config
        self.spec = spec
        self.plan = config.attack
        self.attackers = set(self.plan.attacker_ids) if self.plan else set()
        self.target_theta: np.ndarray | None = None
        if config.mode == "toy_task":
            self.task = ToyTask.generate(
                _sub_rng(config.seed, "task").getrandbits(63),
                config.n_users,
                noise=config.task.noise,
                classes_per_user=config.task.classes_per_user,
            )
            self.vector_len = self.task.model_dim
        else:
            self.task = None
            self.vector_len = config.synthetic.vector_len
            rng = _sub_np_rng(config.seed, "drift")
            self.drift_dir = rng.normal(0.0, 1.0, size=self.vector_len)
            self.drift_dir /= np.linalg.norm(self.drift_dir)

    def initial_model(self) -> ParamVector:
        if self.task is not None:
            return zeros(self.vector_len, self.spec)
        rng = _sub_np_rng(self.config.seed, "init")
        return quantize_vector(rng.uniform(-VALUE_RANGE, VALUE_RANGE, self.vector_len), self.spec)

    @staticmethod
    def _sigma(round_index: int) -> float:
        return max(SIGMA0 * (SIGMA_DECAY**round_index), SIGMA_FLOOR)

    def attack_active(self, round_index: int) -> bool:
        return self.plan is not None and self.plan.is_active(round_index)

    def _refresh_target(self, theta: np.ndarray, round_index: int) -> None:
        if self.task is None or self.plan is None:
            raise ConfigError("a backdoor target needs mode 'toy_task' and an attack plan")
        self.target_theta = self.task.train_backdoor_target(
            theta,
            steps=self.config.task.attacker_steps,
            lr=self.config.task.attacker_lr,
            seed=_sub_rng(self.config.seed, "target", round_index).getrandbits(32),
            cap=self.plan.cap,
            users=sorted(self.attackers),
        )

    def inputs_for(self, users: list[int], round_index: int, model: ParamVector) -> dict[int, ParamVector]:
        """Each listed user's input for the round.  The model is decoded, the
        attack target refreshed and the synthetic drift added once per
        round, not once per user."""
        theta, spec = dequantize_vector(model), model.spec
        attackers = set(users) & self.attackers if self.attack_active(round_index) else set()
        if attackers:
            if self.target_theta is None or (self.plan.target_refresh and self.task is not None):
                if self.task is not None:
                    self._refresh_target(theta, round_index)
                else:
                    rng = _sub_np_rng(self.config.seed, "synthtarget")
                    self.target_theta = theta + rng.normal(0.0, 1.0, self.vector_len)
            scale = self.plan.scale_for(
                round_index, self.config.n_users, self.config.eta, self.config.tree().leaf_count
            )
        if self.task is not None:
            lr = self.config.task.local_lr * self.config.task.lr_decay**round_index
            decay = self.config.task.weight_decay
        else:
            sigma = self._sigma(round_index)
            center = theta + DRIFT_SCALE * sigma / SIGMA0 * self.drift_dir
        inputs = {}
        for u in users:
            if u in attackers:
                inputs[u] = attacker_update(theta, spec, self.target_theta, scale=scale, cap=self.plan.cap)
            elif self.task is not None:
                inputs[u] = benign_update_task(theta, spec, self.task, u, lr, weight_decay=decay)
            else:
                rng = _sub_np_rng(self.config.seed, "benign", round_index, u)
                inputs[u] = benign_update_synthetic(center, spec, sigma, rng)
        return inputs

    def evaluate(self, model: ParamVector) -> tuple[float, float]:
        if self.task is None:
            return float("nan"), float("nan")
        return self.task.evaluate(dequantize_vector(model))

    def main_loss(self, model: ParamVector) -> float:
        if self.task is None:
            return float("nan")
        theta = dequantize_vector(model)
        return self.task.loss(theta, self.task.test_x, self.task.test_y)


# ---------------------------------------------------------------------------
# scenario engine
# ---------------------------------------------------------------------------


@dataclass
class RoundResult:
    total: ParamVector
    n_eff: int
    aggregates: list
    detection: "det.DetectionRecord | None"
    flagged: set[int]
    new_model: ParamVector


def execute_round(
    *,
    server: AggServer,
    users: list[UserAgent],
    transport: StarTransport,
    model: ParamVector,
    inputs: dict[int, ParamVector],
    round_seed: tuple[int, int],
    pre_drop: set[int] | None = None,
    detector: "det.Detector | None" = None,
    eta: float = 1.0,
) -> RoundResult:
    """One full protocol round over explicit per-user inputs.

    ``inputs`` maps every non-dropped user to its vector.  ``round_seed``
    is (scenario seed, round index); all per-party randomness derives from
    it.  When ``detector`` is None no subgroup is flagged (void subgroups
    are still excluded).  Every message goes through ``send`` or
    ``broadcast``: its receiver gets what ``decode_from`` made of the
    bytes delivered, so a malformed record is blamed on its sender.
    """
    seed, t = round_seed
    pre_drop = pre_drop or set()
    n_users = len(users)

    def send(sender: str, receiver: str, msg, cls, *held):
        return decode_from(sender, cls, transport.deliver(sender, receiver, msg.to_bytes()), *held)

    def broadcast(msg, cls, receivers, *group) -> list:
        """The server's ``msg`` as each receiver decoded it: encoded once,
        and each distinct received copy decoded once, under ``group`` where
        the layout needs it (every user holds the one group of the run)."""
        encoded = msg.to_bytes()
        copies = [transport.deliver(SERVER, f"user:{u}", encoded) for u in receivers]
        decoded = {data: decode_from(SERVER, cls, data, *group) for data in dict.fromkeys(copies)}
        return [decoded[data] for data in copies]

    commit = server.begin_round(n_users, _sub_rng(seed, "server", t), len(model))
    commits = broadcast(commit, ServerCommitMsg, range(n_users))
    rngs = [_sub_rng(seed, "user", t, u) for u in range(n_users)]
    adverts = begin_rounds(users, rngs, [got.digest for got in commits])
    for u, advert in enumerate(adverts):
        server.receive_advert(u, send(f"user:{u}", SERVER, advert, AdvertMsg, server.group))

    for u, got in enumerate(broadcast(server.commit_tree(), TreeCommitMsg, range(n_users))):
        server.receive_open(u, send(f"user:{u}", SERVER, users[u].open_rand(got), RandOpenMsg))
    server.finish_setup()

    peer_lists = [
        send(SERVER, f"user:{u}", server.peer_list_for(u), PeerListMsg, users[u].group) for u in range(n_users)
    ]
    receive_peer_lists(users, peer_lists)

    # the server forwards a share leaf's bundles once all its members sent theirs
    for u, agent in enumerate(users):
        bundle = send(f"user:{u}", SERVER, agent.distribute_shares(), ShareMsg)
        for recipient, routed in server.route_share(u, bundle):
            users[recipient].receive_share(send(SERVER, f"user:{recipient}", routed, ShareMsg))

    for u in pre_drop:
        server.mark_dropout(u)
    # users are masked in chunks whose accumulators fit in the PRG budget,
    # and each chunk's uploads are sent before the next is masked
    uploaders = [u for u in range(n_users) if u not in pre_drop]
    step = max(1, PRG_BATCH_BYTES // (word_bytes(model.spec.word_bits) * len(model)))
    for start in range(0, len(uploaders), step):
        chunk = uploaders[start : start + step]
        uploads = mask_inputs([users[u] for u in chunk], [inputs[u] for u in chunk])
        for u, upload in zip(chunk, uploads):
            server.receive_upload(u, send(f"user:{u}", SERVER, upload, MaskedUploadMsg))

    online = server.online_users
    if not online:
        raise UnrecoverableRoundError("no uploads this round")
    # post-upload opening; every honest user would run the full check,
    # the simulator replays it once, on the first online user's copy,
    # and every other online user checks its own record in its copy
    reveals = broadcast(server.reveal(), RevealMsg, online, users[online[0]].group)
    users[online[0]].verify_reveal(reveals[0], server.setup)
    for u, reveal in zip(online[1:], reveals[1:]):
        users[u].check_own_record(reveal)

    def exchange(requests: dict[int, UnmaskRequestMsg]) -> None:
        """Each holder answers its request; the server reads the answer
        under the targets it sent, which it holds."""
        for u, req in requests.items():
            resp = users[u].unmask_response(send(SERVER, f"user:{u}", req, UnmaskRequestMsg))
            server.receive_unmask(u, send(f"user:{u}", SERVER, resp, UnmaskResponseMsg, req.targets))

    # each pass re-asks new holders for the secrets still short of t shares
    while requests := server.unmask_requests():
        exchange(requests)
    aggregates = server.aggregate_subgroups()

    record = detector.detect(aggregates, model) if detector is not None else None
    flagged = set(record.flagged) if record is not None else set()
    while requests := server.exclusion_requests(flagged):
        exchange(requests)

    total, n_eff = server.finalize(flagged, model)
    updated = fedsgd_update(model, total, n_eff, eta)
    models = broadcast(GlobalModelMsg.from_vector(updated.values, updated.spec), GlobalModelMsg, range(n_users))
    # the simulator holds one model for all users: the last user's copy,
    # whose words are decoded under that user's spec
    spec = users[-1].spec
    try:
        new_model = ParamVector(models[-1].vector(spec), spec)
    except WireError as exc:
        raise ProtocolAbort(f"server sent a malformed GlobalModelMsg: {exc}", blamed=SERVER) from exc

    return RoundResult(
        total=total,
        n_eff=n_eff,
        aggregates=aggregates,
        detection=record,
        flagged=flagged,
        new_model=new_model,
    )


def _draw_dropouts(config: ScenarioConfig, round_index: int) -> set[int]:
    """Users that drop after share distribution, before upload, this round."""
    if config.dropout_rate <= 0:
        return set()
    rng = _sub_rng(config.seed, "dropout", round_index)
    count = int(round(config.dropout_rate * config.n_users))
    return set(rng.sample(range(config.n_users), count))


def run_scenario(config: ScenarioConfig) -> RunReport:
    config.validate()
    _pin_malloc_thresholds()
    tree = config.tree()
    spec = config.segment_spec()
    inter_bits = config.inter_mask_bits(spec)
    counters = OpCounters()
    transport = StarTransport(counters)
    workload = _Workload(config, spec)

    server = AggServer(
        tree=tree, group=FAST_GROUP, spec=spec, inter_mask_bits=inter_bits, counters=counters
    )
    users = [
        UserAgent(
            u,
            group=FAST_GROUP,
            spec=spec,
            inter_mask_bits=inter_bits,
            tree=tree,
            counters=counters,
        )
        for u in range(config.n_users)
    ]
    # a single leaf has no other subgroup to be compared with
    detector = None
    if config.detection.enabled and tree.leaf_count > 1:
        detector = det.Detector(config.detection)

    model = workload.initial_model()
    rows: list[RoundRow] = []
    transcript: list[dict] = []
    metric_rounds: list[det.MetricsRound] = []
    main_acc, backdoor_acc = workload.evaluate(model)

    for t in range(config.rounds):
        pre_drop = _draw_dropouts(config, t)
        inputs = workload.inputs_for([u for u in range(config.n_users) if u not in pre_drop], t, model)
        result = execute_round(
            server=server,
            users=users,
            transport=transport,
            model=model,
            inputs=inputs,
            round_seed=(config.seed, t),
            pre_drop=pre_drop,
            detector=detector,
            eta=config.eta,
        )
        model = result.new_model
        record = result.detection
        flagged = result.flagged
        n_eff = result.n_eff

        main_acc, backdoor_acc = workload.evaluate(model)
        attackers_active = (
            sorted(workload.attackers) if workload.attack_active(t) else []
        )
        mask_leaf_of = server.setup.mask_assignment.leaf_of
        attacker_leaves = {mask_leaf_of[a] for a in attackers_active if a not in pre_drop}
        in_flagged = sum(
            1 for a in attackers_active if a not in pre_drop and mask_leaf_of[a] in flagged
        )
        detection_active = (
            detector is not None and detector.round_index > detector.config.effective_warmup
        )
        metric_rounds.append(
            det.MetricsRound(
                detection_active=detection_active,
                total_subgroups=tree.leaf_count,
                attacker_leaves=attacker_leaves,
                flagged_leaves=flagged,
                attackers_active=len([a for a in attackers_active if a not in pre_drop]),
                attackers_in_flagged=in_flagged,
            )
        )
        metrics = det.compute_metrics(metric_rounds)
        rows.append(
            RoundRow(
                round=t,
                dropouts=len(pre_drop),
                flagged=sorted(flagged),
                std=record.std_sequence[0] if record else float("nan"),
                threshold=record.threshold if record else float("nan"),
                DR=metrics["DR"],
                CR=metrics["CR"],
                FPR=metrics["FPR"],
                main_acc=main_acc,
                backdoor_acc=backdoor_acc,
                main_loss=workload.main_loss(model),
                n_eff=n_eff,
            )
        )
        entry = {
            "round": t,
            "dropouts": sorted(pre_drop),
            "flagged": sorted(flagged),
            "n_eff": n_eff,
        }
        if record is not None:
            entry["detection"] = record.to_json_dict()
        transcript.append(entry)

    metrics = det.compute_metrics(metric_rounds)
    return RunReport(
        config=config,
        rows=rows,
        counters=counters,
        metrics=metrics,
        transcript=transcript,
        final_main_acc=main_acc,
        final_backdoor_acc=backdoor_acc,
    )
