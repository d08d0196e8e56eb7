"""Suspicious-subgroup detection over partially revealed aggregates.

Each round the server compares every subgroup's revealed high segments
against the current global model, flags the farthest subgroups while the
distance dispersion exceeds an adaptive threshold, and records the
dispersion left after those replacements for future thresholds.  The
module also sizes the revealable segment from the disclosure radius
(``reveal_threshold``, ``segment_bits_for``) and computes the detection
quality metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fixedpoint import ParamVector, SegmentSpec, high_word_diff, reduce_words


# ---------------------------------------------------------------------------
# disclosure budget
# ---------------------------------------------------------------------------


def reveal_threshold(subgroup_size: int, epsilon: float) -> float:
    """Smallest value scale whose bits may be revealed per subgroup.

    With n-user subgroups, revealing magnitudes at or above
    2*(1 - sqrt((n-1)/n))*epsilon leaks no more about an individual than
    the released global model does at disclosure radius epsilon.
    """
    if subgroup_size < 2:
        raise ConfigError("subgroup size must be >= 2")
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    n = subgroup_size
    return 2.0 * (1.0 - math.sqrt((n - 1) / n)) * epsilon


def segment_bits_for(threshold: float, spec: SegmentSpec) -> int:
    """Low-segment width k: the reveal threshold rounded up to a power of
    two in quantized units."""
    quantized = threshold * spec.scale
    if quantized <= 1.0:
        raise ConfigError("reveal threshold below one quantized unit; raise epsilon")
    k = math.ceil(math.log2(quantized))
    if not (spec.frac_bits < k < spec.word_bits):
        raise ConfigError(
            f"segment boundary k={k} outside (frac_bits, word_bits) for {spec}"
        )
    return k


def default_epsilon(spec: SegmentSpec) -> float:
    """Fallback disclosure radius: half the representable parameter range."""
    return float(1 << (spec.word_bits - spec.frac_bits - 1))


# ---------------------------------------------------------------------------
# detector
# ---------------------------------------------------------------------------


@dataclass
class DetectionConfig:
    expansion: float = 1.2  # threshold expansion factor
    window: int = 5  # rounds averaged into the adaptive threshold
    warmup_rounds: int | None = None  # detection disabled before this round
    # lower bound on the threshold; distances are counted in high-word
    # flips, so dispersion below a fraction of one flip is pure noise
    min_threshold: float = 0.0
    # compare round-to-nearest high words instead of floor-truncated ones
    rounded_comparison: bool = True

    @property
    def effective_warmup(self) -> int:
        return self.window if self.warmup_rounds is None else self.warmup_rounds


@dataclass
class DetectionRecord:
    round_index: int
    distances: dict[int, float]  # leaf -> distance at entry
    threshold: float
    std_sequence: list[float]  # dispersion before each flag and at exit
    flagged: list[int]  # leaves, in flagging order

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "distances": {str(k): v for k, v in sorted(self.distances.items())},
            "threshold": self.threshold,
            "std_sequence": self.std_sequence,
            "flagged": self.flagged,
        }


def adaptive_threshold(history: list[float], expansion: float, window: int) -> float:
    """Expansion factor times the mean of the last ``window`` recorded
    dispersions; +inf while the history is still shorter than the window."""
    if len(history) < window:
        return math.inf
    return (expansion / window) * float(sum(history[-window:]))


def subgroup_distance(aggregate, model: ParamVector, rounded: bool = True) -> float:
    """Normalized deviation of one subgroup's revealed high segments.

    The reference is the high segment of n_i copies of the global model,
    so a subgroup of no-op updates sits at distance ~0 regardless of n_i.
    Differences are decoded circularly at the high-word width
    (``fixedpoint.high_word_diff``), which keeps the measure correct for
    two's complement negatives, then scaled by the survivor count so
    unequal subgroup sizes stay comparable.

    With ``rounded`` both sides are quantized round-to-nearest instead of
    floor.  Model coordinates sitting exactly on a floor boundary (weights
    hovering around zero do this en masse) otherwise flip +-1 word per
    subgroup per round and drown out small attack signals; rounding moves
    the decision boundary to the half-cell where coordinates are sparse.
    It reads one bit below the disclosure boundary, which the restricted
    inter-group masks leave exposed anyway (see the margin parameter).
    """
    spec: SegmentSpec = model.spec
    n = aggregate.survivor_count
    k = np.uint64(spec.low_bits)
    ref = reduce_words(model.values * np.uint64(n), spec)
    if rounded:
        half_cell = np.uint64(1 << (spec.low_bits - 1))
        own = reduce_words(aggregate.full_sum.values + half_cell, spec) >> k
        ref_high = reduce_words(ref + half_cell, spec) >> k
    else:
        own = aggregate.revealed_high.values
        ref_high = ref >> k
    return float(np.linalg.norm(high_word_diff(own, ref_high, spec) / n))


class Detector:
    """Stateful flagging loop with a trailing-window adaptive threshold."""

    def __init__(self, config: DetectionConfig):
        self.config = config
        self.history: list[float] = []
        self.round_index = 0

    def detect(self, aggregates, model: ParamVector) -> DetectionRecord:
        """Flag the farthest subgroups until dispersion drops below the
        adaptive threshold.  Void subgroups are not scored; they are
        excluded by the server without detection semantics."""
        self.round_index += 1
        scored = [a for a in aggregates if not a.void]
        leaves = [a.leaf for a in scored]
        dist = np.array(
            [subgroup_distance(a, model, rounded=self.config.rounded_comparison) for a in scored],
            dtype=np.float64,
        )
        entry = {leaf: float(d) for leaf, d in zip(leaves, dist)}

        if self.round_index <= self.config.effective_warmup:
            threshold = math.inf
        else:
            threshold = max(
                adaptive_threshold(self.history, self.config.expansion, self.config.window),
                self.config.min_threshold,
            )

        flagged: list[int] = []
        stds = [float(np.std(dist))] if len(dist) else [0.0]
        work = dist.copy()
        while len(work) and stds[-1] > threshold:
            top = int(np.argmax(work))  # argmax breaks ties toward the lowest leaf
            flagged.append(leaves[top])
            # a flagged distance drops to the smallest one left, which keeps
            # the dispersion of the remaining set monotone; the literal
            # replace-with-global-model distance of zero would inflate it
            # whenever benign distances sit on a quantization noise floor
            # above zero
            work[top] = float(work.min())
            stds.append(float(np.std(work)))

        self.history.append(stds[-1])
        return DetectionRecord(
            round_index=self.round_index,
            distances=entry,
            threshold=threshold,
            std_sequence=stds,
            flagged=flagged,
        )


# ---------------------------------------------------------------------------
# detection quality metrics
# ---------------------------------------------------------------------------


@dataclass
class MetricsRound:
    """Ground-truth view of one round, supplied by the harness."""

    detection_active: bool
    total_subgroups: int
    attacker_leaves: set[int] = field(default_factory=set)
    flagged_leaves: set[int] = field(default_factory=set)
    attackers_active: int = 0
    attackers_in_flagged: int = 0


def compute_metrics(rounds: list[MetricsRound]) -> dict[str, float]:
    """Detection rate, correction rate, and false positive rate.

    DR: fraction of attack rounds in which at least one attacker-holding
    subgroup was flagged.  CR: attackers inside flagged subgroups over all
    active attackers, summed across attack rounds.  FPR: flagged benign
    subgroups over all subgroups, across detection-active rounds.

    An attacker counts as one only in the rounds its attack plan is
    active (``attackers_active``, ``attacker_leaves``).  In any other round
    a subgroup holding it is benign, so flagging that subgroup counts
    toward FPR, even if the attacker already sends crafted updates, such
    as a slow creep before the attack starts.
    """
    attack_rounds = [r for r in rounds if r.attackers_active > 0]
    detected = sum(1 for r in attack_rounds if r.flagged_leaves & r.attacker_leaves)
    total_attackers = sum(r.attackers_active for r in attack_rounds)
    caught = sum(r.attackers_in_flagged for r in attack_rounds)
    active = [r for r in rounds if r.detection_active]
    benign_flagged = sum(len(r.flagged_leaves - r.attacker_leaves) for r in active)
    total_groups = sum(r.total_subgroups for r in active)
    return {
        "DR": detected / len(attack_rounds) if attack_rounds else float("nan"),
        "CR": caught / total_attackers if total_attackers else float("nan"),
        "FPR": benign_flagged / total_groups if total_groups else 0.0,
    }
