import math
import statistics

import numpy as np
import pytest

from secaggsim.aggserver import SubgroupAggregate
from secaggsim.detection import (
    DetectionConfig,
    Detector,
    MetricsRound,
    adaptive_threshold,
    compute_metrics,
    default_epsilon,
    reveal_threshold,
    segment_bits_for,
    subgroup_distance,
)
from secaggsim.errors import ConfigError
from secaggsim.fixedpoint import ParamVector, SegmentSpec, quantize_vector, zeros

SPEC = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)


# -- disclosure budget --------------------------------------------------------


def test_reveal_threshold_examples():
    assert reveal_threshold(4, 1.0) == pytest.approx(0.2679491924)
    assert reveal_threshold(2, 1.0) == pytest.approx(2 * (1 - math.sqrt(0.5)))
    # more users per subgroup allow revealing smaller scales: ~eps/n limit
    assert reveal_threshold(10_000, 1.0) == pytest.approx(1e-4, rel=0.01)
    assert reveal_threshold(100, 1.0) > reveal_threshold(10_000, 1.0)
    with pytest.raises(ConfigError):
        reveal_threshold(1, 1.0)
    with pytest.raises(ConfigError):
        reveal_threshold(4, 0.0)


def test_segment_bits_for():
    # threshold 8.0 at q=8 is 2048 quantized units -> 11 bits
    assert segment_bits_for(8.0, SPEC) == 11
    with pytest.raises(ConfigError):
        segment_bits_for(1e-9, SPEC)


def test_default_epsilon():
    assert default_epsilon(SPEC) == float(1 << 23)


def test_theorem_numerics_small():
    # sample variance of n-subsets averages (n-1)/n of the population,
    # the ratio under the square root of reveal_threshold
    rng = np.random.default_rng(1)
    pop = rng.normal(0.0, 2.0, 5000)
    pop_var = float(np.var(pop))
    n = 32
    idx = rng.integers(0, len(pop), size=(4000, n))
    sample_vars = np.var(pop[idx], axis=1)
    ratio = float(np.mean(sample_vars)) / pop_var
    assert ratio == pytest.approx((n - 1) / n, rel=0.02)
    assert reveal_threshold(n, 1.0) == pytest.approx(2.0 * (1.0 - math.sqrt((n - 1) / n)))


# -- adaptive threshold -------------------------------------------------------


def test_adaptive_threshold_examples():
    assert adaptive_threshold([0.4, 0.5, 0.6], 1.2, 3) == pytest.approx(0.6)
    assert adaptive_threshold([0.7] * 5, 1.0, 5) == pytest.approx(0.7)
    assert adaptive_threshold([0.4, 0.5], 1.2, 3) == math.inf  # warm-up


# -- the flagging loop ---------------------------------------------------------


def _agg(leaf: int, high_words: np.ndarray, n: int = 1) -> SubgroupAggregate:
    full = ParamVector((high_words.astype(np.uint64) << np.uint64(SPEC.low_bits)), SPEC)
    return SubgroupAggregate(
        leaf=leaf,
        revealed_high=ParamVector(high_words.astype(np.uint64), SPEC),
        survivor_count=n,
        full_sum=full,
        void=False,
    )


def _outlier_aggregates():
    # 26 subgroups at distance 1, one at distance 50 (single coordinate)
    aggs = [_agg(i, np.array([1], dtype=np.uint64)) for i in range(26)]
    aggs.append(_agg(26, np.array([50], dtype=np.uint64)))
    return aggs


def test_detect_flags_single_outlier_min_replacement():
    # the flagged entry drops to the benign floor, so the exit dispersion
    # reflects only the remaining set
    detector = Detector(DetectionConfig(expansion=1.2, window=5))
    detector.history = [0.5] * 5
    detector.round_index = 10
    record = detector.detect(_outlier_aggregates(), zeros(1, SPEC))
    assert record.threshold == pytest.approx(0.6)
    assert record.flagged == [26]
    # the entry dispersion against an independent oracle
    assert record.std_sequence[0] == pytest.approx(statistics.pstdev([1.0] * 26 + [50.0]))
    assert record.std_sequence[-1] == pytest.approx(0.0)
    # the exit dispersion is what lands in the history
    assert detector.history[-1] == pytest.approx(record.std_sequence[-1])


def test_detect_no_dispersion_no_flags():
    detector = Detector(DetectionConfig())
    detector.history = [0.5] * 5
    detector.round_index = 10
    aggs = [_agg(i, np.array([3], dtype=np.uint64)) for i in range(10)]
    record = detector.detect(aggs, zeros(1, SPEC))
    assert record.flagged == []
    assert record.std_sequence == [0.0]


def test_detect_warmup_disables_flagging():
    detector = Detector(DetectionConfig(window=5))
    record = detector.detect(_outlier_aggregates(), zeros(1, SPEC))
    assert record.threshold == math.inf
    assert record.flagged == []
    assert len(detector.history) == 1  # dispersion is still recorded


def test_detect_all_malicious_flags_everything():
    rng = np.random.default_rng(2)
    values = rng.integers(10, 500, 12)
    detector = Detector(DetectionConfig(expansion=1.2, window=3))
    detector.history = [0.001] * 3
    detector.round_index = 10
    aggs = [_agg(i, np.array([int(v)], dtype=np.uint64)) for i, v in enumerate(values)]
    record = detector.detect(aggs, zeros(1, SPEC))
    # dispersed hostile distances: the round is effectively abandoned, all
    # but the final survivor flagged, and the loop ends within G iterations
    assert len(record.flagged) == 11
    assert len(set(record.flagged)) == len(record.flagged)


def test_detect_min_threshold_floor():
    detector = Detector(DetectionConfig(window=1, min_threshold=0.5))
    detector.history = [0.0]
    detector.round_index = 10
    aggs = [_agg(i, np.array([1 if i == 0 else 0], dtype=np.uint64)) for i in range(9)]
    record = detector.detect(aggs, zeros(1, SPEC))
    assert record.threshold == 0.5
    assert record.flagged == []  # single-flip dispersion sits under the floor


def test_detect_tie_breaks_to_lowest_leaf():
    detector = Detector(DetectionConfig(window=1))
    detector.history = [0.001]
    detector.round_index = 10
    aggs = [
        _agg(0, np.array([5], dtype=np.uint64)),
        _agg(1, np.array([5], dtype=np.uint64)),
        _agg(2, np.array([0], dtype=np.uint64)),
    ]
    record = detector.detect(aggs, zeros(1, SPEC))
    assert record.flagged[0] == 0


def test_void_subgroups_not_scored():
    detector = Detector(DetectionConfig(window=1))
    detector.history = [1000.0]
    detector.round_index = 10
    aggs = _outlier_aggregates()
    aggs[26].void = True
    record = detector.detect(aggs, zeros(1, SPEC))
    assert 26 not in record.distances
    assert record.flagged == []


# -- the distance measure ---------------------------------------------------------


def test_distance_zero_for_noop_subgroup():
    model = quantize_vector(np.linspace(-3, 3, 16), SPEC)
    n = 5
    summed = ParamVector((model.values * np.uint64(n)) & np.uint64(SPEC.word_mask), SPEC)
    agg = SubgroupAggregate(
        leaf=0,
        revealed_high=ParamVector(summed.values >> np.uint64(SPEC.low_bits), SPEC),
        survivor_count=n,
        full_sum=summed,
    )
    assert subgroup_distance(agg, model) == 0.0


def test_distance_translation_invariant():
    # shifting every user's update and the model by one constant vector
    # (a multiple of one high-word unit, within headroom) leaves D unchanged
    rng = np.random.default_rng(3)
    model_real = rng.uniform(-2, 2, 8)
    delta_real = rng.uniform(-40, 40, 8)
    n = 4
    shift_real = np.full(8, 256.0 * 3)  # 3 high-word units at k=16, q=8

    def build(model_vals, extra):
        model = quantize_vector(model_vals, SPEC)
        member_sum = quantize_vector(model_vals * n + extra, SPEC)
        agg = SubgroupAggregate(
            leaf=0,
            revealed_high=ParamVector(member_sum.values >> np.uint64(SPEC.low_bits), SPEC),
            survivor_count=n,
            full_sum=member_sum,
        )
        return subgroup_distance(agg, model)

    base = build(model_real, delta_real)
    shifted = build(model_real + shift_real, delta_real)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_distance_negative_coordinates_wrap_safely():
    model = quantize_vector([-200.0], SPEC)
    n = 3
    summed = quantize_vector([-600.0], SPEC)
    agg = SubgroupAggregate(
        leaf=0,
        revealed_high=ParamVector(summed.values >> np.uint64(SPEC.low_bits), SPEC),
        survivor_count=n,
        full_sum=summed,
    )
    assert subgroup_distance(agg, model) <= 1.0  # truncation only


def test_scale_sensitivity_argmax():
    # one subgroup amplified by N/(eta*G) becomes the farthest in >= 99%
    # of trials at converged-phase variance levels
    spec = SegmentSpec(word_bits=32, frac_bits=8, low_bits=11)
    n_users, groups, n = 54, 6, 9
    gamma = n_users / (1.0 * groups)
    hits = 0
    trials = 200
    for trial in range(trials):
        rng = np.random.default_rng(trial)
        model = quantize_vector(rng.uniform(-1, 1, 32), spec)
        model_real = np.array([float(v) for v in rng.uniform(-1, 1, 32)])
        distances = []
        for g in range(groups):
            deltas = rng.normal(0.0, 0.05, size=(n, 32))
            if g == 0:
                deltas = deltas + gamma * rng.uniform(-1, 1, 32)
            member_sum = quantize_vector(model_real * n + deltas.sum(axis=0), spec)
            agg = SubgroupAggregate(
                leaf=g,
                revealed_high=ParamVector(member_sum.values >> np.uint64(spec.low_bits), spec),
                survivor_count=n,
                full_sum=member_sum,
            )
            distances.append(subgroup_distance(agg, quantize_vector(model_real, spec)))
        hits += int(np.argmax(distances)) == 0
    assert hits / trials >= 0.99


# -- metrics -------------------------------------------------------------------


def test_metrics_examples():
    rounds = [
        MetricsRound(True, 27, {1}, {1}, attackers_active=2, attackers_in_flagged=2)
        for _ in range(5)
    ]
    m = compute_metrics(rounds)
    assert m["DR"] == 1.0 and m["CR"] == 1.0 and m["FPR"] == 0.0

    rounds = [
        MetricsRound(True, 27, {1, 2}, {1}, attackers_active=10, attackers_in_flagged=9)
    ]
    assert compute_metrics(rounds)["CR"] == pytest.approx(0.9)

    rounds = [MetricsRound(True, 27, set(), {4}, 0, 0)]
    assert compute_metrics(rounds)["FPR"] == pytest.approx(1 / 27)
