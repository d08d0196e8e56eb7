import numpy as np
import pytest
from random import Random

from conftest import plaintext_sum, random_inputs, run_plain_round

from secaggsim.errors import UnrecoverableRoundError
from secaggsim.fixedpoint import SegmentSpec
from secaggsim.orgtree import TreeConfig

SPEC = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)


def run_baseline_round(inputs: dict, *, threshold: int, seed: int, dropouts: set[int] | None = None):
    """One full-pairwise round: the engine over a one-leaf tree whose ring
    covers every user."""
    n = len(inputs)
    tree = TreeConfig(height=0, degree=2, neighbor_radius=n // 2, share_threshold=threshold)
    return run_plain_round(n, tree, SPEC, inputs, seed=seed, pre_drop=dropouts)


def test_two_users_degenerate():
    inputs = random_inputs(2, 8, SPEC, seed=1)
    result, *_ = run_baseline_round(inputs, threshold=2, seed=1)
    assert np.array_equal(result.total.values, plaintext_sum(inputs, 8, SPEC))


def test_ten_users_exact_sum():
    inputs = random_inputs(10, 16, SPEC, seed=2)
    result, server, _, _ = run_baseline_round(inputs, threshold=4, seed=2)
    assert np.array_equal(result.total.values, plaintext_sum(inputs, 16, SPEC))
    assert server.online_users == list(range(10))
    assert result.n_eff == 10


def test_per_user_prg_count_scales_with_population():
    # baseline: N-1 pairwise masks + 1 self mask per user
    for n in (8, 16, 24):
        inputs = random_inputs(n, 4, SPEC, seed=n)
        *_, counters = run_baseline_round(inputs, threshold=2, seed=n)
        assert counters.per_user_prg(n) == n


def test_single_dropout_exact():
    inputs = random_inputs(10, 8, SPEC, seed=3)
    result, *_ = run_baseline_round(inputs, threshold=3, seed=3, dropouts={4})
    survivors = {u: x for u, x in inputs.items() if u != 4}
    assert np.array_equal(result.total.values, plaintext_sum(survivors, 8, SPEC))


def test_fifteen_percent_dropouts_and_recovery_cost():
    n = 40
    inputs = random_inputs(n, 8, SPEC, seed=4)
    drops = set(Random(4).sample(range(n), 6))  # 15%
    result, *_, counters = run_baseline_round(inputs, threshold=3, seed=4, dropouts=drops)
    survivors = {u: x for u, x in inputs.items() if u not in drops}
    assert np.array_equal(result.total.values, plaintext_sum(survivors, 8, SPEC))
    # one cancellation per (dropout, survivor) pair: d * (N - d)
    assert counters.mask_cancellations == len(drops) * (n - len(drops))


def test_recovery_cost_tree_vs_baseline():
    # per-dropout cancellations: O(kappa + height) for the tree protocol
    # versus O(N) for the baseline; they do not depend on t, and t = 2 keeps
    # the leaf that holds two of the five drops recoverable
    n = 36
    inputs = random_inputs(n, 8, SPEC, seed=5)
    drops = set(Random(5).sample(range(n), 5))

    *_, counters_base = run_baseline_round(inputs, threshold=2, seed=5, dropouts=drops)
    tree = TreeConfig(height=2, degree=3, neighbor_radius=1, share_threshold=2)
    _, _, _, counters_tree = run_plain_round(n, tree, SPEC, inputs, seed=5, pre_drop=drops)

    per_drop_base = counters_base.mask_cancellations / len(drops)
    per_drop_tree = counters_tree.mask_cancellations / len(drops)
    assert per_drop_base >= n - len(drops) - 1
    assert per_drop_tree <= 2 * (tree.neighbor_radius + tree.height) + 2
    assert per_drop_tree < per_drop_base / 3


def test_zero_dropout_recovery_parity():
    n = 20
    inputs = random_inputs(n, 8, SPEC, seed=6)
    *_, counters_base = run_baseline_round(inputs, threshold=2, seed=6)
    tree = TreeConfig(height=2, degree=2, neighbor_radius=1, share_threshold=2)
    _, _, _, counters_tree = run_plain_round(n, tree, SPEC, inputs, seed=6)
    assert counters_base.mask_cancellations == counters_tree.mask_cancellations == 0
    # with no dropouts both servers only remove one self mask per survivor
    assert counters_base.prg_server == counters_tree.prg_server == n


def test_cross_protocol_identical_sums():
    n = 30
    inputs = random_inputs(n, 12, SPEC, seed=7)
    drops = set(Random(7).sample(range(n), 4))
    base, *_ = run_baseline_round(inputs, threshold=3, seed=7, dropouts=drops)
    tree = TreeConfig(height=2, degree=2, neighbor_radius=2, share_threshold=3)
    tree_result, *_ = run_plain_round(n, tree, SPEC, inputs, seed=7, pre_drop=drops)
    assert np.array_equal(base.total.values, tree_result.total.values)


def test_unrecoverable_when_too_few_survive():
    inputs = random_inputs(6, 4, SPEC, seed=8)
    with pytest.raises(UnrecoverableRoundError):
        run_baseline_round(inputs, threshold=5, seed=8, dropouts={0, 1, 2})
