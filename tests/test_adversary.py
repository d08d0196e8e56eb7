import numpy as np
import pytest

from secaggsim.adversary import (
    AttackPlan,
    ToyTask,
    attacker_update,
    benign_update_synthetic,
    benign_update_task,
    replacement_scale,
)
from secaggsim.errors import ConfigError
from secaggsim.fixedpoint import SegmentSpec, dequantize_vector, quantize_vector, zeros

SPEC = SegmentSpec(word_bits=32, frac_bits=8, low_bits=16)


def make_task(n_users=20, seed=0):
    return ToyTask.generate(seed, n_users)


# -- benign updates -----------------------------------------------------------


def test_benign_synthetic_zero_noise_exact():
    model = quantize_vector(np.linspace(-1, 1, 8), SPEC)
    drift = np.full(8, 0.25)
    out = benign_update_synthetic(dequantize_vector(model) + drift, SPEC, 0.0, np.random.default_rng(0))
    assert np.allclose(dequantize_vector(out), dequantize_vector(model) + 0.25)


def test_benign_synthetic_mean():
    model = zeros(4, SPEC)
    drift = np.array([0.5, -0.5, 0.0, 1.0])
    sigma = 0.3
    rng = np.random.default_rng(1)
    acc = np.zeros(4)
    n = 10_000
    for _ in range(n):
        acc += dequantize_vector(benign_update_synthetic(dequantize_vector(model) + drift, SPEC, sigma, rng))
    err = np.abs(acc / n - drift)
    assert np.all(err <= 3 * sigma / np.sqrt(n) + 1.0 / SPEC.scale)


def test_benign_task_loss_decreases():
    task = make_task()
    theta = np.zeros(task.model_dim)
    losses = [task.loss(theta, task.train_x, task.train_y)]
    model = zeros(task.model_dim, SPEC)
    for _ in range(10):
        decoded = dequantize_vector(model)
        updates = [dequantize_vector(benign_update_task(decoded, SPEC, task, u, lr=0.5)) for u in range(20)]
        theta = np.mean(updates, axis=0)
        model = quantize_vector(theta, SPEC)
        losses.append(task.loss(theta, task.train_x, task.train_y))
    assert all(b < a for a, b in zip(losses, losses[1:]))


# -- attacker construction -------------------------------------------------------


def test_attacker_update_example():
    model = zeros(1, SPEC)
    target = np.array([10.0])
    scale = replacement_scale(1000, 1.0, 10)
    assert scale == 100.0
    out = attacker_update(dequantize_vector(model), SPEC, target, scale=scale)
    assert dequantize_vector(out)[0] == pytest.approx(1000.0)


def test_attacker_noop_when_target_equals_model():
    model = quantize_vector([1.5, -2.0], SPEC)
    out = attacker_update(dequantize_vector(model), SPEC, dequantize_vector(model), scale=50.0)
    assert out == model


def test_attacker_cap_limits_offset():
    model = zeros(4, SPEC)
    out = attacker_update(dequantize_vector(model), SPEC, np.full(4, 10.0), scale=100.0, cap=2.0)
    assert np.linalg.norm(dequantize_vector(out)) == pytest.approx(2.0, abs=0.01)


def test_model_replacement_identity():
    """No-op benign users plus cooperating attackers drive the next global
    model onto the target, to quantization precision."""
    n_users, n_attackers, eta = 200, 4, 1.0
    rng = np.random.default_rng(5)
    model = quantize_vector(rng.uniform(-1, 1, 16), SPEC)
    target = rng.uniform(-1, 1, 16)
    scale = replacement_scale(n_users, eta, n_attackers)
    benign = dequantize_vector(model)
    updates = [benign] * (n_users - n_attackers)
    updates += [dequantize_vector(attacker_update(benign, SPEC, target, scale=scale))] * n_attackers
    new_model = benign + (eta / n_users) * sum(u - benign for u in updates)
    assert np.allclose(new_model, target, atol=n_attackers * 2.0 ** (-SPEC.frac_bits - 1) * scale / 50)


# -- schedules ----------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ConfigError):
        AttackPlan(attacker_ids=(), strategy="one_shot").validate(100, 10)
    with pytest.raises(ConfigError):
        AttackPlan(attacker_ids=(0,), strategy="sometimes").validate(100, 10)
    with pytest.raises(ConfigError):
        AttackPlan(attacker_ids=tuple(range(50)), strategy="one_shot").validate(100, 10)
    with pytest.raises(ConfigError):
        AttackPlan(attacker_ids=(0,), start_round=12).validate(100, 10)


def test_one_shot_schedule():
    plan = AttackPlan(attacker_ids=(0, 1), strategy="one_shot", start_round=5)
    assert [plan.is_active(t) for t in range(8)] == [False] * 5 + [True, False, False]
    assert plan.scale_for(5, 100, 1.0, 9) == pytest.approx(50.0)


def test_continuous_schedule_telescopes():
    # while the floor 100/9 stays below gamma/5 = 20, the per-round scale
    # sums back to the one-shot scale
    plan = AttackPlan(attacker_ids=(0,), strategy="continuous", start_round=2, duration=5)
    active = [t for t in range(12) if plan.is_active(t)]
    assert active == [2, 3, 4, 5, 6]
    per_round = plan.scale_for(3, 100, 1.0, 9)
    assert per_round * 5 == pytest.approx(replacement_scale(100, 1.0, 1))


def test_continuous_schedule_floor():
    plan = AttackPlan(attacker_ids=tuple(range(20)), strategy="continuous", start_round=0, duration=5)
    # gamma/5 = 100/(1*20*5) = 1, floor = 100/9 dominates
    assert plan.scale_for(0, 100, 1.0, 9) == pytest.approx(100 / 9)


def test_ever_present_schedule():
    plan = AttackPlan(attacker_ids=(0,), strategy="ever_present", start_round=0)
    assert all(plan.is_active(t) for t in range(30))
    assert plan.scale_for(11, 100, 1.0, 9) == pytest.approx(100.0)


# -- task evaluation -------------------------------------------------------------------


def test_eval_untrained_model_chance_level():
    task = make_task()
    main, backdoor = task.evaluate(np.zeros(task.model_dim))
    assert 0.03 <= main <= 0.25  # argmax of equal logits ~ one class share


def test_eval_backdoor_fixture():
    # a locally trained backdoor model scores high on triggered inputs
    task = make_task()
    theta = np.zeros(task.model_dim)
    for _ in range(3):
        theta = task.local_update(theta, 0, lr=0.5)
    backdoored = task.train_backdoor_target(theta, steps=80, lr=0.5, seed=1)
    main, backdoor = task.evaluate(backdoored)
    assert backdoor > 0.8
    assert main > 0.5


def test_eval_clean_model_backdoor_near_chance():
    task = make_task()
    theta = np.zeros(task.model_dim)
    for _ in range(60):
        grads = [task.local_update(theta, u, lr=0.5) for u in range(20)]
        theta = np.mean(grads, axis=0)
    main, backdoor = task.evaluate(theta)
    assert main > 0.85
    assert backdoor < 0.1  # trigger points away from the target class
