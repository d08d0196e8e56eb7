"""Canonical scenario presets.

These encode tuned operating points for the standard experiments: the
desk-scale detection study (243 users, 27 subgroups) and the
exactness/benchmark grids.  Scripts, the benchmark and the acceptance
suite build from here so the numbers stay in one place.  The
ever-present attack study (attack from round zero on a slow task, with a
contracting threshold expansion) is kept only as
``configs/ever_present.json``.

The detection study reveals high words of 2 real units (12 fractional
bits, low segment of 13 bits), which a converging-phase amplified attack
crosses by whole words while converged benign updates flip at most a
few boundary coordinates.
"""

from __future__ import annotations

from .adversary import AttackPlan
from .simulation import DetectionSettings, ScenarioConfig, SyntheticWorkload, TaskWorkload


def converging_attack_config(
    seed: int,
    n_attackers: int = 0,
    strategy: str = "one_shot",
    *,
    rounds: int = 18,
    detection_enabled: bool = True,
) -> ScenarioConfig:
    """243 users, 27 subgroups, toy task, attack in the converged phase.

    One-shot attacks hit the second-to-last round; continuous attacks run
    the last five rounds before it, at the per-round effectiveness floor
    when the split scale would drop below it.
    """
    cfg = ScenarioConfig(
        n_users=243,
        rounds=rounds,
        mode="toy_task",
        word_bits=32,
        frac_bits=12,
        tree_height=3,
        tree_degree=3,
        neighbor_radius=2,
        share_threshold=3,
        inter_mask_margin_bits=9,
        detection=DetectionSettings(
            enabled=detection_enabled,
            expansion=1.2,
            window=5,
            warmup_rounds=10,
            low_bits_override=13,
            min_threshold=0.25,
        ),
        task=TaskWorkload(
            local_lr=0.3,
            lr_decay=0.8,
            noise=1.0,
            classes_per_user=3,
            attacker_steps=150,
            attacker_lr=1.0,
        ),
        seed=seed,
    )
    if n_attackers:
        if strategy == "one_shot":
            start, duration = rounds - 2, 1
        else:
            start, duration = rounds - 6, 5
        cfg.attack = AttackPlan(
            attacker_ids=tuple(range(n_attackers)),
            strategy=strategy,
            start_round=start,
            duration=duration,
        )
    return cfg


def exactness_config(
    seed: int,
    n_users: int,
    tree_height: int,
    tree_degree: int,
    *,
    vector_len: int = 24,
    dropout_rate: float = 0.0,
    protocol: str = "tree",
    share_threshold: int = 2,
) -> ScenarioConfig:
    """Single-round aggregation scenarios for exactness and counters."""
    return ScenarioConfig(
        n_users=n_users,
        rounds=1,
        mode="synthetic",
        protocol=protocol,
        tree_height=tree_height,
        tree_degree=tree_degree,
        neighbor_radius=2,
        share_threshold=share_threshold,
        dropout_rate=dropout_rate,
        detection=DetectionSettings(enabled=False, low_bits_override=16),
        synthetic=SyntheticWorkload(vector_len=vector_len),
        seed=seed,
    )
