"""Workload generation: benign updates, model-replacement attackers, and
attack schedules.

The desk-scale task is softmax regression on Gaussian blobs with a
feature-pattern backdoor: inputs whose first trigger features are forced
to a fixed value should classify as the attacker's target class.  Class
centers are arranged so a clean model maps triggered inputs away from the
target class, which keeps the backdoor measurable against chance.

Attackers construct x_a = X_t + scale * (X_target - X_t) with
scale = N / (eta * |attackers|) spread over the schedule; the
distance-regularized variant of the attack is approximated by capping
the norm of the injected offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fixedpoint import ParamVector, SegmentSpec, quantize_vector


# ---------------------------------------------------------------------------
# toy classification task
# ---------------------------------------------------------------------------


N_CLASSES = 10  # classes of the toy task
N_FEATURES = 32
SAMPLES_PER_USER = 8  # training samples per user
TEST_SIZE = 1000
TRIGGER_DIMS = (0, 1, 2, 3)  # the features the trigger sets
TRIGGER_VALUE = 3.0  # the trigger features' value, also class 2's center there
TARGET_CLASS = 7  # the class the backdoor sends triggered inputs to
BACKDOOR_SAMPLES = 256  # clean samples the attacker also triggers and relabels


@dataclass
class ToyTask:
    """Softmax regression on Gaussian blobs with a backdoor trigger."""

    centers: np.ndarray  # (C, F)
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    user_slices: list[slice]

    @property
    def model_dim(self) -> int:
        return N_CLASSES * N_FEATURES + N_CLASSES

    @staticmethod
    def generate(
        seed: int,
        n_users: int,
        *,
        noise: float = 0.6,
        classes_per_user: int | None = None,
    ) -> "ToyTask":
        """Blob data with a trigger that collides with class 2's region.

        The trigger pattern sits on class 2's center and away from
        ``TARGET_CLASS``'s, so a clean model sends triggered inputs to class
        2 (backdoor accuracy ~0) while a backdoored model must cede part of
        class 2, which makes model replacement cost main-task accuracy.
        ``classes_per_user`` < ``N_CLASSES`` gives non-iid local data.
        """
        rng = np.random.default_rng(seed)
        centers = rng.normal(0.0, 1.0, size=(N_CLASSES, N_FEATURES)) * 2.5
        centers[TARGET_CLASS, TRIGGER_DIMS] = -3.0
        centers[2, TRIGGER_DIMS] = TRIGGER_VALUE

        def draw(count: int, classes=None):
            pool = np.arange(N_CLASSES) if classes is None else np.asarray(classes)
            ys = pool[rng.integers(0, len(pool), size=count)]
            xs = centers[ys] + rng.normal(0.0, noise, size=(count, N_FEATURES))
            return xs, ys

        if classes_per_user is None:
            train_x, train_y = draw(n_users * SAMPLES_PER_USER)
        else:
            xs, ys = [], []
            for u in range(n_users):
                mine = rng.choice(N_CLASSES, size=classes_per_user, replace=False)
                x, y = draw(SAMPLES_PER_USER, classes=mine)
                xs.append(x)
                ys.append(y)
            train_x, train_y = np.vstack(xs), np.concatenate(ys)
        test_x, test_y = draw(TEST_SIZE)
        slices = [slice(u * SAMPLES_PER_USER, (u + 1) * SAMPLES_PER_USER) for u in range(n_users)]
        return ToyTask(
            centers=centers, train_x=train_x, train_y=train_y, test_x=test_x, test_y=test_y, user_slices=slices
        )

    # -- model helpers ------------------------------------------------------

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = theta[: N_CLASSES * N_FEATURES].reshape(N_CLASSES, N_FEATURES)
        b = theta[N_CLASSES * N_FEATURES :]
        return w, b

    def logits(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        w, b = self.unpack(theta)
        return x @ w.T + b

    def loss(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        z = self.logits(theta, x)
        z = z - z.max(axis=1, keepdims=True)
        log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return float(-log_p[np.arange(len(y)), y].mean())

    def grad(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        z = self.logits(theta, x)
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        p /= len(y)
        gw = p.T @ x
        gb = p.sum(axis=0)
        return np.concatenate([gw.ravel(), gb])

    def local_update(self, theta: np.ndarray, user: int, lr: float, weight_decay: float = 0.0) -> np.ndarray:
        """One gradient step on the user's own data.  Optional decay keeps
        converged weights stationary (separable data otherwise grows
        softmax weights without bound)."""
        sl = self.user_slices[user]
        x, y = self.train_x[sl], self.train_y[sl]
        return theta - lr * (self.grad(theta, x, y) + weight_decay * theta)

    def apply_trigger(self, x: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[:, TRIGGER_DIMS] = TRIGGER_VALUE
        return out

    def evaluate(self, theta: np.ndarray) -> tuple[float, float]:
        """(main accuracy, backdoor accuracy).

        Backdoor accuracy is the fraction of triggered test inputs, drawn
        from non-target classes, that the model sends to the target class.
        """
        pred = self.logits(theta, self.test_x).argmax(axis=1)
        main = float((pred == self.test_y).mean())
        keep = self.test_y != TARGET_CLASS
        trig = self.apply_trigger(self.test_x[keep])
        bd_pred = self.logits(theta, trig).argmax(axis=1)
        backdoor = float((bd_pred == TARGET_CLASS).mean())
        return main, backdoor

    def train_backdoor_target(
        self,
        theta: np.ndarray,
        *,
        steps: int = 60,
        lr: float = 0.5,
        seed: int = 0,
        cap: float | None = None,
        users: list[int] | None = None,
    ) -> np.ndarray:
        """Attacker-side target model: fit clean data plus triggered data
        relabeled to the target class, optionally capping the distance
        moved from ``theta``.  With ``users`` the attacker trains only on
        the pooled partitions of the users it controls."""
        rng = np.random.default_rng(seed)
        if users is not None:
            pool = np.concatenate([np.arange(s.start, s.stop) for s in (self.user_slices[u] for u in users)])
            idx = pool[rng.integers(0, len(pool), size=min(BACKDOOR_SAMPLES, 4 * len(pool)))]
        else:
            idx = rng.integers(0, len(self.train_x), size=BACKDOOR_SAMPLES)
        clean_x, clean_y = self.train_x[idx], self.train_y[idx]
        trig_x = self.apply_trigger(clean_x)
        trig_y = np.full(len(trig_x), TARGET_CLASS)
        x = np.vstack([clean_x, trig_x])
        y = np.concatenate([clean_y, trig_y])
        out = theta.copy()
        for _ in range(steps):
            out -= lr * self.grad(out, x, y)
        if cap is not None:
            offset = out - theta
            norm = float(np.linalg.norm(offset))
            if norm > cap:
                out = theta + offset * (cap / norm)
        return out


# ---------------------------------------------------------------------------
# benign updates
# ---------------------------------------------------------------------------


def benign_update_synthetic(
    center: np.ndarray, spec: SegmentSpec, sigma: float, rng: np.random.Generator
) -> ParamVector:
    """x_u = center + Normal(0, sigma^2) per coordinate, where ``center`` is
    the decoded model X_t plus this round's drift.  ``center`` is shared by
    every user of a round and is left as it is."""
    if sigma <= 0:
        return quantize_vector(center, spec)
    noise = rng.normal(0.0, sigma, size=center.shape)
    noise += center
    return quantize_vector(noise, spec)


def benign_update_task(
    theta: np.ndarray, spec: SegmentSpec, task: ToyTask, user: int, lr: float, weight_decay: float = 0.0
) -> ParamVector:
    """One local step from the decoded model ``theta``, quantized."""
    return quantize_vector(task.local_update(theta, user, lr, weight_decay=weight_decay), spec)


# ---------------------------------------------------------------------------
# attacker updates and schedules
# ---------------------------------------------------------------------------


def attacker_update(
    theta: np.ndarray,
    spec: SegmentSpec,
    target: np.ndarray,
    *,
    scale: float,
    cap: float | None = None,
) -> ParamVector:
    """x_a = X_t + scale * (target - X_t) from the decoded model ``theta``,
    offset norm optionally capped."""
    offset = scale * (target - theta)
    if cap is not None:
        norm = float(np.linalg.norm(offset))
        if norm > cap:
            offset *= cap / norm
    return quantize_vector(theta + offset, spec)


def replacement_scale(n_users: int, eta: float, n_attackers: int) -> float:
    """Amplification needed for |attackers| cooperating users to steer the
    aggregate onto their target in one round: N / (eta * |attackers|)."""
    if n_attackers < 1:
        raise ConfigError("need at least one attacker")
    return n_users / (eta * n_attackers)


STRATEGIES = ("one_shot", "continuous", "ever_present")


@dataclass
class AttackPlan:
    """Which users attack, when, and at what per-round scale."""

    attacker_ids: tuple[int, ...]
    strategy: str = "one_shot"
    start_round: int = 0
    duration: int = 1  # continuous window length
    cap: float | None = None  # L2 budget on the injected offset
    target_refresh: bool = False  # retrain the target model each round

    def validate(self, n_users: int, total_rounds: int) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if not self.attacker_ids:
            raise ConfigError("attack plan without attackers")
        if len(set(self.attacker_ids)) != len(self.attacker_ids):
            raise ConfigError("duplicate attacker ids")
        if len(self.attacker_ids) > n_users // 4:
            raise ConfigError("attackers must remain a small fraction of users")
        if not (0 <= self.start_round < total_rounds):
            raise ConfigError("attack start outside the run")
        if self.strategy == "continuous" and self.duration < 1:
            raise ConfigError("continuous attacks need duration >= 1")
        if self.cap is not None and not self.cap >= 0:
            raise ConfigError("the attack cap must be >= 0")

    def is_active(self, round_index: int) -> bool:
        t, s = round_index, self.start_round
        if self.strategy == "one_shot":
            return t == s
        if self.strategy == "continuous":
            return s <= t < s + self.duration
        return t >= s

    def scale_for(self, round_index: int, n_users: int, eta: float, n_leaves: int) -> float:
        """Per-round amplification; continuous attacks split the one-shot
        scale across the window but never go below the effectiveness floor
        N / (eta * leaves)."""
        gamma = replacement_scale(n_users, eta, len(self.attacker_ids))
        if self.strategy == "continuous":
            return max(gamma / self.duration, n_users / (eta * n_leaves))
        return gamma
