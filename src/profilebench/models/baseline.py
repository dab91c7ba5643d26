"""Multinomial logistic regression over per-game aggregate vectors.

A deliberately plain model: standardized features, seeded mini-batch
gradient descent, L2 penalty. Its job is to show where non-sequential
aggregates plateau, not to compete with the sequence models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from profilebench.errors import ConfigInvalid, DegenerateData, NonFiniteLoss
from profilebench.hashing import mix_seed


@dataclass(frozen=True)
class BaselineConfig:
    learning_rate: float = 0.25
    batch_size: int = 128
    epochs: int = 300
    l2: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ConfigInvalid("baseline learning rate, batch size, epochs must be positive")
        if self.l2 < 0:
            raise ConfigInvalid(f"l2 must be >= 0: {self.l2}")


@dataclass
class BaselineModel:
    W: np.ndarray  # (K, D)
    b: np.ndarray  # (K,)
    mean: np.ndarray
    std: np.ndarray
    n_classes: int

    def logits(self, X: np.ndarray) -> np.ndarray:
        Xs = (np.asarray(X, dtype=float) - self.mean) / self.std
        return Xs @ self.W.T + self.b

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.logits(X).argmax(axis=-1)


def train_baseline(
    X: np.ndarray, y: np.ndarray, n_classes: int, config: BaselineConfig = BaselineConfig()
) -> BaselineModel:
    config.validate()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0 or (y == y[0]).all():
        raise DegenerateData("need at least 2 classes to fit the baseline")
    n, d = X.shape

    std = X.std(axis=0)
    constant = std <= 1e-12
    if constant.any():
        cols = np.flatnonzero(constant)[:8].tolist()
        if config.l2 == 0:
            raise DegenerateData(
                f"constant feature columns {cols} with no regularization"
            )
        warnings.warn(f"constant feature columns {cols}; they carry no signal")
    mean = X.mean(axis=0)
    std = np.where(constant, 1.0, std)
    Xs = (X - mean) / std

    rng = np.random.Generator(np.random.PCG64(mix_seed(config.seed, "baseline")))
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for s in range(0, n, config.batch_size):
            idx = order[s : s + config.batch_size]
            xb, yb = Xs[idx], y[idx]
            z = xb @ W.T + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(idx)), yb] -= 1.0
            p /= len(idx)
            gW = p.T @ xb + config.l2 * W
            gb = p.sum(axis=0)
            W -= config.learning_rate * gW
            b -= config.learning_rate * gb
        if not np.all(np.isfinite(W)):
            raise NonFiniteLoss(f"baseline diverged at epoch {epoch}")
    return BaselineModel(W=W, b=b, mean=mean, std=std, n_classes=n_classes)
