"""Multinomial logistic regression over per-game aggregate vectors.

A deliberately plain model: standardized features, seeded mini-batch
gradient descent at learning rate 0.25 in batches of 128, L2 penalty 1e-4
(`LEARNING_RATE`, `BATCH_SIZE`, `L2`). Its job is to show where
non-sequential aggregates plateau, not to compete with the sequence models.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from profilebench.errors import DegenerateData, NonFiniteLoss
from profilebench.hashing import mix_seed

LEARNING_RATE = 0.25
BATCH_SIZE = 128
L2 = 1e-4


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


def train_baseline(
    X: np.ndarray, y: np.ndarray, n_classes: int, seed: int, epochs: int = 300
) -> BaselineModel:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if y.size == 0 or (y == y[0]).all():
        raise DegenerateData("need at least 2 classes to fit the baseline")
    n, d = X.shape

    std = X.std(axis=0)
    constant = std <= 1e-12
    if constant.any():
        cols = np.flatnonzero(constant)[:8].tolist()
        warnings.warn(f"constant feature columns {cols}; they carry no signal")
    mean = X.mean(axis=0)
    std = np.where(constant, 1.0, std)
    Xs = (X - mean) / std

    rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "baseline")))
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, BATCH_SIZE):
            idx = order[s : s + BATCH_SIZE]
            xb, yb = Xs[idx], y[idx]
            z = xb @ W.T + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(idx)), yb] -= 1.0
            p /= len(idx)
            gW = p.T @ xb + L2 * W
            gb = p.sum(axis=0)
            W -= LEARNING_RATE * gW
            b -= LEARNING_RATE * gb
        if not np.all(np.isfinite(W)):
            raise NonFiniteLoss(f"baseline diverged at epoch {epoch}")
    return BaselineModel(W=W, b=b, mean=mean, std=std, n_classes=n_classes)
