"""Training loop: joint three-head loss, BPTT, Adam, early stopping.

The loss is cross-entropy on the main head plus weighted cross-entropy on
the alignment and motivation heads; all three backpropagate through the
shared pooled vector and both LSTM directions. One batcher,
`WindowBatcher`, serves training, validation and scoring; its batches
share a window length, so no padding or masking is ever needed, and it
builds each batch's dense X from the games' row store. A
`TrainConfig` is checked once, when it is built, so the loop and each
optimizer step take it as valid.

The recipe's fixed values are module constants: the alignment and
motivation heads weigh 0.5 each (`LAMBDA_ALIGN`, `LAMBDA_MOTIV`), each
step clips the gradient to norm 5.0 (`CLIP_NORM`), and Adam runs with
betas 0.9 and 0.999 and eps 1e-8 (`ADAM_BETA1`, `ADAM_BETA2`,
`ADAM_EPS`). The seed is not a config value: `train` and `train_step`
take it, one per ladder row.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from profilebench.errors import ConfigInvalid, DimensionMismatch, EmptySplit, NonFiniteLoss, SpaceMismatch
from profilebench.features import GameRows, RowStore, SequenceSample
from profilebench.hashing import mix_seed
from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    Checkpoint,
)
from profilebench.models.lstm import (
    attention_pool_backward_batch,
    attention_pool_batch,
    bilstm_backward_batch,
    bilstm_forward_batch,
    last_state_pool_backward_batch,
    last_state_pool_batch,
    multi_pool_backward_batch,
    multi_pool_batch,
)
from profilebench.taxonomy import LabelSpace, LabelSpaceKind, all_profiles


LAMBDA_ALIGN = 0.5
LAMBDA_MOTIV = 0.5
CLIP_NORM = 5.0
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 50
    dropout: float = 0.2
    patience: int = 8
    """The epoch loop stops after `patience + 1` consecutive epochs whose
    validation accuracy does not beat the best so far: 0 stops at the
    first such epoch, the default 8 after nine."""
    hidden: int = 64

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigInvalid(f"learning rate must be positive: {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigInvalid("batch_size and epochs must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigInvalid(f"dropout must lie in [0, 1): {self.dropout}")
        if self.patience < 0:
            raise ConfigInvalid(f"patience must be >= 0: {self.patience}")
        if self.hidden < 1:
            raise ConfigInvalid(f"hidden must be >= 1: {self.hidden}")


def forward_batch(
    X: np.ndarray, ckpt: Checkpoint, dropout_mask: np.ndarray | None = None, cache: bool = True
) -> tuple[dict[str, np.ndarray], dict]:
    """Forward pass over a (B, T, D) batch; returns per-head logits + cache.

    With cache=False (scoring) neither the LSTM nor the pooling keeps a
    backward cache: "lstm" and "pool" are None.
    """
    p = ckpt.params
    states, lstm_cache = bilstm_forward_batch(
        X, (p["fwd_W"], p["fwd_R"], p["fwd_b"]), (p["bwd_W"], p["bwd_R"], p["bwd_b"]), cache
    )
    logits, pool_cache, pooled = pool_and_heads(states, ckpt, dropout_mask, cache)
    return logits, {"states": states, "lstm": lstm_cache, "pool": pool_cache, "pooled": pooled}


def pool_and_heads(
    states: np.ndarray, ckpt: Checkpoint, dropout_mask: np.ndarray | None = None, cache: bool = True
) -> tuple[dict[str, np.ndarray], dict | None, np.ndarray]:
    """Per-head logits from (B, T, 2H) LSTM states, with the pooling cache
    (None when `cache` is False) and the (masked) pooled vector the
    backward pass reads."""
    p = ckpt.params
    if ckpt.pooling == POOL_MULTI:
        pooled, pool_cache = multi_pool_batch(states, cache)
    elif ckpt.pooling == POOL_ATTENTION:
        pooled, pool_cache = attention_pool_batch(states, p["attn_proj"], p["attn_ctx"])
        pool_cache = pool_cache if cache else None
    else:
        pooled = last_state_pool_batch(states, ckpt.hidden)
        pool_cache = None
    if dropout_mask is not None:
        pooled = pooled * dropout_mask
    logits = {
        "profile": pooled @ p["head_profile_W"].T + p["head_profile_b"],
        "align": pooled @ p["head_align_W"].T + p["head_align_b"],
        "motiv": pooled @ p["head_motiv_W"].T + p["head_motiv_b"],
    }
    return logits, pool_cache, pooled


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ce_and_grad(logits: np.ndarray, y: np.ndarray, weight: float) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. logits."""
    B = logits.shape[0]
    lsm = log_softmax(logits)
    loss = -lsm[np.arange(B), y].mean() * weight
    grad = softmax(logits)
    grad[np.arange(B), y] -= 1.0
    grad *= weight / B
    return float(loss), grad


def loss_fn(
    logits: dict[str, np.ndarray],
    y_profile: np.ndarray,
    y_align: np.ndarray,
    y_motiv: np.ndarray,
    lambda_align: float,
    lambda_motiv: float,
) -> float:
    lp, _ = _ce_and_grad(logits["profile"], y_profile, 1.0)
    la, _ = _ce_and_grad(logits["align"], y_align, lambda_align)
    lm, _ = _ce_and_grad(logits["motiv"], y_motiv, lambda_motiv)
    return lp + la + lm


@dataclass
class Batch:
    X: np.ndarray  # (B, T, D)
    y_profile: np.ndarray
    y_align: np.ndarray
    y_motiv: np.ndarray


def compute_gradients(
    batch: Batch,
    ckpt: Checkpoint,
    dropout_mask: np.ndarray | None,
    out: np.ndarray | None = None,
) -> tuple[float, Mapping[str, np.ndarray]]:
    """Loss and analytic gradients for every parameter in the checkpoint.

    The gradients are views into one vector laid out like ckpt.flat: `out`,
    or a new one when it is None.
    """
    p = ckpt.params
    grads = ckpt.views(np.empty_like(ckpt.flat) if out is None else out)
    logits, cache = forward_batch(batch.X, ckpt, dropout_mask)
    loss = 0.0
    dpooled = 0.0
    for head, y, weight in (
        ("profile", batch.y_profile, 1.0),
        ("align", batch.y_align, LAMBDA_ALIGN),
        ("motiv", batch.y_motiv, LAMBDA_MOTIV),
    ):
        head_loss, dlogits = _ce_and_grad(logits[head], y, weight)
        loss += head_loss
        np.matmul(dlogits.T, cache["pooled"], out=grads[f"head_{head}_W"])
        dlogits.sum(axis=0, out=grads[f"head_{head}_b"])
        dpooled = dpooled + dlogits @ p[f"head_{head}_W"]
    if dropout_mask is not None:
        dpooled = dpooled * dropout_mask

    states = cache["states"]
    if ckpt.pooling == POOL_MULTI:
        dstates = multi_pool_backward_batch(cache["pool"], states.shape, dpooled)
    elif ckpt.pooling == POOL_ATTENTION:
        dstates, dproj, dctx = attention_pool_backward_batch(
            cache["pool"], states, p["attn_proj"], p["attn_ctx"], dpooled
        )
        grads["attn_proj"][...] = dproj
        grads["attn_ctx"][...] = dctx
    else:
        dstates = last_state_pool_backward_batch(states.shape, ckpt.hidden, dpooled)

    bilstm_backward_batch(batch.X, cache["lstm"], p["fwd_R"], p["bwd_R"], dstates, grads)
    return loss, grads


def clip_gradients(grads: np.ndarray, clip_norm: float) -> float:
    """Scales the flat gradient vector in place to norm clip_norm when its
    norm exceeds it; returns the norm before clipping."""
    total = float(np.sqrt(np.dot(grads, grads)))
    if total > clip_norm and total > 0:
        grads *= clip_norm / total
    return total


Moments = tuple[np.ndarray, np.ndarray]  # Adam's (m, v), laid out like Checkpoint.flat


def adam_update(
    flat: np.ndarray, grads: np.ndarray, moments: Moments, t: int, config: TrainConfig
) -> None:
    """Adam step number `t` (from 1) over the flat parameter vector and its
    moments (m, v), in place, with the same per-element operation order as
    a per-parameter update."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    m, v = moments
    scratch = np.multiply(1 - b1, grads)
    m *= b1
    m += scratch
    np.multiply(1 - b2, grads, out=scratch)
    scratch *= grads
    v *= b2
    v += scratch
    np.divide(v, bias2, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    step = np.divide(m, bias1)
    step *= config.learning_rate
    step /= scratch
    flat -= step


def dropout_mask_for_step(
    shape: tuple, rate: float, seed: int, global_step: int, dtype
) -> np.ndarray | None:
    """Inverted-dropout mask, seeded per optimizer step."""
    if rate <= 0:
        return None
    rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "dropout", global_step)))
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / (1.0 - rate)


def train_step(
    batch: Batch, ckpt: Checkpoint, moments: Moments, config: TrainConfig, seed: int, global_step: int
) -> float:
    """Optimizer step `global_step` (from 0) on the checkpoint and the Adam
    moments (m, v), in place, its dropout mask drawn from `seed`; returns
    the batch loss."""
    readout = ckpt.params["head_profile_W"].shape[1]
    mask = dropout_mask_for_step(
        (batch.X.shape[0], readout), config.dropout, seed, global_step,
        ckpt.params["fwd_W"].dtype,
    )
    grads = np.empty_like(ckpt.flat)
    loss, _ = compute_gradients(batch, ckpt, mask, out=grads)
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss diverged at step {global_step}: {loss}")
    norm = clip_gradients(grads, CLIP_NORM)
    # saturated activations can keep the loss finite while gradients blow up
    if not np.isfinite(norm):
        raise NonFiniteLoss(f"gradient norm diverged at step {global_step}: {norm}")
    adam_update(ckpt.flat, grads, moments, global_step + 1, config)
    return loss


# --- dataset plumbing for the epoch loop -----------------------------------


def space_labels(
    profile_idx: Sequence[int], space: LabelSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class indices in `space`, alignment9 and motivation4 of each profile index;
    a profile outside `space` raises SpaceMismatch naming the first."""
    profile_idx = np.asarray(profile_idx, dtype=np.intp)
    y_main = space.labels[profile_idx]
    if (y_main < 0).any():
        outside = all_profiles()[profile_idx[np.argmin(y_main)]]
        raise SpaceMismatch(f"sample profile {outside.code} outside {space.tag}")
    y_align = LabelSpace(LabelSpaceKind.ALIGNMENT9).labels[profile_idx]
    y_motiv = LabelSpace(LabelSpaceKind.MOTIVATION4).labels[profile_idx]
    return y_main, y_align, y_motiv


SCORE_BATCH_SIZE = 256  # windows per forward-only batch (validation and scoring)


def _row_source(games: list, dtype) -> tuple[RowStore, np.ndarray]:
    """The store holding `games`' rows and, for each of their rows stacked
    in order, its row there. `GameRows` games must share one store; array
    games are stacked into a new all-dense store of `dtype`."""
    stored = [g for g in games if isinstance(g, GameRows)]
    if not stored:
        block = np.concatenate(games).astype(dtype, copy=False)
        return RowStore.of_dense(block), np.arange(len(block))
    store = stored[0].store
    if len(stored) < len(games) or any(g.store is not store for g in stored):
        raise DimensionMismatch("the samples' games are not all rows of one store")
    lengths = np.array([g.t for g in games], np.intp)
    shift = np.array([g.start for g in games], np.intp) - (np.cumsum(lengths) - lengths)
    return store, np.arange(lengths.sum()) + np.repeat(shift, lengths)


class WindowBatcher:
    """Windows batched by length, so no batch needs padding. The distinct
    games behind the samples (each sample's `game`, told apart by the
    object itself, not by `game_id`) are stacked in first-seen order; a
    window is its first stacked row and its length. The stacked rows stay
    in the games' `RowStore`, `src` naming each one's row there (array
    games are first stacked into an all-dense store), and every input
    array is built from it by `RowStore.fill`: a batch's (B, T, D) X
    (`x`), and scoring's (N, D) stack of all the rows (`stack`). No dense
    copy of the rows is held between calls."""

    def __init__(self, samples: Sequence[SequenceSample], dtype):
        games = list({id(s.game): s.game for s in samples}.values())
        first_row = dict(zip(map(id, games), np.cumsum([0] + [len(g) for g in games])))
        self.starts = np.array([first_row[id(s.game)] + s.window[0] for s in samples], np.intp)
        self.lengths = np.array([s.window[1] for s in samples], np.intp)
        self.dtype = dtype
        self.store, self.src = _row_source(games, dtype)

    def batches(self, batch_size: int, rng: np.random.Generator | None = None) -> list[np.ndarray]:
        """Window indices of each batch: each length's windows, shortest
        first, chunked at `batch_size` in input order, or with `rng` shuffled
        per length and then shuffled as batches."""
        out = []
        for t in np.flatnonzero(np.bincount(self.lengths)):
            idxs = np.flatnonzero(self.lengths == t)
            if rng is not None:
                idxs = idxs[rng.permutation(len(idxs))]
            out += [idxs[s : s + batch_size] for s in range(0, len(idxs), batch_size)]
        if rng is not None and len(out) > 1:
            out = [out[i] for i in rng.permutation(len(out))]
        return out

    def take(self, batch: np.ndarray) -> np.ndarray:
        """(B, T) stacked-row indices of a batch: training and validation
        build the batch's X from them (`x`), and scoring's recurrence reads
        step t's pre-activations from rows take[:, t] of the stack's
        projection."""
        return self.starts[batch, None] + np.arange(self.lengths[batch[0]])

    def x(self, batch: np.ndarray) -> np.ndarray:
        """The batch's (B, T, D) input, built from the store."""
        return self.store.fill(self.src[self.take(batch)], self.dtype)

    def stack(self) -> np.ndarray:
        """Every stacked row as one new (N, D) array, built from the store."""
        return self.store.fill(self.src, self.dtype)


def predict_main(
    windows: WindowBatcher, labels: np.ndarray, ckpt: Checkpoint
) -> tuple[np.ndarray, np.ndarray]:
    """(predictions, labels) of the main head over all windows, in batch order."""
    batches = windows.batches(SCORE_BATCH_SIZE)
    preds = []
    for idx in batches:
        logits, _ = forward_batch(windows.x(idx), ckpt, cache=False)
        preds.append(logits["profile"].argmax(axis=1))
    return np.concatenate(preds), labels[np.concatenate(batches)]


def train(
    train_samples: Sequence[SequenceSample],
    val_samples: Sequence[SequenceSample],
    space: LabelSpace,
    ckpt: Checkpoint,
    config: TrainConfig,
    seed: int,
) -> tuple[Checkpoint, list[dict]]:
    """Epoch loop with early stopping on validation main-head accuracy;
    `seed` draws each epoch's batch order and each step's dropout mask.

    Returns the checkpoint from the best validation epoch and the history.
    """
    if not train_samples:
        raise EmptySplit("training split is empty")
    if not val_samples:
        raise EmptySplit("validation split is empty")
    dtype = ckpt.params["fwd_W"].dtype
    train_y = space_labels([s.profile.index for s in train_samples], space)
    val_y = space_labels([s.profile.index for s in val_samples], space)[0]
    train_data = WindowBatcher(train_samples, dtype)
    val_data = WindowBatcher(val_samples, dtype)
    moments = (np.zeros_like(ckpt.flat), np.zeros_like(ckpt.flat))

    best = ckpt.copy()
    best_acc = -1.0
    bad_epochs = 0
    history: list[dict] = []
    global_step = 0
    for epoch in range(config.epochs):
        rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "epoch", epoch)))
        losses = []
        for idx in train_data.batches(config.batch_size, rng):
            batch = Batch(train_data.x(idx), *(y[idx] for y in train_y))
            losses.append(train_step(batch, ckpt, moments, config, seed, global_step))
            global_step += 1
        preds, labels = predict_main(val_data, val_y, ckpt)
        val_acc = float((preds == labels).mean())
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_accuracy": val_acc,
            }
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best = ckpt.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break
    best.history = history
    return best, history

