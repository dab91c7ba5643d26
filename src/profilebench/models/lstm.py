"""Bidirectional LSTM forward/backward passes written directly in numpy.

Gate blocks are ordered [input, forget, cell, output] inside every 4H-row
weight matrix and bias. The backward pass mirrors the forward exactly;
its correctness is pinned by finite-difference tests rather than by any
autograd framework.

Shapes: batches are (B, T, D), per-direction hidden states (B, T, H),
concatenated states (B, T, 2H). Functions follow the dtype of their
inputs, so float64 oracle checks and float32 training share one code path.

A direction's forward pass is two parts: the input projection X @ W.T
(`project`), and the recurrence over those pre-activations
(`_direction_recur`, both directions in `bilstm_recur`). The projection
runs as one (B*T, D) @ (D, 4H) GEMM: on a (B, T, D) array numpy's stacked
matmul runs B small GEMMs, one per batch row, about 6x slower at
(64, 8, 530). One batcher, `training.WindowBatcher`, batches windows by
length for training, validation and scoring, and a batch's (B, T) row
indices gather from the games' rows, stacked once. Training and validation
gather the batch's X and call `bilstm_forward_batch`, which projects it
and then recurs. Scoring (`evaluation.predict_logits`) projects the
stacked rows once and gathers each batch's pre-activations instead: the
projection is linear and per row, and at stride 1 a decision sits in up
to window_len overlapping windows, so projecting per window would repeat
it that many times.

The training cache holds each fact once: the gate activations i, f, g, o
and the cell and hidden states c and h, one (B, T, H) array each. Scoring
(validation and `predict_logits`) runs with cache=False and writes nothing
but the hidden states; both directions write straight into their half of
the (B, T, 2H) states array.

Backward keeps only the dh/dc recurrence in its step loop. Everything that
does not depend on dh or dc (the previous states, shifted one step, and the
gate-derivative coefficients) is computed for all T steps before the loop;
each step writes its gate gradients into one (B, T, 4H) array, and dW and dR
are then one (4H, B*T) GEMM each after the loop instead of T small ones
inside it (Appleyard, Kocisky & Blunsom, arXiv:1604.01946).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from profilebench.errors import DimensionMismatch


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Two-branch stable sigmoid, 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below,
    with no boolean masks: their gathers and scatters cost more than the exp.
    exp() sees min(x, -x) = -|x| (never overflows; a nan passes unchanged)."""
    e = np.exp(np.minimum(x, -x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _gates(z: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gate activations and the next (h, c) from 4H pre-activations z."""
    H = c.shape[-1]
    s = sigmoid(z)
    i, f, o = s[..., :H], s[..., H : 2 * H], s[..., 3 * H :]
    g = np.tanh(z[..., 2 * H : 3 * H])
    c_next = f * c + i * g
    h_next = o * np.tanh(c_next)
    return i, f, g, o, h_next, c_next


def project(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Input pre-activations X @ W.T of a (..., D) array as one 2-D GEMM."""
    D = X.shape[-1]
    if W.shape[1] != D:
        raise DimensionMismatch(f"W shape {W.shape}, input dim {D}")
    return (X.reshape(-1, D) @ W.T).reshape(*X.shape[:-1], W.shape[0])


def _direction_recur(
    xw: np.ndarray, R: np.ndarray, b: np.ndarray, reverse: bool,
    cache: bool = True, out: np.ndarray | None = None,
) -> dict:
    """Unrolled recurrence of one direction over its (B, T, 4H) input
    pre-activations xw = project(X, W).

    Returns {"h": hidden states} plus, when `cache`, the activations the
    backward pass reads. Hidden states go into `out` when given.
    """
    B, T, G = xw.shape
    H = R.shape[1]
    if G != 4 * H:
        raise DimensionMismatch(f"pre-activations {xw.shape}, expected 4H = {4 * H} columns")
    dtype = xw.dtype
    hidden = np.empty((B, T, H), dtype) if out is None else out
    kept = {name: np.empty((B, T, H), dtype) for name in "ifgoc"} if cache else {}

    h = np.zeros((B, H), dtype)
    c = np.zeros((B, H), dtype)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        i, f, g, o, h, c = _gates(xw[:, t] + h @ R.T + b, c)
        hidden[:, t] = h
        if cache:
            for name, value in zip("ifgoc", (i, f, g, o, c)):
                kept[name][:, t] = value
    return {"h": hidden, "reverse": reverse, **kept}


def _shift(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Each step's previous value in the direction's order: zeros at its first step."""
    out = np.zeros_like(a)
    if reverse:
        out[:, :-1] = a[:, 1:]
    else:
        out[:, 1:] = a[:, :-1]
    return out


def _direction_backward(
    cache: dict, X: np.ndarray, R: np.ndarray, dstates: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Backpropagation through one direction.

    dstates is the gradient w.r.t. this direction's per-step hidden output
    (B, T, H). Writes (dW, dR, db) into the three arrays of `out`.
    """
    B, T, D = X.shape
    H = R.shape[1]
    reverse = cache["reverse"]
    i, f, g, o, c = (cache[name] for name in "ifgoc")
    h_prev = _shift(cache["h"], reverse)
    tc = np.tanh(c)
    A = o * (1.0 - tc * tc)  # dc_t = dh_t * A + dc
    K = np.empty((B, T, 4, H), dstates.dtype)  # dz = K * [dc_t, dc_t, dc_t, dh_t]
    K[:, :, 0] = g * i * (1.0 - i)
    K[:, :, 1] = _shift(c, reverse) * f * (1.0 - f)
    K[:, :, 2] = i * (1.0 - g * g)
    K[:, :, 3] = tc * o * (1.0 - o)

    dz = np.empty((B, T, 4, H), dstates.dtype)
    dh = np.zeros((B, H), dstates.dtype)
    dc = np.zeros((B, H), dstates.dtype)
    for t in range(T) if reverse else range(T - 1, -1, -1):
        dh_t = dstates[:, t] + dh
        dc_t = dh_t * A[:, t] + dc
        np.multiply(K[:, t, :3], dc_t[:, None], out=dz[:, t, :3])
        np.multiply(K[:, t, 3], dh_t, out=dz[:, t, 3])
        dh = dz[:, t].reshape(B, 4 * H) @ R
        dc = dc_t * f[:, t]

    dW, dR, db = out
    dz = dz.reshape(B * T, 4 * H)
    np.matmul(dz.T, X.reshape(B * T, D), out=dW)
    np.matmul(dz.T, h_prev.reshape(B * T, H), out=dR)
    dz.sum(axis=0, out=db)


def bilstm_recur(
    pre: tuple[np.ndarray, np.ndarray],
    fwd: tuple[np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray],
    cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Both directions' recurrences from their (B, T, 4H) input
    pre-activations `pre`; `fwd` and `bwd` are each direction's (R, b).
    Returns states (B, T, 2H) and the backward cache, or None when `cache`
    is False (scoring)."""
    B, T, _ = pre[0].shape
    Hf = fwd[0].shape[1]
    states = np.empty((B, T, Hf + bwd[0].shape[1]), np.result_type(*pre))
    cache_f = _direction_recur(pre[0], *fwd, reverse=False, cache=cache, out=states[:, :, :Hf])
    cache_b = _direction_recur(pre[1], *bwd, reverse=True, cache=cache, out=states[:, :, Hf:])
    return states, ({"f": cache_f, "b": cache_b} if cache else None)


def bilstm_forward_batch(
    X: np.ndarray,
    fwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Both directions over a (B, T, D) batch: project, then recur. Returns
    states (B, T, 2H) and the backward cache, or None when `cache` is False."""
    pre = (project(X, fwd[0]), project(X, bwd[0]))
    return bilstm_recur(pre, fwd[1:], bwd[1:], cache)


def bilstm_backward_batch(
    X: np.ndarray,
    cache: dict,
    fwd_R: np.ndarray,
    bwd_R: np.ndarray,
    dstates: np.ndarray,
    grads: Mapping[str, np.ndarray],
) -> None:
    """Writes both directions' weight gradients into grads["fwd_W"] etc."""
    H = fwd_R.shape[1]
    for prefix, R, d in (("fwd", fwd_R, dstates[:, :, :H]), ("bwd", bwd_R, dstates[:, :, H:])):
        out = (grads[f"{prefix}_W"], grads[f"{prefix}_R"], grads[f"{prefix}_b"])
        _direction_backward(cache[prefix[0]], X, R, d, out)


# --- pooling ---------------------------------------------------------------


def multi_pool_batch(states: np.ndarray, cache: bool = True) -> tuple[np.ndarray, dict | None]:
    """Pooled (B, 4H) and the backward cache, or None when `cache` is False."""
    pooled = np.concatenate([states.max(axis=1), states.mean(axis=1)], axis=1)
    return pooled, ({"argmax": states.argmax(axis=1), "T": states.shape[1]} if cache else None)


def multi_pool_backward_batch(cache: dict, states_shape: tuple, dpooled: np.ndarray) -> np.ndarray:
    B, T, S = states_shape
    dstates = np.broadcast_to(
        (dpooled[:, S:] / T)[:, None, :], states_shape
    ).copy()
    # max routes gradient to the (first) argmax row per feature
    b_idx = np.arange(B)[:, None]
    s_idx = np.arange(S)[None, :]
    np.add.at(dstates, (b_idx, cache["argmax"], s_idx), dpooled[:, :S])
    return dstates


def attention_pool_batch(
    states: np.ndarray, proj: np.ndarray, ctx: np.ndarray
) -> tuple[np.ndarray, dict]:
    a = np.tanh(states @ proj.T)  # (B, T, A)
    scores = a @ ctx  # (B, T)
    scores = scores - scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    pooled = np.einsum("bt,bts->bs", w, states)
    return pooled, {"a": a, "w": w}


def attention_pool_backward_batch(
    cache: dict, states: np.ndarray, proj: np.ndarray, ctx: np.ndarray, dpooled: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dstates, dproj, dctx)."""
    a, w = cache["a"], cache["w"]
    dstates = w[:, :, None] * dpooled[:, None, :]
    dw = np.einsum("bts,bs->bt", states, dpooled)
    de = w * (dw - (w * dw).sum(axis=1, keepdims=True))
    dctx = np.einsum("bta,bt->a", a, de)
    da = de[:, :, None] * ctx[None, None, :]
    dpre = da * (1.0 - a * a)
    dproj = np.einsum("bta,bts->as", dpre, states)
    dstates += dpre @ proj
    return dstates, dproj, dctx


def last_state_pool_batch(states: np.ndarray, hidden: int) -> np.ndarray:
    """Final forward state and final backward state (the one at t=0)."""
    return np.concatenate([states[:, -1, :hidden], states[:, 0, hidden:]], axis=1)


def last_state_pool_backward_batch(
    states_shape: tuple, hidden: int, dpooled: np.ndarray
) -> np.ndarray:
    dstates = np.zeros(states_shape, dpooled.dtype)
    dstates[:, -1, :hidden] = dpooled[:, :hidden]
    dstates[:, 0, hidden:] = dpooled[:, hidden:]
    return dstates
