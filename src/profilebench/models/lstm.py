"""Bidirectional LSTM forward/backward passes written directly in numpy.

Gate blocks are ordered [input, forget, cell, output] inside every 4H-row
weight matrix and bias. The backward pass mirrors the forward exactly;
its correctness is pinned by finite-difference tests rather than by any
autograd framework.

Shapes: batches are (B, T, D), per-direction hidden states (B, T, H),
concatenated states (B, T, 2H). Functions follow the dtype of their
inputs, so float64 oracle checks and float32 training share one code path.

The input projection X @ W.T runs as one (B*T, D) @ (D, 4H) GEMM: on a
(B, T, D) array numpy's stacked matmul runs B small GEMMs, one per batch
row, about 6x slower at (64, 8, 530).
"""

from __future__ import annotations

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


def lstm_cell(
    x: np.ndarray, h: np.ndarray, c: np.ndarray, W: np.ndarray, R: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One cell step for a single timestep; vectorized over any batch shape."""
    H = R.shape[1]
    if W.shape[0] != 4 * H or x.shape[-1] != W.shape[1] or h.shape[-1] != H:
        raise DimensionMismatch(
            f"cell shapes inconsistent: W{W.shape} R{R.shape} x{x.shape} h{h.shape}"
        )
    return _gates(x @ W.T + h @ R.T + b, c)[4:]


def _direction_forward(
    X: np.ndarray, W: np.ndarray, R: np.ndarray, b: np.ndarray, reverse: bool
) -> dict:
    """Unrolled pass over one direction; caches activations for backward."""
    B, T, D = X.shape
    H = R.shape[1]
    if W.shape != (4 * H, D):
        raise DimensionMismatch(f"W shape {W.shape}, expected {(4 * H, D)}")
    dtype = np.result_type(X, W)
    gates_i = np.empty((B, T, H), dtype)
    gates_f = np.empty((B, T, H), dtype)
    gates_g = np.empty((B, T, H), dtype)
    gates_o = np.empty((B, T, H), dtype)
    cells = np.empty((B, T, H), dtype)
    cells_prev = np.empty((B, T, H), dtype)
    hidden = np.empty((B, T, H), dtype)
    hidden_prev = np.empty((B, T, H), dtype)

    xw = (X.reshape(B * T, D) @ W.T).reshape(B, T, 4 * H)  # hoisted out of the step loop
    h = np.zeros((B, H), dtype)
    c = np.zeros((B, H), dtype)
    steps = range(T - 1, -1, -1) if reverse else range(T)
    for t in steps:
        hidden_prev[:, t] = h
        cells_prev[:, t] = c
        i, f, g, o, h, c = _gates(xw[:, t] + h @ R.T + b, c)
        gates_i[:, t] = i
        gates_f[:, t] = f
        gates_g[:, t] = g
        gates_o[:, t] = o
        cells[:, t] = c
        hidden[:, t] = h
    return {
        "i": gates_i,
        "f": gates_f,
        "g": gates_g,
        "o": gates_o,
        "c": cells,
        "c_prev": cells_prev,
        "h": hidden,
        "h_prev": hidden_prev,
        "reverse": reverse,
    }


def _direction_backward(
    cache: dict, X: np.ndarray, R: np.ndarray, dstates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagation through one direction.

    dstates is the gradient w.r.t. this direction's per-step hidden output
    (B, T, H). Returns (dW, dR, db).
    """
    B, T, D = X.shape
    H = R.shape[1]
    dtype = dstates.dtype
    dW = np.zeros((4 * H, D), dtype)
    dR = np.zeros((4 * H, H), dtype)
    db = np.zeros(4 * H, dtype)
    dh = np.zeros((B, H), dtype)
    dc = np.zeros((B, H), dtype)
    steps = range(T) if cache["reverse"] else range(T - 1, -1, -1)
    for t in steps:
        i = cache["i"][:, t]
        f = cache["f"][:, t]
        g = cache["g"][:, t]
        o = cache["o"][:, t]
        hc = np.tanh(cache["c"][:, t])
        dh_t = dstates[:, t] + dh
        do = dh_t * hc
        dc_t = dh_t * o * (1.0 - hc * hc) + dc
        di = dc_t * g
        df = dc_t * cache["c_prev"][:, t]
        dg = dc_t * i
        dz = np.concatenate(
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dW += dz.T @ X[:, t]
        dR += dz.T @ cache["h_prev"][:, t]
        db += dz.sum(axis=0)
        dh = dz @ R
        dc = dc_t * f
    return dW, dR, db


def bilstm_forward_batch(
    X: np.ndarray,
    fwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, dict]:
    """Both directions over a batch; returns states (B, T, 2H) + cache."""
    cache_f = _direction_forward(X, *fwd, reverse=False)
    cache_b = _direction_forward(X, *bwd, reverse=True)
    states = np.concatenate([cache_f["h"], cache_b["h"]], axis=2)
    return states, {"f": cache_f, "b": cache_b}


def bilstm_backward_batch(
    X: np.ndarray,
    cache: dict,
    fwd_R: np.ndarray,
    bwd_R: np.ndarray,
    dstates: np.ndarray,
) -> dict:
    H = fwd_R.shape[1]
    dWf, dRf, dbf = _direction_backward(cache["f"], X, fwd_R, dstates[:, :, :H])
    dWb, dRb, dbb = _direction_backward(cache["b"], X, bwd_R, dstates[:, :, H:])
    return {
        "fwd_W": dWf,
        "fwd_R": dRf,
        "fwd_b": dbf,
        "bwd_W": dWb,
        "bwd_R": dRb,
        "bwd_b": dbb,
    }


def bilstm_forward(
    X: np.ndarray,
    fwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """Single-sample convenience wrapper: (T, D) -> (T, 2H)."""
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a (T, D) matrix, got shape {X.shape}")
    states, _ = bilstm_forward_batch(X[None], fwd, bwd)
    return states[0]


# --- pooling ---------------------------------------------------------------


def multi_pool(states: np.ndarray) -> np.ndarray:
    """concat(max over t, mean over t): (T, 2H) -> (4H,)."""
    return np.concatenate([states.max(axis=0), states.mean(axis=0)])


def multi_pool_batch(states: np.ndarray) -> tuple[np.ndarray, dict]:
    pooled = np.concatenate([states.max(axis=1), states.mean(axis=1)], axis=1)
    return pooled, {"argmax": states.argmax(axis=1), "T": states.shape[1]}


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


def attention_pool(states: np.ndarray, proj: np.ndarray, ctx: np.ndarray) -> np.ndarray:
    """Additive attention over timesteps: (T, 2H) -> (2H,)."""
    pooled, _ = attention_pool_batch(states[None], proj, ctx)
    return pooled[0]


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
