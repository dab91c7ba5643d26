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
runs as one (N, D) @ (D, 4H) GEMM over rows, outside the step loop: on a
(B, T, D) array numpy's stacked matmul runs B small GEMMs, one per batch
row, about 6x slower at (64, 8, 530). The recurrence reads step t of a
batch's windows from rows take[:, t] of that projection, where `take` is
the batch's (B, T) row indices (Appleyard, Kocisky & Blunsom,
arXiv:1604.01946). One batcher, `training.WindowBatcher`, batches windows
by length for training, validation and scoring, and gives each batch's
row indices into the games' rows, stacked once. Training and validation
gather the batch's X and call `bilstm_forward_batch`, which projects its
B*T rows and recurs with take = arange. Scoring
(`evaluation.predict_logits`) projects the stacked rows once and recurs
straight from them with the batcher's indices: at stride 1 a decision
sits in up to window_len overlapping windows, so projecting per window
would repeat it that many times. The two projections are not bit-equal:
an sgemm's rounding can depend on its row count.

The step loop allocates nothing. Before it, the kernel allocates a (B, 4H)
buffer for h @ R.T (also the sigmoid's scratch), one that each step's
pre-activation rows are gathered into, and the arrays that the gates, c
and tanh(c) are written into with `out=`. Each step adds h @ R.T and then
b to those rows, and runs every gate operation in the order of the step
that tests/test_lstm.py keeps as its reference (one new array per
operation), so every output bit agrees with it. With the training cache
the arrays are the cache, stored time-major so that step t's blocks are
contiguous: the gate activations i, f, g, o as one (T, B, 4H) array, the
cell states as (T + 1, B, H) with a zero slot before the direction's first
step (slot 0 forward, slot T reverse, so c_prev is a slice), tanh(c) as
(T, B, H), and the hidden states h, each fact once. Scoring (validation
and `predict_logits`) runs with cache=False: gates, c and tanh(c) live in
one-step buffers that every step overwrites. Either way each direction
writes h straight into its half of the (B, T, 2H) states array, and the
next step's h @ R.T reads it there. At B = 256 and H = 64 each (B, 4H)
float32 buffer is 256 KiB, so the step keeps few of them: its working set
has to stay in L2 beside R and the gathered rows.

Backward keeps only the dh/dc recurrence in its step loop. Everything that
does not depend on dh or dc is computed for all T steps before the loop,
over whole 4H rows of the time-major cache: the coefficients
K = P * G * (1 - G), where G is the cached gates and P holds g, c_prev,
zeros and tanh(c) in the four gate slots, after which K's cell block is
overwritten with i * (1 - g * g). Each element sees the same operations in
the same order as the per-gate form. Each step writes its gate gradients
into one batch-major (B, T, 4H) array, so dW and dR are then one
(4H, B*T) GEMM each after the loop, over the rows in the order the
forward pass projected them.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from profilebench.errors import DimensionMismatch


def sigmoid(
    x: np.ndarray, out: np.ndarray | None = None,
    e: np.ndarray | None = None, positive: np.ndarray | None = None,
) -> np.ndarray:
    """Two-branch stable sigmoid, 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below,
    with no boolean masks: their gathers and scatters cost more than the exp.
    exp() sees min(x, -x) = -|x| (never overflows; a nan passes unchanged).
    Given `out`, a scratch `e` like x and a bool `positive` like x, it
    allocates nothing."""
    e = np.negative(x, out=e)
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, np.greater_equal(x, 0, out=positive), out=out)
    np.add(e, 1.0, out=e)
    return np.divide(out, e, out=out)


def project(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Input pre-activations X @ W.T of a (..., D) array as one 2-D GEMM."""
    D = X.shape[-1]
    if W.shape[1] != D:
        raise DimensionMismatch(f"W shape {W.shape}, input dim {D}")
    return (X.reshape(-1, D) @ W.T).reshape(*X.shape[:-1], W.shape[0])


def _direction_recur(
    pre: np.ndarray, take: np.ndarray, R: np.ndarray, b: np.ndarray,
    reverse: bool, out: np.ndarray, cache: bool = True,
) -> dict:
    """Unrolled recurrence of one direction, in place. Step t of window k
    reads its input pre-activations from row take[k, t] of the (N, 4H)
    projection pre = project(rows, W); hidden states go into `out` (B, T, H).

    Returns {"h": out} plus, when `cache`, the time-major activations the
    backward pass reads: "gates" (T, B, 4H), the cell states "c"
    (T + 1, B, H), whose zero slot before the direction's first step is
    slot 0 forward and slot T reverse, and their tanh "tc" (T, B, H).
    Without it, gates, c and tanh(c) live in one-step buffers that every
    step overwrites.
    """
    B, T = take.shape
    H = R.shape[1]
    if pre.shape[1] != 4 * H:
        raise DimensionMismatch(f"pre-activations {pre.shape}, expected 4H = {4 * H} columns")
    if take.min() < 0 or take.max() >= len(pre):
        raise DimensionMismatch(f"row indices outside the {len(pre)} pre-activation rows")
    dtype = pre.dtype
    hr = np.empty((B, 4 * H), dtype)  # h @ R.T, then the sigmoid's scratch
    z = np.empty((B, 4 * H), dtype)
    positive = np.empty((B, 4 * H), bool)
    ig = np.empty((B, H), dtype)
    h = np.zeros((B, H), dtype)
    gates = np.empty((T if cache else 1, B, 4 * H), dtype)
    tcs = np.empty((T if cache else 1, B, H), dtype)
    # the zero state before the direction's first step: slot 0, or T reversed
    cs = np.empty((T + 1 if cache else 1, B, H), dtype)
    cs[T if cache and reverse else 0] = 0.0

    for t in range(T - 1, -1, -1) if reverse else range(T):
        k = t if cache else 0
        a, tc = gates[k], tcs[k]
        c_prev, c = (cs[t + reverse], cs[t + 1 - reverse]) if cache else (cs[0], cs[0])
        i, f, g, o = (a[:, j * H : (j + 1) * H] for j in range(4))
        np.matmul(h, R.T, out=hr)
        # rows checked above; mode="raise" would copy through a temporary
        np.take(pre, take[:, t], axis=0, out=z, mode="clip")
        z += hr
        z += b
        sigmoid(z, a, hr, positive)
        np.tanh(z[:, 2 * H : 3 * H], out=g)  # over the sigmoid's cell block
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=ig)
        c += ig
        np.tanh(c, out=tc)
        h = out[:, t]  # the next step's matmul reads it from here
        np.multiply(o, tc, out=h)
    if not cache:
        return {"h": out, "reverse": reverse}
    return {"h": out, "reverse": reverse, "gates": gates, "c": cs, "tc": tcs}


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
    G = cache["gates"]
    i, f, g, o = (G[:, :, k * H : (k + 1) * H] for k in range(4))
    tc = cache["tc"]
    A = o * (1.0 - tc * tc)  # dc_t = dh_t * A + dc
    # dz = K * [dc_t, dc_t, dc_t, dh_t]; K = P * G * (1 - G) with
    # P = [g, c_prev, 0, tanh(c)], then its cell block i * (1 - g * g)
    K = np.empty_like(G)
    K[:, :, :H] = g
    K[:, :, H : 2 * H] = cache["c"][1:] if reverse else cache["c"][:-1]
    K[:, :, 2 * H : 3 * H] = 0.0
    K[:, :, 3 * H :] = tc
    K *= G
    K *= 1.0 - G
    np.multiply(i, 1.0 - g * g, out=K[:, :, 2 * H : 3 * H])
    K = K.reshape(T, B, 4, H)

    dz = np.empty((B, T, 4, H), dstates.dtype)
    dh = np.zeros((B, H), dstates.dtype)
    dc = np.zeros((B, H), dstates.dtype)
    for t in range(T) if reverse else range(T - 1, -1, -1):
        dh_t = dstates[:, t] + dh
        dc_t = dh_t * A[t] + dc
        np.multiply(K[t, :, :3], dc_t[:, None], out=dz[:, t, :3])
        np.multiply(K[t, :, 3], dh_t, out=dz[:, t, 3])
        dh = dz[:, t].reshape(B, 4 * H) @ R
        dc = dc_t * f[t]

    dW, dR, db = out
    dz = dz.reshape(B * T, 4 * H)
    np.matmul(dz.T, X.reshape(B * T, D), out=dW)
    np.matmul(dz.T, _shift(cache["h"], reverse).reshape(B * T, H), out=dR)
    dz.sum(axis=0, out=db)


def bilstm_recur(
    pre: tuple[np.ndarray, np.ndarray],
    take: np.ndarray,
    fwd: tuple[np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray],
    cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Both directions' recurrences over a batch of windows: `pre` holds each
    direction's (N, 4H) input pre-activations, `take` the batch's (B, T) row
    indices into them, and `fwd` and `bwd` each direction's (R, b). Returns
    states (B, T, 2H) and the backward cache, or None when `cache` is False
    (scoring)."""
    B, T = take.shape
    Hf = fwd[0].shape[1]
    states = np.empty((B, T, Hf + bwd[0].shape[1]), np.result_type(*pre))
    cache_f = _direction_recur(pre[0], take, *fwd, reverse=False, out=states[:, :, :Hf], cache=cache)
    cache_b = _direction_recur(pre[1], take, *bwd, reverse=True, out=states[:, :, Hf:], cache=cache)
    return states, ({"f": cache_f, "b": cache_b} if cache else None)


def bilstm_forward_batch(
    X: np.ndarray,
    fwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    cache: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Both directions over a (B, T, D) batch: project each window's rows,
    then recur. Returns states (B, T, 2H) and the backward cache, or None
    when `cache` is False."""
    B, T, D = X.shape
    rows = X.reshape(B * T, D)
    pre = (project(rows, fwd[0]), project(rows, bwd[0]))
    return bilstm_recur(pre, np.arange(B * T).reshape(B, T), fwd[1:], bwd[1:], cache)


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
    # max routes gradient to the (first) argmax row per feature; each (b, s)
    # has one such row, so no index repeats and a plain += adds once
    dstates[np.arange(B)[:, None], cache["argmax"], np.arange(S)] += dpooled[:, :S]
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
