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
by length for training, validation and scoring, numbers the games' rows
once, and builds every dense input from their row store.
Training builds each batch's whole (B, T, D) X, which backward reads
again; validation hands `bilstm_forward_batch` the batch as `Rows`. Each
direction projects the batch's B*T rows just before its recurrence,
which reads them with take = arange. Scoring
(`evaluation.predict_logits`) projects the stack of all the rows once and
recurs straight from the projection with the batcher's indices: at
stride 1 a decision sits in up to window_len overlapping windows, so
projecting per window would repeat it that many times. The two
projections are not bit-equal: an sgemm's rounding can depend on its row
count. Validation's and scoring's inputs are never built whole:
`project_rows` fills and projects them `CHUNK_ROWS` rows at a time, the
last chunk taking a remainder under 24 rows, which with one BLAS thread,
on the sgemm kernels CI runs, is bit for bit one GEMM over all the rows
(tests/test_lstm.py::TestChunkedProjection).

A training step, a validation batch and a scoring batch allocate no array
that grows with the batch: each is a frame of a `Workspace`, a flat arena
carved into exact-shape, contiguous views in stack order, whose frames
rewind when they end. The `train` and `eval` stages keep one for each run
of rows of a layout (`training.train` and `evaluation.predict_logits` make
their own when given none), its arena reserved up front as address space,
so the batch input, the projections, the recurrence's cache, states and
step buffers, the pooling's (B, T, .) arrays, backward's temporaries, the
gradient vector and Adam's scratch are views of memory the step before
used. What is left are the small (B, .) pooling, head and loss arrays.
Arrays whose lifetimes do not overlap share memory: each direction's
projection and step buffers, the other direction's and then backward's
temporaries, Adam's scratch and the forward caches, validation and the
training steps.

The recurrence's step loop allocates nothing. Before it, the kernel carves
a (B, 4H) buffer for h @ R.T (also the sigmoid's scratch), one that each
step's pre-activation rows are gathered into, and the arrays that the
gates, c and tanh(c) are written into with `out=`. Each step adds h @ R.T
and then b to those rows, and runs every gate operation in the order of
the step that tests/test_lstm.py keeps as its reference (one new array per
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
the same order as the per-gate form, written with `out=` into workspace
views. K is laid out batch-major, (B, T, 4H), and each step turns its
block of K into its gate gradients dz in place, so dW and dR are then one
(4H, B*T) GEMM each after the loop, over the rows in the order the
forward pass projected them.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from functools import partial
from typing import Protocol

import numpy as np

from profilebench.errors import DimensionMismatch

CHUNK_ROWS = 384  # rows filled and projected at a time by `project_rows`: a multiple of 24
_CHUNK_TAIL = 24  # a last chunk of fewer rows is merged into the one before it
_ALIGN = 64  # bytes: every workspace view starts on a multiple of this from the arena's start
WORKSPACE_RESERVE = 64 << 20  # bytes of address space a stage's workspace reserves


class Workspace:
    """Scratch memory reused from step to step and from row to row of the
    rows of one layout that a stage trains or scores: one flat arena of
    `dtype`, carved into exact-shape, contiguous views (`empty`) of any
    dtype, each starting on a 64-byte boundary. Views are handed out in
    stack order: `frame` rewinds to where it began when it exits, so what
    a frame carved is dead after it and the next frame reuses its memory.

    The arena is a private anonymous mapping of `reserve` bytes: address
    space, not memory, for the OS backs a page only once a frame writes it,
    with a small page (numpy asks for huge pages on arrays of 4 MiB or
    more), and takes every page back when the Workspace is freed, whatever
    malloc's thresholds are. So it holds exactly the deepest point its
    frames reached. A view that does not fit in what is left of it is a
    new array (`np.empty`) instead, and the views after it are carved
    where it would have been: a Workspace with no reserve allocates like
    plain numpy."""

    def __init__(self, dtype, reserve: int = 0):
        self.dtype = np.dtype(dtype)
        count = reserve // self.dtype.itemsize
        self.arena = np.empty(0, self.dtype)
        if count:
            mapping = mmap.mmap(-1, count * self.dtype.itemsize, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
            self.arena = np.frombuffer(mapping, self.dtype)
        self.top = 0  # arena items carved so far

    def empty(self, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        """A view of `shape` and `dtype` (the arena's by default), its
        contents whatever the arena last held."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        start = self.top
        end = start + -(-math.prod(shape) * dtype.itemsize // _ALIGN) * (_ALIGN // self.dtype.itemsize)
        if end > len(self.arena):
            return np.empty(shape, dtype)
        self.top = end
        return np.ndarray(shape, dtype, self.arena, start * self.dtype.itemsize)

    def zeros(self, shape: tuple[int, ...], dtype=None) -> np.ndarray:
        out = self.empty(shape, dtype)
        out.fill(0)
        return out

    @contextmanager
    def frame(self) -> Iterator["Workspace"]:
        top = self.top
        try:
            yield self
        finally:
            self.top = top


class Rows(Protocol):
    """An input given by how to build its rows, so that it is never built
    whole: `shape` is its (..., D) shape, and `fill(start, stop, out)`
    writes its flattened rows start .. stop into `out`, a (stop - start, D)
    array, and returns it."""

    shape: tuple[int, ...]

    def fill(self, start: int, stop: int, out: np.ndarray) -> np.ndarray: ...


def _chunk_bounds(n: int, size: int, tail: int = _CHUNK_TAIL) -> list[int]:
    """Row bounds of `size`-row chunks of n rows; a last chunk of fewer
    than `tail` rows is merged into the chunk before it."""
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < tail:
        starts.pop()
    return starts + [n]


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


def project(X: np.ndarray, W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Input pre-activations X @ W.T of a (..., D) array as one 2-D GEMM,
    written into `out` (contiguous, X's rows by W's) when given."""
    D = X.shape[-1]
    if W.shape[1] != D:
        raise DimensionMismatch(f"W shape {W.shape}, input dim {D}")
    shape = (*X.shape[:-1], W.shape[0])
    if out is not None:
        out = out.reshape(-1, W.shape[0])
    return np.matmul(X.reshape(-1, D), W.T, out=out).reshape(shape)


def project_rows(
    X: np.ndarray | Rows, Ws: tuple[np.ndarray, ...], ws: Workspace
) -> tuple[np.ndarray, ...]:
    """Each of `Ws`' (N, 4H) pre-activations of X's N rows, carved from
    `ws`. An array X is projected in one GEMM per W. A `Rows` X is filled
    and projected `CHUNK_ROWS` rows at a time into a buffer carved above
    the projections, the last chunk taking a remainder under 24 rows, so it
    is never built whole. With one BLAS thread, on the OpenBLAS sgemm
    kernels CI runs, such chunks are bit for bit one GEMM over all N rows
    (tests/test_lstm.py::TestChunkedProjection)."""
    D = X.shape[-1]
    n = math.prod(X.shape[:-1])
    dtype = np.result_type(X, *Ws) if isinstance(X, np.ndarray) else np.result_type(*Ws)
    pre = tuple(ws.empty((n, W.shape[0]), dtype) for W in Ws)
    if isinstance(X, np.ndarray):
        for W, out in zip(Ws, pre):
            project(X.reshape(n, D), W, out=out)
        return pre
    bounds = _chunk_bounds(n, CHUNK_ROWS)
    with ws.frame():
        buf = ws.empty((max(np.diff(bounds), default=0), D), dtype)
        for s, e in zip(bounds, bounds[1:]):
            chunk = X.fill(s, e, buf[: e - s])
            for W, out in zip(Ws, pre):
                project(chunk, W, out=out[s:e])
    return pre


def _direction_recur(
    pre: np.ndarray | Callable[[Workspace], np.ndarray], take: np.ndarray, R: np.ndarray,
    b: np.ndarray, reverse: bool, out: np.ndarray, cache: bool = True, ws: Workspace | None = None,
) -> dict:
    """Unrolled recurrence of one direction, in place. Step t of window k
    reads its input pre-activations from row take[k, t] of the (N, 4H)
    projection pre = project(rows, W); hidden states go into `out` (B, T, H).
    `pre` is that array, or a function that projects it into a view of the
    workspace it is given (`bilstm_forward_batch`).

    Returns {"h": out} plus, when `cache`, the time-major activations the
    backward pass reads: "gates" (T, B, 4H), the cell states "c"
    (T + 1, B, H), whose zero slot before the direction's first step is
    slot 0 forward and slot T reverse, and their tanh "tc" (T, B, H).
    Without it, gates, c and tanh(c) live in one-step buffers that every
    step overwrites. All of these are carved from `ws` (a new Workspace
    when None): the cache first, then, in a frame that ends with the
    recurrence, the one-step buffers, a projection that `pre` makes, and
    the step's buffers; so both directions reuse that memory, and backward
    reuses it again.
    """
    B, T = take.shape
    H = R.shape[1]
    dtype = out.dtype
    ws = Workspace(dtype) if ws is None else ws

    def carve(steps: int, slots: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gates = ws.empty((steps, B, 4 * H), dtype)
        return gates, ws.empty((steps, B, H), dtype), ws.empty((slots, B, H), dtype)

    if cache:
        gates, tcs, cs = carve(T, T + 1)
    with ws.frame():
        if not cache:
            gates, tcs, cs = carve(1, 1)
        # the zero state before the direction's first step: slot 0, or T reversed
        cs[T if cache and reverse else 0] = 0.0
        pre = pre(ws) if callable(pre) else pre
        if pre.shape[1] != 4 * H:
            raise DimensionMismatch(f"pre-activations {pre.shape}, expected 4H = {4 * H} columns")
        if take.min() < 0 or take.max() >= len(pre):
            raise DimensionMismatch(f"row indices outside the {len(pre)} pre-activation rows")
        hr = ws.empty((B, 4 * H), pre.dtype)  # h @ R.T, then the sigmoid's scratch
        z = ws.empty((B, 4 * H), pre.dtype)
        positive = ws.empty((B, 4 * H), bool)
        ig = ws.empty((B, H), dtype)
        h = ws.zeros((B, H), dtype)
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


def _shift(a: np.ndarray, reverse: bool, out: np.ndarray) -> np.ndarray:
    """Each step's previous value in the direction's order, written into
    `out`: zeros at its first step."""
    if reverse:
        out[:, -1] = 0.0
        out[:, :-1] = a[:, 1:]
    else:
        out[:, 0] = 0.0
        out[:, 1:] = a[:, :-1]
    return out


def _direction_backward(
    cache: dict, X: np.ndarray, R: np.ndarray, dstates: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray], ws: Workspace | None = None,
) -> None:
    """Backpropagation through one direction.

    dstates is the gradient w.r.t. this direction's per-step hidden output
    (B, T, H). Writes (dW, dR, db) into the three arrays of `out`. Its
    temporaries are carved from `ws` (a new Workspace when None).
    """
    B, T, D = X.shape
    H = R.shape[1]
    dtype = dstates.dtype
    ws = Workspace(dtype) if ws is None else ws
    reverse = cache["reverse"]
    G = cache["gates"]
    i, f, g, o = (G[:, :, k * H : (k + 1) * H] for k in range(4))
    tc = cache["tc"]
    # dz = K * [dc_t, dc_t, dc_t, dh_t]; K = P * G * (1 - G) with
    # P = [g, c_prev, 0, tanh(c)], then its cell block i * (1 - g * g).
    # K is built batch-major in dz's memory, and the step loop turns each
    # step's block of K into that step's block of dz in place.
    dz = ws.empty((B, T, 4 * H), dtype)
    K = dz.transpose(1, 0, 2)  # time-major, as G is
    K[:, :, :H] = g
    K[:, :, H : 2 * H] = cache["c"][1:] if reverse else cache["c"][:-1]
    K[:, :, 2 * H : 3 * H] = 0.0
    K[:, :, 3 * H :] = tc
    K *= G
    with ws.frame():
        # after the loop, the (T, B, H) arrays' memory holds h_prev
        one_minus = ws.empty((T, B, H), dtype)
        for k in range(4):
            block = slice(k * H, (k + 1) * H)
            K[:, :, block] *= np.subtract(1.0, G[:, :, block], out=one_minus)
        np.multiply(g, g, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        np.multiply(i, one_minus, out=K[:, :, 2 * H : 3 * H])
        A = np.multiply(tc, tc, out=one_minus)
        np.subtract(1.0, A, out=A)
        np.multiply(o, A, out=A)  # dc_t = dh_t * A + dc

        steps = dz.reshape(B, T, 4, H)
        dh = ws.zeros((B, H), dtype)
        dc = ws.zeros((B, H), dtype)
        dh_t = ws.empty((B, H), dtype)
        dc_t = ws.empty((B, H), dtype)
        for t in range(T) if reverse else range(T - 1, -1, -1):
            np.add(dstates[:, t], dh, out=dh_t)
            np.multiply(dh_t, A[t], out=dc_t)
            dc_t += dc
            np.multiply(steps[:, t, :3], dc_t[:, None], out=steps[:, t, :3])
            np.multiply(steps[:, t, 3], dh_t, out=steps[:, t, 3])
            np.matmul(dz[:, t], R, out=dh)
            np.multiply(dc_t, f[t], out=dc)

    dW, dR, db = out
    dz = dz.reshape(B * T, 4 * H)
    np.matmul(dz.T, X.reshape(B * T, D), out=dW)
    h_prev = _shift(cache["h"], reverse, ws.empty((B, T, H), dtype))
    np.matmul(dz.T, h_prev.reshape(B * T, H), out=dR)
    dz.sum(axis=0, out=db)


def bilstm_recur(
    pre: tuple[np.ndarray, np.ndarray],
    take: np.ndarray,
    fwd: tuple[np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray],
    cache: bool = True,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Both directions' recurrences over a batch of windows: `pre` holds each
    direction's (N, 4H) input pre-activations (or, from
    `bilstm_forward_batch`, how to project them), `take` the batch's (B, T) row
    indices into them, and `fwd` and `bwd` each direction's (R, b). Returns
    states (B, T, 2H) and the backward cache, or None when `cache` is False
    (scoring); both are carved from `ws` (a new Workspace when None)."""
    B, T = take.shape
    Hf = fwd[0].shape[1]
    # a projection still to be made takes its direction's weights' dtype
    dtype = np.result_type(*(getattr(p, "dtype", R.dtype) for p, (R, _) in zip(pre, (fwd, bwd))))
    ws = Workspace(dtype) if ws is None else ws
    states = ws.empty((B, T, Hf + bwd[0].shape[1]), dtype)
    cache_f = _direction_recur(pre[0], take, *fwd, False, states[:, :, :Hf], cache, ws)
    cache_b = _direction_recur(pre[1], take, *bwd, True, states[:, :, Hf:], cache, ws)
    return states, ({"f": cache_f, "b": cache_b} if cache else None)


def bilstm_forward_batch(
    X: np.ndarray | Rows,
    fwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    bwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    cache: bool = True,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, dict | None]:
    """Both directions over a (B, T, D) batch: project each window's rows,
    then recur. Returns states (B, T, 2H) and the backward cache, or None
    when `cache` is False; all carved from `ws` (a new Workspace when None).

    Each direction projects the batch just before its recurrence, after
    its cache is carved, so one direction's projection is alive at a time
    and backward reuses its memory. A `Rows` batch (validation) is so
    filled twice, chunk by chunk, once per direction."""
    B, T, D = X.shape
    ws = Workspace(fwd[0].dtype) if ws is None else ws
    pre = tuple(partial(_project_one, X, W) for W in (fwd[0], bwd[0]))
    return bilstm_recur(pre, np.arange(B * T).reshape(B, T), fwd[1:], bwd[1:], cache, ws)


def _project_one(X: np.ndarray | Rows, W: np.ndarray, ws: Workspace) -> np.ndarray:
    return project_rows(X, (W,), ws)[0]


def bilstm_backward_batch(
    X: np.ndarray,
    cache: dict,
    fwd_R: np.ndarray,
    bwd_R: np.ndarray,
    dstates: np.ndarray,
    grads: Mapping[str, np.ndarray],
    ws: Workspace | None = None,
) -> None:
    """Writes both directions' weight gradients into grads["fwd_W"] etc.;
    the two directions' temporaries share one frame of `ws`."""
    H = fwd_R.shape[1]
    ws = Workspace(dstates.dtype) if ws is None else ws
    for prefix, R, d in (("fwd", fwd_R, dstates[:, :, :H]), ("bwd", bwd_R, dstates[:, :, H:])):
        out = (grads[f"{prefix}_W"], grads[f"{prefix}_R"], grads[f"{prefix}_b"])
        with ws.frame():
            _direction_backward(cache[prefix[0]], X, R, d, out, ws)


# --- pooling ---------------------------------------------------------------


def multi_pool_batch(
    states: np.ndarray, cache: bool = True, ws: Workspace | None = None
) -> tuple[np.ndarray, dict | None]:
    """Pooled (B, 4H) and the backward cache, or None when `cache` is False.
    The cache's (B, 2H) argmax is carved from `ws` when given, and found
    over the last axis of a transposed copy carved above it: numpy's argmax
    over any other axis makes that copy itself, as a new array."""
    pooled = np.concatenate([states.max(axis=1), states.mean(axis=1)], axis=1)
    if not cache:
        return pooled, None
    B, T, S = states.shape
    ws = Workspace(states.dtype) if ws is None else ws
    argmax = ws.empty((B, S), np.intp)
    with ws.frame():
        by_feature = ws.empty((B, S, T), states.dtype)
        by_feature[...] = states.transpose(0, 2, 1)
        by_feature.argmax(axis=2, out=argmax)
    return pooled, {"argmax": argmax, "T": T}


def multi_pool_backward_batch(
    cache: dict, states_shape: tuple, dpooled: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """dstates, written into `out` when given."""
    B, T, S = states_shape
    dstates = np.empty(states_shape, dpooled.dtype) if out is None else out
    dstates[...] = (dpooled[:, S:] / T)[:, None, :]
    # max routes gradient to the (first) argmax row per feature; each (b, s)
    # has one such row, so no index repeats and a plain += adds once
    dstates[np.arange(B)[:, None], cache["argmax"], np.arange(S)] += dpooled[:, :S]
    return dstates


def attention_pool_batch(
    states: np.ndarray, proj: np.ndarray, ctx: np.ndarray, ws: Workspace | None = None
) -> tuple[np.ndarray, dict]:
    """Pooled (B, 2H) and the backward cache, whose (B, T, A) "a" is carved
    from `ws` (a new Workspace when None)."""
    B, T, _ = states.shape
    ws = Workspace(states.dtype) if ws is None else ws
    a = np.matmul(states, proj.T, out=ws.empty((B, T, len(proj)), states.dtype))
    np.tanh(a, out=a)
    scores = a @ ctx  # (B, T)
    scores = scores - scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    pooled = np.einsum("bt,bts->bs", w, states)
    return pooled, {"a": a, "w": w}


def attention_pool_backward_batch(
    cache: dict, states: np.ndarray, proj: np.ndarray, ctx: np.ndarray, dpooled: np.ndarray,
    ws: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dstates, dproj, dctx); dstates and the (B, T, .)
    temporaries are carved from `ws` (a new Workspace when None), dstates
    first, so the caller's frame keeps it."""
    a, w = cache["a"], cache["w"]
    dtype = states.dtype
    ws = Workspace(dtype) if ws is None else ws
    dstates = np.multiply(w[:, :, None], dpooled[:, None, :], out=ws.empty(states.shape, dtype))
    dw = np.einsum("bts,bs->bt", states, dpooled)
    de = w * (dw - (w * dw).sum(axis=1, keepdims=True))
    dctx = np.einsum("bta,bt->a", a, de)
    with ws.frame():
        dpre = np.multiply(de[:, :, None], ctx[None, None, :], out=ws.empty(a.shape, dtype))  # da
        one_minus = np.multiply(a, a, out=ws.empty(a.shape, dtype))
        np.subtract(1.0, one_minus, out=one_minus)
        dpre *= one_minus
        dproj = np.einsum("bta,bts->as", dpre, states)
        dstates += np.matmul(dpre, proj, out=ws.empty(states.shape, dtype))
    return dstates, dproj, dctx


def last_state_pool_batch(states: np.ndarray, hidden: int) -> np.ndarray:
    """Final forward state and final backward state (the one at t=0)."""
    return np.concatenate([states[:, -1, :hidden], states[:, 0, hidden:]], axis=1)


def last_state_pool_backward_batch(
    states_shape: tuple, hidden: int, dpooled: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """dstates, written into `out` when given."""
    dstates = np.empty(states_shape, dpooled.dtype) if out is None else out
    dstates.fill(0)
    dstates[:, -1, :hidden] = dpooled[:, :hidden]
    dstates[:, 0, hidden:] = dpooled[:, hidden:]
    return dstates
