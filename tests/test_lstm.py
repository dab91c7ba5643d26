"""Forward-pass checks for the bidirectional LSTM and pooling layers.

The reference implementation here is deliberately naive: scalar loops,
math.exp, no numpy broadcasting. Agreement between the two paths is the
point of the suite, so the reference must not share code with the package.
"""

import math

import numpy as np
import pytest

from profilebench.errors import DimensionMismatch
from profilebench.models.lstm import (
    _direction_backward,
    _direction_recur,
    attention_pool_batch,
    bilstm_forward_batch,
    bilstm_recur,
    last_state_pool_batch,
    multi_pool_backward_batch,
    multi_pool_batch,
    project,
    sigmoid,
)


# --- single-sample references ---------------------------------------------


def lstm_cell(x, h, c, W, R, b):
    """One cell step for a single timestep; vectorized over any batch shape.
    Its sigmoid is (1 + tanh(z / 2)) / 2, which shares no code with the
    package's and never overflows."""
    H = R.shape[1]
    if W.shape[0] != 4 * H or x.shape[-1] != W.shape[1] or h.shape[-1] != H:
        raise DimensionMismatch(
            f"cell shapes inconsistent: W{W.shape} R{R.shape} x{x.shape} h{h.shape}"
        )
    z = x @ W.T + h @ R.T + b
    i, f, o = (0.5 * (1.0 + np.tanh(z[..., k * H : (k + 1) * H] / 2)) for k in (0, 1, 3))
    c_next = f * c + i * np.tanh(z[..., 2 * H : 3 * H])
    return o * np.tanh(c_next), c_next


def bilstm_forward(X, fwd, bwd):
    """Single-sample wrapper of the batched pass: (T, D) -> (T, 2H)."""
    if X.ndim != 2:
        raise DimensionMismatch(f"expected a (T, D) matrix, got shape {X.shape}")
    states, _ = bilstm_forward_batch(X[None], fwd, bwd, cache=False)
    return states[0]


def multi_pool(states):
    """concat(max over t, mean over t): (T, 2H) -> (4H,)."""
    return np.concatenate([states.max(axis=0), states.mean(axis=0)])


def attention_pool(states, proj, ctx):
    """Single-sample wrapper of the batched attention pool: (T, 2H) -> (2H,)."""
    pooled, _ = attention_pool_batch(states[None], proj, ctx)
    return pooled[0]


def _sig(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _naive_direction(X, W, R, b, reverse):
    """One direction, one sample: plain Python loops over (T, D) input."""
    T, D = len(X), len(X[0])
    H = len(R[0])
    h = [0.0] * H
    c = [0.0] * H
    out = [None] * T
    order = range(T - 1, -1, -1) if reverse else range(T)
    for t in order:
        z = [0.0] * (4 * H)
        for row in range(4 * H):
            acc = b[row]
            for d in range(D):
                acc += W[row][d] * X[t][d]
            for j in range(H):
                acc += R[row][j] * h[j]
            z[row] = acc
        h_new = [0.0] * H
        c_new = [0.0] * H
        for j in range(H):
            i = _sig(z[j])
            f = _sig(z[H + j])
            g = math.tanh(z[2 * H + j])
            o = _sig(z[3 * H + j])
            c_new[j] = f * c[j] + i * g
            h_new[j] = o * math.tanh(c_new[j])
        h, c = h_new, c_new
        out[t] = list(h)
    return out


def _naive_bilstm(X, fwd, bwd):
    Wf, Rf, bf = (w.tolist() for w in fwd)
    Wb, Rb, bb = (w.tolist() for w in bwd)
    rows_f = _naive_direction(X.tolist(), Wf, Rf, bf, reverse=False)
    rows_b = _naive_direction(X.tolist(), Wb, Rb, bb, reverse=True)
    return np.array([f + b for f, b in zip(rows_f, rows_b)])


def _random_params(rng, D, H):
    W = rng.normal(0, 0.6, (4 * H, D))
    R = rng.normal(0, 0.6, (4 * H, H))
    b = rng.normal(0, 0.4, 4 * H)
    return W, R, b


def _recur(X, W, R, b, reverse, cache=True):
    """One direction of the package's kernel over a (B, T, D) batch, with
    each window's rows projected as training projects them."""
    B, T, D = X.shape
    out = np.empty((B, T, R.shape[1]), X.dtype)
    pre = project(X, W).reshape(B * T, -1)
    return _direction_recur(pre, np.arange(B * T).reshape(B, T), R, b, reverse, out, cache)


def _batch_major(cache):
    """A time-major training cache as (B, T, .) arrays: the gates, each
    step's c (the zero slot before the direction's first step dropped) and
    tanh(c); plus that zero slot."""
    cs = cache["c"]
    steps, first = (cs[:-1], cs[-1]) if cache["reverse"] else (cs[1:], cs[0])
    return {
        "gates": cache["gates"].transpose(1, 0, 2),
        "c": steps.transpose(1, 0, 2),
        "tc": cache["tc"].transpose(1, 0, 2),
        "first": first,
    }


# --- the allocating step loop the in-place kernel replaced ----------------


def reference_direction(xw, R, b, reverse):
    """One direction over gathered (B, T, 4H) pre-activations xw, one new
    array per gate operation; the cache holds i, f, g, o and c as (B, T, H)
    arrays. Bit for bit the step loop scoring and training ran before the
    in-place kernel."""
    B, T, _ = xw.shape
    H = R.shape[1]
    hidden = np.empty((B, T, H), xw.dtype)
    kept = {name: np.empty((B, T, H), xw.dtype) for name in "ifgoc"}
    h = np.zeros((B, H), xw.dtype)
    c = np.zeros((B, H), xw.dtype)
    for t in range(T - 1, -1, -1) if reverse else range(T):
        z = xw[:, t] + h @ R.T + b
        e = np.exp(np.minimum(z, -z))
        s = np.maximum(e, z >= 0) / (1.0 + e)
        i, f, o = s[:, :H], s[:, H : 2 * H], s[:, 3 * H :]
        g = np.tanh(z[:, 2 * H : 3 * H])
        c = f * c + i * g
        h = o * np.tanh(c)
        hidden[:, t] = h
        for name, value in zip("ifgoc", (i, f, g, o, c)):
            kept[name][:, t] = value
    return {"h": hidden, "reverse": reverse, **kept}


def _reference_shift(a, reverse):
    out = np.zeros_like(a)
    if reverse:
        out[:, :-1] = a[:, 1:]
    else:
        out[:, 1:] = a[:, :-1]
    return out


def reference_backward(cache, X, R, dstates):
    """BPTT over a `reference_direction` cache, recomputing tanh(c), as the
    package ran it before the kernel kept tanh(c); returns (dW, dR, db)."""
    B, T, D = X.shape
    H = R.shape[1]
    reverse = cache["reverse"]
    i, f, g, o, c = (cache[name] for name in "ifgoc")
    h_prev = _reference_shift(cache["h"], reverse)
    tc = np.tanh(c)
    A = o * (1.0 - tc * tc)
    K = np.empty((B, T, 4, H), dstates.dtype)
    K[:, :, 0] = g * i * (1.0 - i)
    K[:, :, 1] = _reference_shift(c, reverse) * f * (1.0 - f)
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
    dz = dz.reshape(B * T, 4 * H)
    return dz.T @ X.reshape(B * T, D), dz.T @ h_prev.reshape(B * T, H), dz.sum(axis=0)


class TestCell:
    def test_hand_computed_scalar_case(self):
        # H=1, D=1, worked by hand with the math module
        x = np.array([0.5])
        h = np.array([0.2])
        c = np.array([-0.3])
        W = np.array([[0.1], [0.2], [0.3], [0.4]])
        R = np.array([[0.5], [-0.5], [0.25], [0.0]])
        b = np.array([0.01, 1.0, -0.02, 0.3])
        h2, c2 = lstm_cell(x, h, c, W, R, b)
        i = _sig(0.1 * 0.5 + 0.5 * 0.2 + 0.01)
        f = _sig(0.2 * 0.5 - 0.5 * 0.2 + 1.0)
        g = math.tanh(0.3 * 0.5 + 0.25 * 0.2 - 0.02)
        o = _sig(0.4 * 0.5 + 0.0 + 0.3)
        c_want = f * (-0.3) + i * g
        assert c2[0] == pytest.approx(c_want, abs=1e-12)
        assert h2[0] == pytest.approx(o * math.tanh(c_want), abs=1e-12)

    def test_zero_weights_halve_the_cell_state(self):
        # all-zero parameters: i=f=o=1/2, g=0, so c' = c/2
        H = 3
        c = np.array([0.8, -1.2, 0.25])
        h = np.zeros(H)
        x = np.ones(4)
        W = np.zeros((4 * H, 4))
        R = np.zeros((4 * H, H))
        b = np.zeros(4 * H)
        h2, c2 = lstm_cell(x, h, c, W, R, b)
        np.testing.assert_allclose(c2, c / 2, atol=1e-15)
        np.testing.assert_allclose(h2, 0.5 * np.tanh(c / 2), atol=1e-15)

    def test_shape_mismatch_rejected(self):
        W = np.zeros((8, 3))
        R = np.zeros((8, 2))
        b = np.zeros(8)
        with pytest.raises(DimensionMismatch):
            lstm_cell(np.zeros(4), np.zeros(2), np.zeros(2), W, R, b)
        with pytest.raises(DimensionMismatch):
            lstm_cell(np.zeros(3), np.zeros(5), np.zeros(5), W, R, b)


class TestSigmoid:
    def test_matches_math_on_moderate_values(self):
        xs = np.linspace(-6, 6, 41)
        got = sigmoid(xs)
        want = [_sig(v) for v in xs]
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_stable_at_extremes(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert np.isfinite(out).all()


def _masked_sigmoid(x):
    """The two-branch sigmoid written with boolean-mask gathers: the
    bit-level oracle for the mask-free form."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
class TestSigmoidBits:
    def test_random_draws_bitwise_equal_to_masked_form(self, dtype, bits):
        rng = np.random.default_rng(120)
        for scale in (1.0, 10.0, 100.0):
            x = (rng.standard_normal((257, 129)) * scale).astype(dtype)
            got = sigmoid(x)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got.view(bits), _masked_sigmoid(x).view(bits))

    def test_special_values_bitwise_equal_to_masked_form(self, dtype, bits):
        info = np.finfo(dtype)
        x = np.array(
            [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 88.7, -88.7, 1e4, -1e4,
             info.smallest_subnormal, -info.smallest_subnormal, info.tiny / 4, -info.tiny / 4],
            dtype,
        )
        with np.errstate(invalid="ignore"):
            want = _masked_sigmoid(x)
            got = sigmoid(x)
        np.testing.assert_array_equal(got.view(bits), want.view(bits))


class TestDirectionForward:
    def test_steps_match_repeated_cell_calls(self):
        rng = np.random.default_rng(121)
        B, T, D, H = 3, 6, 5, 4
        X = rng.normal(0, 1, (B, T, D))
        W, R, b = _random_params(rng, D, H)
        for reverse in (False, True):
            cache = _recur(X, W, R, b, reverse)
            steps = _batch_major(cache)
            h = np.zeros((B, H))
            c = np.zeros((B, H))
            for t in range(T - 1, -1, -1) if reverse else range(T):
                h, c = lstm_cell(X[:, t], h, c, W, R, b)
                np.testing.assert_allclose(cache["h"][:, t], h, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(steps["c"][:, t], c, rtol=1e-12, atol=1e-14)


class TestForwardWithoutCache:
    """Scoring runs the same step loop without the backward cache."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("T", [1, 8])
    def test_states_bitwise_equal_to_cached_pass(self, dtype, T):
        rng = np.random.default_rng(131 + T)
        B, D, H = 9, 7, 5
        X = rng.normal(0, 1, (B, T, D)).astype(dtype)
        fwd = tuple(w.astype(dtype) for w in _random_params(rng, D, H))
        bwd = tuple(w.astype(dtype) for w in _random_params(rng, D, H))
        cached, cache = bilstm_forward_batch(X, fwd, bwd)
        scored, none = bilstm_forward_batch(X, fwd, bwd, cache=False)
        assert none is None
        assert scored.dtype == cached.dtype == dtype
        np.testing.assert_array_equal(scored, cached)
        # each half is one direction's hidden states, bit for bit
        np.testing.assert_array_equal(scored[:, :, :H], cache["f"]["h"])
        np.testing.assert_array_equal(scored[:, :, H:], cache["b"]["h"])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_direction_keeps_only_hidden_states(self, reverse):
        rng = np.random.default_rng(141)
        X = rng.normal(0, 1, (4, 6, 3)).astype(np.float32)
        W, R, b = (w.astype(np.float32) for w in _random_params(rng, 3, 2))
        full = _recur(X, W, R, b, reverse)
        lean = _recur(X, W, R, b, reverse, cache=False)
        assert set(full) == {"gates", "c", "tc", "h", "reverse"}
        # time-major: step t's gates, c and tanh(c) are one contiguous block
        assert full["gates"].shape == (6, 4, 8)
        assert full["c"].shape == (7, 4, 2)  # one zero slot before the first step
        assert full["tc"].shape == (6, 4, 2)
        assert full["h"].shape == (4, 6, 2)
        assert all(full[k][0].flags.c_contiguous for k in ("gates", "c", "tc"))
        assert set(lean) == {"h", "reverse"}
        _assert_bits(lean["h"], full["h"], np.uint32, "h")


_BITS = [(np.float32, np.uint32), (np.float64, np.uint64)]


def _assert_bits(got, want, bits, name=""):
    assert got.dtype == want.dtype, name
    np.testing.assert_array_equal(got.view(bits), want.view(bits), err_msg=name)


class TestKernelBits:
    """The in-place kernel against the allocating step loop it replaced: the
    same operations in the same order, so every output bit agrees."""

    @pytest.mark.parametrize("dtype,bits", _BITS)
    @pytest.mark.parametrize("T", [1, 3, 8])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("H", [5, 64])
    def test_states_cache_and_gradients(self, dtype, bits, T, reverse, H):
        rng = np.random.default_rng(161 + T + 10 * reverse + H)
        B, D = 9, 7
        X = rng.normal(0, 1, (B, T, D)).astype(dtype)
        W, R, b = (w.astype(dtype) for w in _random_params(rng, D, H))
        want = reference_direction(project(X, W), R, b, reverse)
        got = _recur(X, W, R, b, reverse)
        lean = _recur(X, W, R, b, reverse, cache=False)
        _assert_bits(got["h"], want["h"], bits, "h")
        _assert_bits(lean["h"], want["h"], bits, "h without cache")
        steps = _batch_major(got)
        for k, name in enumerate("ifgo"):
            _assert_bits(steps["gates"][:, :, k * H : (k + 1) * H], want[name], bits, name)
        _assert_bits(steps["c"], want["c"], bits, "c")
        _assert_bits(steps["tc"], np.tanh(want["c"]), bits, "tanh(c)")
        _assert_bits(steps["first"], np.zeros((B, H), dtype), bits, "zero slot")

        dstates = rng.normal(0, 1, (B, T, H)).astype(dtype)
        grads = (np.empty((4 * H, D), dtype), np.empty((4 * H, H), dtype), np.empty(4 * H, dtype))
        _direction_backward(got, X, R, dstates, grads)
        for name, g, w in zip(("dW", "dR", "db"), grads, reference_backward(want, X, R, dstates)):
            _assert_bits(g, w, bits, name)

    @pytest.mark.parametrize("dtype,bits", _BITS)
    @pytest.mark.parametrize("cache", [False, True])
    def test_windows_sharing_rows_read_the_projected_rows(self, dtype, bits, cache):
        # stride 1: each row sits in up to T windows, which read it in place
        rng = np.random.default_rng(171)
        N, T, D, H = 40, 8, 7, 5
        rows = rng.normal(0, 1, (N, D)).astype(dtype)
        fwd = tuple(w.astype(dtype) for w in _random_params(rng, D, H))
        bwd = tuple(w.astype(dtype) for w in _random_params(rng, D, H))
        take = np.arange(N - T + 1)[rng.permutation(N - T + 1), None] + np.arange(T)
        pre = (project(rows, fwd[0]), project(rows, bwd[0]))
        states, lstm_cache = bilstm_recur(pre, take, fwd[1:], bwd[1:], cache)
        assert (lstm_cache is None) != cache
        want_f = reference_direction(pre[0][take], *fwd[1:], reverse=False)["h"]
        want_b = reference_direction(pre[1][take], *bwd[1:], reverse=True)["h"]
        _assert_bits(states, np.concatenate([want_f, want_b], axis=2), bits)

    @pytest.mark.parametrize("row", [-1, 5])
    def test_rows_outside_the_projection_rejected(self, row):
        rng = np.random.default_rng(181)
        W, R, b = _random_params(rng, 3, 2)
        pre = project(rng.normal(0, 1, (5, 3)), W)
        with pytest.raises(DimensionMismatch, match="5 pre-activation rows"):
            bilstm_recur((pre, pre), np.array([[0, 1], [row, 2]]), (R, b), (R, b))


def _per_step_backward(cache, X, R, dstates):
    """Oracle: backward with the weight-gradient products inside the step loop."""
    B, T, D = X.shape
    H = R.shape[1]
    dW, dR, db = np.zeros((4 * H, D)), np.zeros((4 * H, H)), np.zeros(4 * H)
    dh, dc = np.zeros((B, H)), np.zeros((B, H))
    first, prev = (T - 1, 1) if cache["reverse"] else (0, -1)
    zeros = np.zeros((B, H))
    for t in range(T) if cache["reverse"] else range(T - 1, -1, -1):
        i, f, g, o = (cache[k][:, t] for k in "ifgo")
        h_prev = zeros if t == first else cache["h"][:, t + prev]
        c_prev = zeros if t == first else cache["c"][:, t + prev]
        hc = np.tanh(cache["c"][:, t])
        dh_t = dstates[:, t] + dh
        do = dh_t * hc
        dc_t = dh_t * o * (1.0 - hc * hc) + dc
        dz = np.concatenate(
            [dc_t * g * i * (1.0 - i), dc_t * c_prev * f * (1.0 - f),
             dc_t * i * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        dW += dz.T @ X[:, t]
        dR += dz.T @ h_prev
        db += dz.sum(axis=0)
        dh = dz @ R
        dc = dc_t * f
    return dW, dR, db


class TestDirectionBackward:
    """The step loop carries only dh/dc; dW and dR are one product each after it."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("T", [1, 3, 8])
    def test_matches_per_step_products(self, T, reverse):
        rng = np.random.default_rng(151 + T + 10 * reverse)
        B, D, H = 6, 7, 5
        X = rng.normal(0, 1, (B, T, D))
        W, R, b = _random_params(rng, D, H)
        dstates = rng.normal(0, 1, (B, T, H))
        want = _per_step_backward(reference_direction(project(X, W), R, b, reverse), X, R, dstates)
        got = (np.empty((4 * H, D)), np.empty((4 * H, H)), np.empty(4 * H))
        _direction_backward(_recur(X, W, R, b, reverse), X, R, dstates, got)
        for name, g, w in zip(("dW", "dR", "db"), got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, err_msg=name)


class TestBilstmForward:
    def test_agrees_with_naive_reference_on_100_instances(self):
        rng = np.random.default_rng(401)
        for trial in range(100):
            T = int(rng.integers(1, 7))
            D = int(rng.integers(1, 6))
            H = int(rng.integers(1, 5))
            X = rng.normal(0, 1.0, (T, D))
            fwd = _random_params(rng, D, H)
            bwd = _random_params(rng, D, H)
            got = bilstm_forward(X, fwd, bwd)
            want = _naive_bilstm(X, fwd, bwd)
            assert got.shape == (T, 2 * H)
            np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)

    def test_batch_rows_match_single_sample_path(self):
        rng = np.random.default_rng(77)
        D, H, T, B = 5, 3, 6, 4
        X = rng.normal(0, 1, (B, T, D))
        fwd = _random_params(rng, D, H)
        bwd = _random_params(rng, D, H)
        states, _ = bilstm_forward_batch(X, fwd, bwd)
        for i in range(B):
            np.testing.assert_allclose(states[i], bilstm_forward(X[i], fwd, bwd), atol=1e-12)

    def test_batch_order_does_not_change_per_sample_states(self):
        rng = np.random.default_rng(78)
        D, H, T, B = 4, 2, 5, 6
        X = rng.normal(0, 1, (B, T, D))
        fwd = _random_params(rng, D, H)
        bwd = _random_params(rng, D, H)
        states, _ = bilstm_forward_batch(X, fwd, bwd)
        perm = rng.permutation(B)
        permuted, _ = bilstm_forward_batch(X[perm], fwd, bwd)
        np.testing.assert_array_equal(permuted, states[perm])

    def test_backward_direction_is_forward_on_reversed_input(self):
        rng = np.random.default_rng(79)
        D, H, T = 4, 3, 7
        X = rng.normal(0, 1, (T, D))
        p = _random_params(rng, D, H)
        states = bilstm_forward(X, p, p)
        flipped = bilstm_forward(X[::-1].copy(), p, p)
        np.testing.assert_allclose(states[:, H:], flipped[::-1, :H], atol=1e-12)

    def test_dtype_follows_input(self):
        rng = np.random.default_rng(80)
        X64 = rng.normal(0, 1, (3, 4))
        p64 = _random_params(rng, 4, 2)
        assert bilstm_forward(X64, p64, p64).dtype == np.float64
        p32 = tuple(w.astype(np.float32) for w in p64)
        assert bilstm_forward(X64.astype(np.float32), p32, p32).dtype == np.float32

    def test_rejects_3d_input_on_single_sample_wrapper(self):
        p = _random_params(np.random.default_rng(0), 3, 2)
        with pytest.raises(DimensionMismatch):
            bilstm_forward(np.zeros((2, 3, 3)), p, p)

    def test_rejects_inconsistent_weight_shapes(self):
        rng = np.random.default_rng(81)
        fwd = _random_params(rng, 4, 2)
        bad = (fwd[0][:, :3], fwd[1], fwd[2])  # W says D=3, input has D=4
        with pytest.raises(DimensionMismatch):
            bilstm_forward(rng.normal(0, 1, (5, 4)), bad, fwd)


class TestMultiPool:
    def test_output_is_max_then_mean(self):
        states = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 4.0]])
        got = multi_pool(states)
        np.testing.assert_allclose(got, [3.0, 4.0, 1.0, 2.0 / 3.0], atol=1e-15)
        assert got.shape == (4,)

    def test_permutation_invariance_exact_on_integer_states(self):
        # integer-valued floats sum exactly in any order, so equality is bitwise
        rng = np.random.default_rng(90)
        states = rng.integers(-50, 50, (12, 8)).astype(np.float64)
        base = multi_pool(states)
        for _ in range(50):
            perm = rng.permutation(len(states))
            np.testing.assert_array_equal(multi_pool(states[perm]), base)

    def test_permutation_invariance_on_gaussian_states(self):
        rng = np.random.default_rng(91)
        states = rng.normal(0, 1, (15, 6))
        base = multi_pool(states)
        for _ in range(20):
            perm = rng.permutation(len(states))
            np.testing.assert_allclose(multi_pool(states[perm]), base, atol=1e-12)

    def test_batch_variant_matches_per_row(self):
        rng = np.random.default_rng(92)
        states = rng.normal(0, 1, (5, 7, 4))
        pooled, cache = multi_pool_batch(states)
        assert pooled.shape == (5, 8)
        assert cache["T"] == 7
        for i in range(5):
            np.testing.assert_allclose(pooled[i], multi_pool(states[i]), atol=1e-12)

    def test_single_timestep_max_equals_mean(self):
        states = np.array([[0.3, -0.7, 2.0]])
        got = multi_pool(states)
        np.testing.assert_array_equal(got[:3], got[3:])

    @pytest.mark.parametrize("dtype,bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_backward_bitwise_equal_to_add_at_with_tied_maxima(self, dtype, bits):
        # integer states in a narrow range: most (b, s) columns tie for max
        rng = np.random.default_rng(93)
        B, T, S = 64, 8, 128
        states = rng.integers(-2, 3, (B, T, S)).astype(dtype)
        dpooled = rng.normal(0, 1, (B, 2 * S)).astype(dtype)
        _, cache = multi_pool_batch(states)
        assert ((states == states.max(axis=1, keepdims=True)).sum(axis=1) > 1).mean() > 0.5
        want = np.broadcast_to((dpooled[:, S:] / T)[:, None, :], states.shape).copy()
        np.add.at(want, (np.arange(B)[:, None], cache["argmax"], np.arange(S)[None, :]), dpooled[:, :S])
        got = multi_pool_backward_batch(cache, states.shape, dpooled)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got.view(bits), want.view(bits))


class TestAttentionPool:
    def test_zero_projection_degenerates_to_mean(self):
        # proj = 0 makes every score equal, so the weights are uniform
        rng = np.random.default_rng(100)
        states = rng.normal(0, 1, (6, 4))
        proj = np.zeros((3, 4))
        ctx = rng.normal(0, 1, 3)
        np.testing.assert_allclose(attention_pool(states, proj, ctx), states.mean(axis=0), atol=1e-12)

    def test_weights_are_a_distribution(self):
        rng = np.random.default_rng(101)
        states = rng.normal(0, 1, (3, 8, 6))
        proj = rng.normal(0, 0.5, (4, 6))
        ctx = rng.normal(0, 0.5, 4)
        _, cache = attention_pool_batch(states, proj, ctx)
        w = cache["w"]
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=1), np.ones(3), atol=1e-12)

    def test_pooled_stays_inside_timestep_envelope(self):
        # convex combination: each output feature within per-feature min/max
        rng = np.random.default_rng(102)
        states = rng.normal(0, 1, (1, 9, 5))
        proj = rng.normal(0, 1, (3, 5))
        ctx = rng.normal(0, 1, 3)
        pooled, _ = attention_pool_batch(states, proj, ctx)
        assert (pooled[0] <= states[0].max(axis=0) + 1e-12).all()
        assert (pooled[0] >= states[0].min(axis=0) - 1e-12).all()

    def test_score_shift_invariance_via_large_offsets(self):
        # the max-subtraction keeps huge scores finite
        states = np.full((1, 4, 2), 500.0)
        proj = np.ones((2, 2))
        ctx = np.ones(2) * 100
        pooled, cache = attention_pool_batch(states, proj, ctx)
        assert np.isfinite(pooled).all()
        np.testing.assert_allclose(cache["w"].sum(axis=1), [1.0], atol=1e-12)

    def test_single_timestep_returns_that_state(self):
        rng = np.random.default_rng(103)
        states = rng.normal(0, 1, (2, 1, 4))
        proj = rng.normal(0, 1, (3, 4))
        ctx = rng.normal(0, 1, 3)
        pooled, _ = attention_pool_batch(states, proj, ctx)
        np.testing.assert_allclose(pooled, states[:, 0], atol=1e-12)


class TestLastStatePool:
    def test_picks_final_forward_and_initial_backward_rows(self):
        rng = np.random.default_rng(110)
        H = 3
        states = rng.normal(0, 1, (4, 6, 2 * H))
        pooled = last_state_pool_batch(states, H)
        np.testing.assert_array_equal(pooled[:, :H], states[:, -1, :H])
        np.testing.assert_array_equal(pooled[:, H:], states[:, 0, H:])

    def test_single_timestep_passthrough(self):
        rng = np.random.default_rng(111)
        states = rng.normal(0, 1, (2, 1, 4))
        np.testing.assert_array_equal(last_state_pool_batch(states, 2), states[:, 0])
