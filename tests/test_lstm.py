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
    _direction_forward,
    attention_pool,
    attention_pool_batch,
    bilstm_forward,
    bilstm_forward_batch,
    last_state_pool_batch,
    lstm_cell,
    multi_pool,
    multi_pool_batch,
    sigmoid,
)


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
            cache = _direction_forward(X, W, R, b, reverse)
            h = np.zeros((B, H))
            c = np.zeros((B, H))
            for t in range(T - 1, -1, -1) if reverse else range(T):
                h, c = lstm_cell(X[:, t], h, c, W, R, b)
                np.testing.assert_allclose(cache["h"][:, t], h, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(cache["c"][:, t], c, rtol=1e-12, atol=1e-14)


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
