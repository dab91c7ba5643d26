"""Finite-difference verification of every analytic gradient.

Central differences in float64 against the exact loss the training step
uses. A tiny model keeps the parameter count low enough to sweep every
element in seconds.
"""

import numpy as np
import pytest

from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    init_checkpoint,
)
from profilebench.models.lstm import (
    attention_pool_backward_batch,
    attention_pool_batch,
    multi_pool_backward_batch,
    multi_pool_batch,
)
from profilebench.models.training import (
    LAMBDA_ALIGN,
    LAMBDA_MOTIV,
    Batch,
    _ce_and_grad,
    compute_gradients,
    dropout_mask_for_step,
    forward_batch,
)

D, H, T, P = 6, 4, 5, 3
EPS = 1e-5


def _tiny_checkpoint(pooling, seed=11):
    return init_checkpoint(
        input_dim=D,
        hidden=H,
        n_classes=P,
        pooling=pooling,
        seed=seed,
        label_space_tag="test",
        schema_version=1,
        attention_size=3,
        dtype=np.float64,
    )


def _tiny_batch(seed=5, B=2):
    rng = np.random.default_rng(seed)
    return Batch(
        X=rng.normal(0, 1, (B, T, D)),
        y_profile=rng.integers(0, P, B),
        y_align=rng.integers(0, 9, B),
        y_motiv=rng.integers(0, 4, B),
    )


def _loss_at(batch, ckpt, mask):
    from profilebench.models.training import loss_fn

    logits, _ = forward_batch(batch.X, ckpt, mask)
    return loss_fn(
        logits, batch.y_profile, batch.y_align, batch.y_motiv, LAMBDA_ALIGN, LAMBDA_MOTIV,
    )


def _check_all_params(pooling, mask_rate=0.0):
    ckpt = _tiny_checkpoint(pooling)
    # nudge heads off zero so their gradients are not trivially symmetric
    rng = np.random.default_rng(21)
    for name in ckpt.params:
        if name.startswith("head_"):
            ckpt.params[name][...] = rng.normal(0, 0.3, ckpt.params[name].shape)
    batch = _tiny_batch()
    readout = ckpt.params["head_profile_W"].shape[1]
    mask = dropout_mask_for_step((batch.X.shape[0], readout), mask_rate, 3, 0, np.float64)
    _, grads = compute_gradients(batch, ckpt, mask)
    worst = 0.0
    for name in ckpt.layout:
        param = ckpt.params[name]
        analytic = grads[name]
        assert analytic.shape == param.shape, name
        flat = param.reshape(-1)
        ana = analytic.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + EPS
            up = _loss_at(batch, ckpt, mask)
            flat[idx] = orig - EPS
            down = _loss_at(batch, ckpt, mask)
            flat[idx] = orig
            numeric = (up - down) / (2 * EPS)
            err = abs(ana[idx] - numeric) / max(abs(ana[idx]), abs(numeric), 1e-6)
            worst = max(worst, err)
            assert err < 1e-4, f"{name}[{idx}]: analytic {ana[idx]} vs fd {numeric}"
    return worst


class TestFullModelGradients:
    def test_multipool_every_parameter(self):
        worst = _check_all_params(POOL_MULTI)
        assert worst < 1e-4

    def test_attention_every_parameter(self):
        worst = _check_all_params(POOL_ATTENTION)
        assert worst < 1e-4

    def test_last_state_every_parameter(self):
        worst = _check_all_params(POOL_LAST)
        assert worst < 1e-4

    def test_multipool_with_dropout_mask(self):
        worst = _check_all_params(POOL_MULTI, mask_rate=0.4)
        assert worst < 1e-4


class TestPoolingBackward:
    def test_multi_pool_backward_fd(self):
        rng = np.random.default_rng(30)
        states = rng.normal(0, 1, (2, 5, 6))
        K = rng.normal(0, 1, (2, 12))

        def objective(s):
            pooled, _ = multi_pool_batch(s)
            return float((pooled * K).sum())

        pooled, cache = multi_pool_batch(states)
        dstates = multi_pool_backward_batch(cache, states.shape, K.copy())
        flat = states.reshape(-1)
        for idx in rng.choice(flat.size, 25, replace=False):
            orig = flat[idx]
            flat[idx] = orig + EPS
            up = objective(states)
            flat[idx] = orig - EPS
            down = objective(states)
            flat[idx] = orig
            numeric = (up - down) / (2 * EPS)
            got = dstates.reshape(-1)[idx]
            assert abs(got - numeric) < 1e-6, f"state[{idx}]"

    def test_attention_backward_fd_all_inputs(self):
        rng = np.random.default_rng(31)
        states = rng.normal(0, 1, (2, 4, 6))
        proj = rng.normal(0, 0.7, (3, 6))
        ctx = rng.normal(0, 0.7, 3)
        K = rng.normal(0, 1, (2, 6))

        def objective():
            pooled, _ = attention_pool_batch(states, proj, ctx)
            return float((pooled * K).sum())

        _, cache = attention_pool_batch(states, proj, ctx)
        dstates, dproj, dctx = attention_pool_backward_batch(cache, states, proj, ctx, K.copy())
        for arr, grad in ((states, dstates), (proj, dproj), (ctx, dctx)):
            flat = arr.reshape(-1)
            picks = rng.choice(flat.size, min(20, flat.size), replace=False)
            for idx in picks:
                orig = flat[idx]
                flat[idx] = orig + EPS
                up = objective()
                flat[idx] = orig - EPS
                down = objective()
                flat[idx] = orig
                numeric = (up - down) / (2 * EPS)
                assert abs(grad.reshape(-1)[idx] - numeric) < 1e-6


class TestCrossEntropyGradient:
    def test_fd_on_logits(self):
        rng = np.random.default_rng(40)
        logits = rng.normal(0, 1.5, (4, 6))
        y = rng.integers(0, 6, 4)
        _, grad = _ce_and_grad(logits.copy(), y, 0.7)
        flat = logits.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + EPS
            up, _ = _ce_and_grad(logits, y, 0.7)
            flat[idx] = orig - EPS
            down, _ = _ce_and_grad(logits, y, 0.7)
            flat[idx] = orig
            numeric = (up - down) / (2 * EPS)
            assert abs(grad.reshape(-1)[idx] - numeric) < 1e-8

    def test_gradient_rows_sum_to_zero(self):
        # softmax minus one-hot: each row's entries cancel
        rng = np.random.default_rng(41)
        logits = rng.normal(0, 2, (5, 9))
        _, grad = _ce_and_grad(logits, rng.integers(0, 9, 5), 1.0)
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(5), atol=1e-12)

    def test_loss_value_uniform_logits(self):
        logits = np.zeros((3, 36))
        loss, _ = _ce_and_grad(logits, np.array([0, 7, 35]), 1.0)
        assert loss == pytest.approx(np.log(36), abs=1e-12)
