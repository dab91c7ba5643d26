"""Optimizer loop behavior: overfitting, early stopping, determinism."""

import tracemalloc

import numpy as np
import pytest

import test_lstm as lstm_oracles
from test_features import game_rows, window_rows
import test_taxonomy as taxonomy_oracles

from profilebench.errors import (
    ConfigInvalid,
    DegenerateData,
    DimensionMismatch,
    EmptySplit,
    NonFiniteLoss,
    SpaceMismatch,
)
from profilebench import pipeline
from profilebench.dataset import window_starts
from profilebench.features import GameRows, RowStore, SequenceSample
from profilebench.models import lstm, training
from profilebench.models.baseline import train_baseline
from profilebench.models.checkpoint import POOL_ATTENTION, POOL_LAST, POOL_MULTI, init_checkpoint
from profilebench.models.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Batch,
    TrainConfig,
    WindowBatcher,
    adam_update,
    clip_gradients,
    compute_gradients,
    forward_batch,
    loss_fn,
    predict_main,
    space_labels,
    train,
    train_step,
)
from profilebench.taxonomy import (
    LabelSpace,
    LabelSpaceKind,
    Profile,
    all_profiles,
)

PROFILE_SPACE = LabelSpace(LabelSpaceKind.PROFILE36)


def _tiny_ckpt(n_classes=4, D=6, H=8, seed=0, dtype=np.float64):
    return init_checkpoint(
        input_dim=D,
        hidden=H,
        n_classes=n_classes,
        pooling=POOL_MULTI,
        seed=seed,
        label_space_tag=PROFILE_SPACE.tag,
        schema_version=1,
        dtype=dtype,
    )


def _moments(ckpt):
    """Fresh Adam moments (m, v) for the checkpoint's flat vector."""
    return np.zeros_like(ckpt.flat), np.zeros_like(ckpt.flat)


def _toy_samples(n_per_class, classes, T=6, D=6, seed=0, scale=2.0):
    """Linearly separable toy: class k gets a bump on feature k % D."""
    rng = np.random.default_rng(seed)
    profiles = all_profiles()
    out = []
    for k in classes:
        for i in range(n_per_class):
            X = rng.normal(0, 0.3, (T, D))
            X[:, k % D] += scale
            out.append(
                SequenceSample(
                    game_id=k * 10_000 + i,
                    profile=profiles[k],
                    window=(0, T),
                    game=X.astype(np.float32),
                )
            )
    return out


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"learning_rate": 0.0},
            {"batch_size": 0},
            {"epochs": 0},
            {"dropout": 1.0},
            {"dropout": -0.1},
            {"patience": -1},
            {"hidden": 0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigInvalid):
            TrainConfig(**kw)


class TestLoss:
    def test_initial_loss_is_log_class_count_combination(self):
        # zero-init heads give uniform logits on every head
        ckpt = _tiny_ckpt(n_classes=36)
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (3, 5, 6))
        logits, _ = forward_batch(X, ckpt)
        loss = loss_fn(
            logits,
            np.array([0, 5, 35]),
            np.array([1, 4, 8]),
            np.array([0, 2, 3]),
            0.5,
            0.5,
        )
        want = np.log(36) + 0.5 * np.log(9) + 0.5 * np.log(4)
        assert loss == pytest.approx(want, rel=1e-9)

    def test_lambda_weights_scale_aux_terms(self):
        ckpt = _tiny_ckpt(n_classes=36)
        X = np.random.default_rng(2).normal(0, 1, (2, 4, 6))
        logits, _ = forward_batch(X, ckpt)
        y = (np.array([0, 1]), np.array([2, 3]), np.array([1, 0]))
        base = loss_fn(logits, *y, 0.0, 0.0)
        assert base == pytest.approx(np.log(36), rel=1e-9)
        heavier = loss_fn(logits, *y, 1.0, 1.0)
        assert heavier == pytest.approx(np.log(36) + np.log(9) + np.log(4), rel=1e-9)


class TestScoringForward:
    @pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_ATTENTION, POOL_LAST])
    def test_logits_bitwise_equal_without_any_cache(self, pooling):
        ckpt = init_checkpoint(6, 8, 4, pooling, 5, PROFILE_SPACE.tag, 1)
        X = np.random.default_rng(4).normal(0, 1, (7, 5, 6))
        cached, cache = forward_batch(X, ckpt)
        scored, lean = forward_batch(X, ckpt, cache=False)
        assert lean["lstm"] is None and lean["pool"] is None
        assert (cache["pool"] is None) == (pooling == POOL_LAST)
        for head in cached:
            assert scored[head].tobytes() == cached[head].tobytes()


class TestTrainStep:
    def test_single_batch_overfits(self):
        # loss collapses on a memorizable batch within 200 steps
        ckpt = _tiny_ckpt(n_classes=4, H=16)
        rng = np.random.default_rng(3)
        B, T, D = 8, 5, 6
        batch = Batch(
            X=rng.normal(0, 1, (B, T, D)),
            y_profile=np.arange(B) % 4,
            y_align=np.arange(B) % 9,
            y_motiv=np.arange(B) % 4,
        )
        config = TrainConfig(learning_rate=1e-2, dropout=0.0)
        moments = _moments(ckpt)
        losses = [train_step(batch, ckpt, moments, config, 0, step) for step in range(200)]
        assert losses[-1] < 0.05
        assert losses[-1] < losses[0]

    def test_loss_decreases_from_start(self):
        ckpt = _tiny_ckpt(n_classes=4)
        rng = np.random.default_rng(4)
        batch = Batch(
            X=rng.normal(0, 1, (6, 4, 6)),
            y_profile=rng.integers(0, 4, 6),
            y_align=rng.integers(0, 9, 6),
            y_motiv=rng.integers(0, 4, 6),
        )
        config = TrainConfig(learning_rate=1e-2, dropout=0.0)
        moments = _moments(ckpt)
        first = train_step(batch, ckpt, moments, config, 0, 0)
        for step in range(1, 30):
            last = train_step(batch, ckpt, moments, config, 0, step)
        assert last < first

    def test_nonfinite_input_raises(self):
        # inf saturates the gates (finite loss) but blows up the gradients,
        # which must be caught before they reach the optimizer
        ckpt = _tiny_ckpt(n_classes=4)
        X = np.zeros((2, 3, 6))
        X[0, 0, 0] = np.inf
        batch = Batch(
            X=X,
            y_profile=np.array([0, 1]),
            y_align=np.array([0, 1]),
            y_motiv=np.array([0, 1]),
        )
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLoss):
            train_step(batch, ckpt, _moments(ckpt), TrainConfig(dropout=0.0), 0, 0)

    def test_updates_change_parameters_in_place(self):
        ckpt = _tiny_ckpt(n_classes=4)
        before = {k: v.copy() for k, v in ckpt.params.items()}
        rng = np.random.default_rng(5)
        batch = Batch(
            X=rng.normal(0, 1, (4, 3, 6)),
            y_profile=rng.integers(0, 4, 4),
            y_align=rng.integers(0, 9, 4),
            y_motiv=rng.integers(0, 4, 4),
        )
        # zero-init heads pass no gradient to the recurrent weights on the
        # first step; they do from the second step onward
        moments = _moments(ckpt)
        train_step(batch, ckpt, moments, TrainConfig(dropout=0.0), 0, 0)
        changed = [k for k in before if not np.array_equal(before[k], ckpt.params[k])]
        assert "head_profile_W" in changed
        assert "fwd_W" not in changed
        train_step(batch, ckpt, moments, TrainConfig(dropout=0.0), 0, 1)
        changed = [k for k in before if not np.array_equal(before[k], ckpt.params[k])]
        assert "fwd_W" in changed
        assert "bwd_W" in changed


def _per_name_adam(params, m, v, grads, step, config):
    """Oracle: Adam as a loop over named parameter arrays."""
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1 - b1) * g
        v[name] *= b2
        v[name] += (1 - b2) * g * g
        params[name] -= config.learning_rate * (m[name] / bias1) / (
            np.sqrt(v[name] / bias2) + eps
        )


class TestFlatOptimizer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_bitwise_equal_to_per_name_loop(self, dtype):
        ckpt = _tiny_ckpt(n_classes=5, dtype=dtype)
        rng = np.random.default_rng(23)
        ckpt.flat[...] = rng.normal(0, 1, ckpt.flat.size)
        params = {k: p.copy() for k, p in ckpt.params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        config = TrainConfig(learning_rate=3e-3)
        flat_m, flat_v = _moments(ckpt)
        for step in range(1, 6):
            flat = rng.normal(0, 10.0 ** (step - 3), ckpt.flat.size).astype(dtype)
            grads = ckpt.views(flat)
            _per_name_adam(params, m, v, {k: g.copy() for k, g in grads.items()}, step, config)
            adam_update(ckpt.flat, flat, (flat_m, flat_v), step, config)
            for name in params:
                assert ckpt.params[name].dtype == dtype
                np.testing.assert_array_equal(ckpt.params[name], params[name], err_msg=name)
            for flat_moment, moments in ((flat_m, m), (flat_v, v)):
                want = np.concatenate([a.ravel() for a in moments.values()])
                np.testing.assert_array_equal(flat_moment, want)

    @pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_ATTENTION, POOL_LAST])
    def test_gradients_fill_every_slot_of_out(self, pooling):
        ckpt = init_checkpoint(
            input_dim=6, hidden=5, n_classes=4, pooling=pooling, seed=2,
            label_space_tag=PROFILE_SPACE.tag, schema_version=1, attention_size=3,
            dtype=np.float64,
        )
        rng = np.random.default_rng(31)
        ckpt.flat[...] = rng.normal(0, 0.5, ckpt.flat.size)
        batch = Batch(
            X=rng.normal(0, 1, (3, 4, 6)),
            y_profile=rng.integers(0, 4, 3),
            y_align=rng.integers(0, 9, 3),
            y_motiv=rng.integers(0, 4, 3),
        )
        out = np.full_like(ckpt.flat, np.nan)
        _, grads = compute_gradients(batch, ckpt, None, out=out)
        assert np.isfinite(out).all()
        _, fresh = compute_gradients(batch, ckpt, None)
        assert list(grads) == list(fresh) == list(ckpt.layout)
        for name, g in grads.items():
            assert np.shares_memory(g, out) and g.shape == ckpt.params[name].shape
            np.testing.assert_array_equal(g, fresh[name])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_clip_norm_and_scaling(self, dtype, scale):
        g = (np.random.default_rng(29).normal(0, scale, 5000)).astype(dtype)
        want = float(np.sqrt((g.astype(np.float64) ** 2).sum()))
        clip_norm = 5.0
        before = g.copy()
        norm = clip_gradients(g, clip_norm)
        assert norm == pytest.approx(want, rel=1e-6)
        if want > clip_norm:
            clipped = np.sqrt((g.astype(np.float64) ** 2).sum())
            np.testing.assert_allclose(clipped, clip_norm, rtol=1e-5)
            np.testing.assert_array_equal(g, before * (clip_norm / norm))
        else:
            np.testing.assert_array_equal(g, before)


class TestTrainLoop:
    def test_separable_toy_reaches_full_val_accuracy(self):
        classes = [0, 9, 20, 31]
        train_s = _toy_samples(12, classes, seed=10)
        val_s = _toy_samples(4, classes, seed=11)
        config = TrainConfig(
            learning_rate=5e-3, batch_size=16, epochs=20, dropout=0.0, patience=20, hidden=12,
        )
        ckpt = init_checkpoint(6, 12, 36, POOL_MULTI, 7, PROFILE_SPACE.tag, 1)
        best, history = train(train_s, val_s, PROFILE_SPACE, ckpt, config, 0)
        assert max(h["val_accuracy"] for h in history) == 1.0

    def test_returns_checkpoint_from_best_epoch(self):
        classes = [0, 9]
        train_s = _toy_samples(8, classes, seed=20, scale=0.8)
        val_s = _toy_samples(6, classes, seed=21, scale=0.8)
        config = TrainConfig(
            learning_rate=5e-3, batch_size=8, epochs=6, dropout=0.0, patience=6, hidden=8,
        )
        ckpt = init_checkpoint(6, 8, 36, POOL_MULTI, 8, PROFILE_SPACE.tag, 1)
        best, history = train(train_s, val_s, PROFILE_SPACE, ckpt, config, 0)
        best_acc = max(h["val_accuracy"] for h in history)
        y_val = space_labels([s.profile.index for s in val_s], PROFILE_SPACE)[0]
        preds, labels = predict_main(WindowBatcher(val_s, best.flat.dtype), y_val, best)
        assert float((preds == labels).mean()) == pytest.approx(best_acc, abs=1e-12)

    def test_patience_zero_stops_on_first_regression(self):
        classes = [0, 9]
        train_s = _toy_samples(8, classes, seed=30)
        val_s = _toy_samples(4, classes, seed=31)
        config = TrainConfig(
            learning_rate=5e-3, batch_size=8, epochs=50, dropout=0.0, patience=0, hidden=8,
        )
        ckpt = init_checkpoint(6, 8, 36, POOL_MULTI, 9, PROFILE_SPACE.tag, 1)
        _, history = train(train_s, val_s, PROFILE_SPACE, ckpt, config, 0)
        accs = [h["val_accuracy"] for h in history]
        # every epoch except the last strictly improved on the running best
        for i in range(1, len(accs) - 1):
            assert accs[i] > max(accs[:i])
        if len(accs) < 50:
            assert accs[-1] <= max(accs[:-1])

    def test_training_is_deterministic(self):
        classes = [0, 9, 20]
        config = TrainConfig(
            learning_rate=5e-3, batch_size=8, epochs=4, dropout=0.2, patience=4, hidden=8,
        )
        results = []
        for _ in range(2):
            train_s = _toy_samples(6, classes, seed=40)
            val_s = _toy_samples(3, classes, seed=41)
            ckpt = init_checkpoint(6, 8, 36, POOL_MULTI, 10, PROFILE_SPACE.tag, 1)
            best, history = train(train_s, val_s, PROFILE_SPACE, ckpt, config, 5)
            results.append((best, history))
        assert results[0][1] == results[1][1]
        for k in results[0][0].params:
            np.testing.assert_array_equal(results[0][0].params[k], results[1][0].params[k])

    @pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_ATTENTION, POOL_LAST])
    def test_two_epochs_bitwise_equal_to_reference_kernels(self, pooling, monkeypatch):
        # the allocating step loop and its batch-major BPTT, swapped in for
        # the in-place kernel and the time-major backward
        def reference_recur(pre, take, R, b, reverse, out, cache=True, ws=None):
            pre = pre(lstm.Workspace(out.dtype)) if callable(pre) else pre
            kept = lstm_oracles.reference_direction(pre[take], R, b, reverse)
            out[...] = kept["h"]
            return {**kept, "h": out} if cache else {"h": out, "reverse": reverse}

        def reference_backward(cache, X, R, dstates, out, ws=None):
            for got, want in zip(out, lstm_oracles.reference_backward(cache, X, R, dstates)):
                got[...] = want

        classes = [0, 9, 20]
        config = TrainConfig(
            learning_rate=5e-3, batch_size=8, epochs=2, dropout=0.2, patience=2, hidden=8,
        )
        runs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(lstm, "_direction_recur", reference_recur)
                monkeypatch.setattr(lstm, "_direction_backward", reference_backward)
            train_s = _toy_samples(6, classes, T=5, seed=42) + _toy_samples(3, classes, T=3, seed=43)
            val_s = _toy_samples(3, classes, seed=44)
            ckpt = init_checkpoint(6, 8, 36, pooling, 12, PROFILE_SPACE.tag, 1, attention_size=5)
            best, history = train(train_s, val_s, PROFILE_SPACE, ckpt, config, 6)
            runs.append((ckpt, best, history))
        kernel, reference = runs
        assert kernel[0].flat.dtype == np.float32 and len(kernel[2]) == 2
        assert kernel[2] == reference[2]
        for got, want in zip(kernel[:2], reference[:2]):  # after epoch 2, and the best epoch
            np.testing.assert_array_equal(got.flat.view(np.uint32), want.flat.view(np.uint32))

    def test_empty_splits_rejected(self):
        samples = _toy_samples(2, [0], seed=50)
        ckpt = init_checkpoint(6, 8, 36, POOL_MULTI, 11, PROFILE_SPACE.tag, 1)
        with pytest.raises(EmptySplit):
            train([], samples, PROFILE_SPACE, ckpt, TrainConfig(), 0)
        with pytest.raises(EmptySplit):
            train(samples, [], PROFILE_SPACE, ckpt, TrainConfig(), 0)


def _production_ckpt(pooling, seed=3):
    """A 530-input, 64-hidden checkpoint, as the ladder's rows are, its
    weights randomized so that no gradient is zero."""
    ckpt = init_checkpoint(530, 64, 36, pooling, seed, PROFILE_SPACE.tag, 1)
    ckpt.flat[...] = np.random.default_rng(seed).normal(0, 0.05, ckpt.flat.size).astype(np.float32)
    return ckpt


class TestWorkspaceReuse:
    """One Workspace serves every step of a stage: its views hold whatever
    the last step left there, so every value must be written before it is
    read."""

    @pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_ATTENTION, POOL_LAST])
    def test_steps_on_one_workspace_equal_fresh_steps(self, pooling):
        rng = np.random.default_rng(61)
        config = TrainConfig(learning_rate=1e-2, dropout=0.2)
        reused, fresh = _production_ckpt(pooling), _production_ckpt(pooling)
        reused_moments, fresh_moments = _moments(reused), _moments(fresh)
        ws = lstm.Workspace(np.float32, 8 << 20)  # room for a (64, 8) step
        for step, (B, T) in enumerate([(64, 8), (17, 3), (64, 8)]):
            data = rng.normal(0, 1, (B, T, 530)).astype(np.float32)
            y = rng.integers(0, 36, B), rng.integers(0, 9, B), rng.integers(0, 4, B)
            ws.arena.fill(np.nan)  # what an earlier step left there must not be read
            with ws.frame():
                X = ws.empty(data.shape)
                X[...] = data
                got = train_step(Batch(X, *y), reused, reused_moments, config, 5, step, ws)
            want = train_step(Batch(data, *y), fresh, fresh_moments, config, 5, step)
            assert got == want
            for a, b in [(reused.flat, fresh.flat), *zip(reused_moments, fresh_moments)]:
                np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))
        assert ws.top == 0 and not np.isnan(ws.arena).all()  # the steps ran in the arena

    @pytest.mark.parametrize("pooling", [POOL_MULTI, POOL_ATTENTION, POOL_LAST])
    def test_steps_allocate_no_large_array(self, pooling, monkeypatch):
        # train's workspace reserves its arena up front, so not even a row's
        # first step allocates its arrays. tracemalloc's peak is the sum of
        # every allocation alive at once: the small (B, .) pooling, head and
        # loss arrays and numpy's iterator buffers (bufsize items an
        # operand, shrunk here so that they do not hide an array), so a
        # peak under 64 KiB bounds every array. At this shape the batch
        # input (B, T, 530), each projection and the gradient vector exceed
        # it; a step on a workspace with no reserve allocates them all
        B, T = 2, 32
        rng = np.random.default_rng(62)
        profiles = all_profiles()
        samples = [
            SequenceSample(i, profiles[i % 36], (0, T), rng.normal(0, 1, (T, 530)).astype(np.float32))
            for i in range(5 * B)
        ]
        rises = []

        def measured(fn):
            def call(*args, **kwargs):
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                out = fn(*args, **kwargs)
                rises.append(tracemalloc.get_traced_memory()[1] - start)
                return out

            return call

        bufsize = np.setbufsize(256)
        tracemalloc.start()
        try:
            ckpt = _production_ckpt(pooling)
            X = np.stack([s.game for s in samples[:B]])
            y = np.zeros(B, np.int64)
            measured(train_step)(Batch(X, y, y, y), ckpt.copy(), _moments(ckpt), TrainConfig(), 9, 0)
            assert rises.pop() > 2 * 2**20
            monkeypatch.setattr(training, "train_step", measured(training.train_step))
            monkeypatch.setattr(WindowBatcher, "x", measured(WindowBatcher.x))
            train(samples[B:], samples[:B], PROFILE_SPACE, ckpt, TrainConfig(batch_size=B, epochs=2), 9)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        # (x, train_step) per step: 4 steps an epoch
        assert len(rises) == 16
        assert max(rises) < 64 * 2**10, [r // 2**10 for r in rises]

    def test_chunked_validation_equals_whole_batches(self):
        # 256-window validation batches of 8 steps are 2,048 rows: 3 chunks
        rng = np.random.default_rng(63)
        ckpt = _production_ckpt(POOL_MULTI)
        block = rng.normal(0, 1, (300 + 7, 530)).astype(np.float32)
        game = GameRows(RowStore.of_dense(block), 0, len(block))
        samples = [SequenceSample(0, all_profiles()[0], (s, 8), game) for s in range(300)]
        windows = WindowBatcher(samples, np.float32)
        assert [len(idx) for idx in windows.batches(256)] == [256, 44]
        ws = lstm.Workspace(np.float32)
        for idx in windows.batches(256):
            with ws.frame():
                got, _ = forward_batch(windows.rows(idx), ckpt, cache=False, ws=ws)
            want, _ = forward_batch(windows.x(idx), ckpt, cache=False)
            for head in want:
                np.testing.assert_array_equal(got[head].view(np.uint32), want[head].view(np.uint32))
        preds, labels = predict_main(windows, np.arange(len(samples)), ckpt)
        assert labels.tolist() == np.concatenate(windows.batches(256)).tolist() and len(preds) == len(samples)


class _Bucketed:
    """Oracle: training's batcher before `WindowBatcher`, which copied every
    window into a stack per length. Each batch comes with its window
    indices."""

    def __init__(self, samples, space, dtype=np.float32):
        y_main, y_align, y_motiv = space_labels([s.profile.index for s in samples], space)
        by_t = {}
        for idx, s in enumerate(samples):
            by_t.setdefault(s.matrix.shape[0], []).append(idx)
        self.groups = []
        for t in sorted(by_t):
            idxs = np.array(by_t[t])
            X = np.stack([np.asarray(samples[i].matrix, dtype=dtype) for i in idxs])
            self.groups.append((idxs, X, y_main[idxs], y_align[idxs], y_motiv[idxs]))

    def batches(self, batch_size, rng):
        out = []
        for idxs, X, y_main, y_align, y_motiv in self.groups:
            order = rng.permutation(len(X)) if rng is not None else np.arange(len(X))
            for s in range(0, len(X), batch_size):
                sel = order[s : s + batch_size]
                out.append((idxs[sel], Batch(X[sel], y_main[sel], y_align[sel], y_motiv[sel])))
        if rng is not None and len(out) > 1:
            order = rng.permutation(len(out))
            out = [out[i] for i in order]
        return out


def _shared_game_windows(seed, dtype=np.float32):
    """Shuffled windows (length 4, stride 1 or 2) over games of mixed
    lengths, several per game; a game shorter than 4 rows is one window."""
    rng = np.random.default_rng(seed)
    profiles = all_profiles()
    samples = []
    for game_id, T in enumerate((9, 3, 12, 2, 6, 4, 11)):
        game = rng.normal(0, 1, (T, 5)).astype(dtype)
        profile = profiles[int(rng.integers(36))]
        stride = 1 + game_id % 2
        starts = range(0, T - 3, stride) if T >= 4 else [0]
        for start in starts:
            samples.append(SequenceSample(game_id, profile, (start, min(4, T)), game))
    return [samples[i] for i in rng.permutation(len(samples))]


class TestWindowBatcher:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_batches_match_the_per_length_stack_oracle(self, seed, batch_size):
        samples = _shared_game_windows(seed)
        assert len({s.window[1] for s in samples}) > 1
        windows = WindowBatcher(samples, np.float32)
        oracle = _Bucketed(samples, PROFILE_SPACE)
        labels = space_labels([s.profile.index for s in samples], PROFILE_SPACE)
        for epoch in range(3):
            rngs = [np.random.Generator(np.random.PCG64(100 * seed + epoch)) for _ in range(2)]
            for got_rng, want_rng in ((rngs[0], rngs[1]), (None, None)):
                got = windows.batches(batch_size, got_rng)
                want = oracle.batches(batch_size, want_rng)
                assert [idx.tolist() for idx in got] == [idx.tolist() for idx, _ in want]
                for idx, (_, batch) in zip(got, want):
                    X = windows.x(idx)
                    assert X.dtype == batch.X.dtype and X.shape == batch.X.shape
                    assert X.tobytes() == batch.X.tobytes()
                    for y, y_want in zip(labels, (batch.y_profile, batch.y_align, batch.y_motiv)):
                        np.testing.assert_array_equal(y[idx], y_want)
            # the same permutation calls: both generators are at the same state
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gathered_x_is_the_stack_of_window_matrices(self, dtype):
        samples = _shared_game_windows(7, dtype=np.float64)
        windows = WindowBatcher(samples, dtype)
        # each game's rows are stacked once, not once per window
        assert len(windows.src) == sum(len(g) for g in {id(s.game): s.game for s in samples}.values())
        batches = windows.batches(5)
        assert sorted(np.concatenate(batches).tolist()) == list(range(len(samples)))
        lengths = [{samples[i].window[1] for i in idx} for idx in batches]
        assert all(len(t) == 1 for t in lengths) and lengths == sorted(lengths, key=min)
        for idx in batches:
            assert np.all(np.diff(idx) > 0)  # input order within a length
            want = np.stack([np.asarray(samples[i].matrix, dtype=dtype) for i in idx])
            got = windows.x(idx)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _block_windows(seed):
    """Windows over games that are consecutive rows of one read-only
    all-dense float32 store, in store order, as `FeatureFile.samples` gives
    a split; the games' profiles are neutral and not. Also returns the
    store's rows as an array."""
    rng = np.random.default_rng(seed)
    lengths = (9, 3, 12, 2, 6)
    block = rng.normal(0, 1, (sum(lengths), 5)).astype(np.float32)
    block.flags.writeable = False
    store = RowStore.of_dense(block)
    profiles = [p for p in all_profiles() if p.code.startswith("TN-")][:2] + [all_profiles()[0]] * 3
    samples, at = [], 0
    for game_id, (T, profile) in enumerate(zip(lengths, profiles)):
        game = GameRows(store, at, T)
        at += T
        samples += [SequenceSample(game_id, profile, (s, n), game) for s, n in window_starts(T, 4, 2)]
    return store, block, samples


def _stack(windows):
    """Every stacked row of a batcher as one new (N, D) array."""
    return windows.rows().fill(0, len(windows.src))


class TestWindowBatcherRows:
    """The batcher keeps its games' store, not a copy of their rows; its
    stack holds the games' rows in first-seen order, in its dtype."""

    @staticmethod
    def _first_seen_stack(samples):
        return np.concatenate([game_rows(g) for g in {id(s.game): s.game for s in samples}.values()])

    def test_rows_is_the_block_its_games_tile(self):
        store, block, samples = _block_windows(0)
        windows = WindowBatcher(samples, np.float32)
        assert windows.store is store
        assert _stack(windows).view(np.uint32).tobytes() == block.view(np.uint32).tobytes()
        assert _stack(windows).view(np.uint32).tobytes() == self._first_seen_stack(samples).view(np.uint32).tobytes()

    @pytest.mark.parametrize("pick", ["admissible_subset", "shuffled", "float64"])
    def test_other_sample_sets_stack_a_new_array(self, pick):
        store, block, samples = _block_windows(1)
        dtype = np.float64 if pick == "float64" else np.float32
        if pick == "admissible_subset":
            samples = pipeline._admissible(samples, LabelSpace(LabelSpaceKind.NON_NEUTRAL_PROFILE16))
            assert 0 < len({s.game_id for s in samples}) < 5
        elif pick == "shuffled":
            samples = [samples[i] for i in np.random.default_rng(1).permutation(len(samples))]
            assert list(dict.fromkeys(s.game_id for s in samples)) != sorted({s.game_id for s in samples})
        windows = WindowBatcher(samples, dtype)
        assert windows.store is store
        stack = _stack(windows)
        assert not np.shares_memory(stack, block)
        want = self._first_seen_stack(samples).astype(dtype)
        assert stack.dtype == dtype
        assert stack.view(np.uint8).tobytes() == want.view(np.uint8).tobytes()
        for idx in windows.batches(3):
            got = windows.x(idx)
            assert got.tobytes() == np.stack([window_rows(samples[i]).astype(dtype) for i in idx]).tobytes()


    def test_games_of_two_stores_are_rejected(self):
        (_, _, first), (_, _, second) = _block_windows(2), _block_windows(3)
        with pytest.raises(DimensionMismatch, match="one store"):
            WindowBatcher(first[:3] + second[:3], np.float32)
        with pytest.raises(DimensionMismatch, match="one store"):
            WindowBatcher(first[:3] + _shared_game_windows(0)[:3], np.float32)


class TestSpaceLabels:
    def test_equal_to_map_label_per_sample_in_every_space(self):
        profiles = all_profiles()
        align, motiv = LabelSpace(LabelSpaceKind.ALIGNMENT9), LabelSpace(LabelSpaceKind.MOTIVATION4)
        for kind in LabelSpaceKind:
            space = LabelSpace(kind)
            admitted = [p for p in profiles if space.admits(p)]
            picked = [admitted[(7 * i) % len(admitted)] for i in range(50)]
            y_main, y_align, y_motiv = space_labels([p.index for p in picked], space)
            for got, sp in ((y_main, space), (y_align, align), (y_motiv, motiv)):
                assert got.dtype == np.int64
                assert got.tolist() == [taxonomy_oracles._oracle_label(p, sp.kind) for p in picked]

    def test_profile_outside_a_subset_space_raises(self):
        space = LabelSpace(LabelSpaceKind.NEUTRAL_PROFILE20)
        outside = next(p for p in all_profiles() if not space.admits(p))
        inside = next(p for p in all_profiles() if space.admits(p))
        with pytest.raises(SpaceMismatch, match=outside.code):
            space_labels([inside.index, outside.index], space)


class TestBaselineClasses:
    @pytest.mark.parametrize("y", [[], [3], [2, 2, 2, 2]])
    def test_fewer_than_two_classes_rejected(self, y):
        X = np.arange(4 * len(y), dtype=float).reshape(len(y), 4)
        with pytest.raises(DegenerateData, match="2 classes"):
            train_baseline(X, np.array(y, dtype=np.int64), 4, seed=0)

    def test_two_classes_fit(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        model = train_baseline(X, np.array([0, 1, 0, 1]), 2, seed=0, epochs=50)
        assert model.logits(X).argmax(-1).tolist() == [0, 1, 0, 1]
