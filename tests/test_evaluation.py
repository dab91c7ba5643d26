"""Reporting layer: confusion tallies, lifts, file emission."""

import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import test_lstm as lstm_oracles
import test_taxonomy as taxonomy_oracles
from test_features import window_rows

import profilebench

from profilebench.errors import ConfigInvalid, EmptyTestSet, IoFailure, SpaceMismatch, ZeroFrequency
from profilebench.evaluation import (
    ETA_GRID,
    NEUTRAL_ALIGNMENT_RANKS,
    ConfusionMatrix,
    Report,
    Scores,
    calibrate_correction,
    confusion_csv,
    confusion_svg,
    emit_report,
    evaluate,
    failed_report,
    neutral_correction,
    predict_logits,
    random_baseline,
    score_windows,
    table_rows,
    write_table,
)
from profilebench.features import (
    N_BEHAVIORAL,
    N_TEXT_LEGACY,
    N_TOTAL,
    SEQUENCE_DIMS,
    FeatureFileWriter,
    SequenceSample,
    read_feature_file,
)
from profilebench.models.checkpoint import POOL_ATTENTION, POOL_LAST, POOL_MULTI, init_checkpoint
from profilebench.models.lstm import project
from profilebench.models.training import (
    SCORE_BATCH_SIZE,
    WindowBatcher,
    forward_batch,
    pool_and_heads,
)
from profilebench.pipeline import LADDER, LadderRow
from profilebench.taxonomy import (
    PROFILES,
    LabelSpace,
    LabelSpaceKind,
    all_profiles,
    is_neutral_profile,
)

PROFILE_SPACE = LabelSpace(LabelSpaceKind.PROFILE36)
ALIGN_SPACE = LabelSpace(LabelSpaceKind.ALIGNMENT9)
NAMED = {"name": "t", "dims": "176"}  # a report's row name and dims, as eval_row passes them


def _samples(profile_indices, T=4, D=6, seed=0):
    rng = np.random.default_rng(seed)
    profiles = all_profiles()
    return [
        SequenceSample(
            game_id=100 + i,
            profile=profiles[k],
            window=(0, T),
            game=rng.normal(0, 1, (T, D)).astype(np.float32),
        )
        for i, k in enumerate(profile_indices)
    ]


def _ckpt(space=PROFILE_SPACE, n_classes=36, D=6, seed=3):
    return init_checkpoint(
        input_dim=D,
        hidden=4,
        n_classes=n_classes,
        pooling=POOL_MULTI,
        seed=seed,
        label_space_tag=space.tag,
        schema_version=1,
    )


class TestConfusionMatrix:
    def test_hand_tally_of_five_predictions(self):
        y_true = np.array([0, 1, 1, 2, 0])
        y_pred = np.array([0, 1, 2, 2, 1])
        m = ConfusionMatrix.from_predictions(y_true, y_pred, ["a", "b", "c"])
        np.testing.assert_array_equal(m.counts, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert m.total == 5
        assert m.accuracy == pytest.approx(3 / 5)

    def test_per_class_precision_recall(self):
        m = ConfusionMatrix.from_predictions(
            np.array([0, 1, 1, 2, 0]), np.array([0, 1, 2, 2, 1]), ["a", "b", "c"]
        )
        rows = {r["label"]: r for r in m.per_class()}
        assert rows["a"] == {"label": "a", "support": 2, "precision": 1.0, "recall": 0.5}
        # column b holds one true-a and one true-b prediction
        assert rows["b"]["precision"] == pytest.approx(0.5)
        assert rows["b"]["recall"] == pytest.approx(0.5)
        assert rows["c"]["precision"] == pytest.approx(0.5)
        assert rows["c"]["recall"] == pytest.approx(1.0)

    def test_masses(self):
        m = ConfusionMatrix.from_predictions(
            np.array([0, 1, 1, 2, 0]), np.array([0, 1, 2, 2, 1]), ["a", "b", "c"]
        )
        assert m.column_mass([1, 2]) == pytest.approx(4 / 5)
        assert m.row_mass([0]) == pytest.approx(2 / 5)
        assert m.column_mass([]) == 0.0

    def test_unseen_class_zero_division_guarded(self):
        m = ConfusionMatrix.from_predictions(np.array([0]), np.array([0]), ["a", "b"])
        rows = {r["label"]: r for r in m.per_class()}
        assert rows["b"] == {"label": "b", "support": 0, "precision": 0.0, "recall": 0.0}

    def test_empty_matrix_accuracy_zero(self):
        m = ConfusionMatrix(labels=[], counts=np.zeros((0, 0), dtype=np.int64))
        assert m.accuracy == 0.0


class TestEvaluate:
    def test_untrained_model_predicts_lowest_index_everywhere(self):
        # zero heads give all-zero logits; argmax ties resolve to class 0
        ckpt = _ckpt()
        samples = _samples([0, 5, 12, 35, 20])
        report = evaluate(score_windows(ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, **NAMED)
        assert report.confusion_main.counts[:, 0].sum() == 5
        assert report.accuracies["main"] == pytest.approx(1 / 5)

    def test_lift_is_accuracy_over_baseline(self):
        ckpt = _ckpt()
        samples = _samples(list(range(12)))
        report = evaluate(score_windows(ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, **NAMED)
        assert report.random_baseline_subset == pytest.approx(1 / 36)
        assert report.lift_subset == pytest.approx(report.accuracies["main"] * 36)
        assert report.lift_full == pytest.approx(report.accuracies["main"] * 36)

    def test_subset_space_reports_both_lifts(self):
        space = LabelSpace(LabelSpaceKind.NON_NEUTRAL_PROFILE16)
        idxs = [i for i, p in enumerate(all_profiles()) if space.admits(p)][:8]
        ckpt = _ckpt(space=space, n_classes=16)
        samples = _samples(idxs)
        report = evaluate(score_windows(ckpt, samples, space), space, **NAMED)
        assert report.random_baseline_subset == pytest.approx(1 / 16)
        assert report.random_baseline_full == pytest.approx(1 / 36)
        assert report.lift_full == pytest.approx(report.accuracies["main"] * 36)

    def test_neutral_prior_matches_sample_composition(self):
        ckpt = _ckpt()
        profiles = all_profiles()
        idxs = list(range(18))
        samples = _samples(idxs)
        report = evaluate(score_windows(ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, **NAMED)
        want = sum(
            1 for k in idxs
            if ALIGN_SPACE.labels[profiles[k].index] in NEUTRAL_ALIGNMENT_RANKS
        ) / len(idxs)
        assert report.neutral_prior == pytest.approx(want)

    def test_space_tag_mismatch_rejected(self):
        samples = _samples([0, 1])
        with pytest.raises(SpaceMismatch):
            evaluate(score_windows(_ckpt(space=PROFILE_SPACE), samples, ALIGN_SPACE), ALIGN_SPACE, **NAMED)
        with pytest.raises(SpaceMismatch):
            align_ckpt = _ckpt(space=ALIGN_SPACE, n_classes=9)
            evaluate(score_windows(align_ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, **NAMED)

    def test_sample_outside_subset_rejected(self):
        space = LabelSpace(LabelSpaceKind.NEUTRAL_PROFILE20)
        ckpt = _ckpt(space=space, n_classes=20)
        non_neutral = next(
            i for i, p in enumerate(all_profiles()) if not is_neutral_profile(p)
        )
        with pytest.raises(SpaceMismatch):
            evaluate(score_windows(ckpt, _samples([non_neutral]), space), space, **NAMED)

    def test_outside_error_names_the_first_offending_sample(self):
        space = LabelSpace(LabelSpaceKind.NON_NEUTRAL_PROFILE16)
        profiles = all_profiles()
        inside = [i for i, p in enumerate(profiles) if not is_neutral_profile(p)]
        outside = [i for i, p in enumerate(profiles) if is_neutral_profile(p)]
        samples = _samples([inside[0], outside[3], inside[1], outside[0]])
        want = f"sample profile {profiles[outside[3]].code} outside {space.tag}"
        with pytest.raises(SpaceMismatch, match=f"^{want}$"):
            evaluate(score_windows(_ckpt(space=space, n_classes=16), samples, space), space, **NAMED)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(EmptyTestSet):
            evaluate(score_windows(_ckpt(), [], PROFILE_SPACE), PROFILE_SPACE, **NAMED)

    def test_correction_records_both_views(self):
        space = ALIGN_SPACE
        ckpt = _ckpt(space=space, n_classes=9)
        samples = _samples(list(range(0, 36, 4)))
        correction = {
            "eta": 1.0,
            "predicted": np.full(9, 1 / 9),
            "prior": np.full(9, 1 / 9),
            "uncorrected_accuracy": 0.5,
        }
        report = evaluate(score_windows(ckpt, samples, space), space, **NAMED, correction=correction)
        info = report.correction
        assert info["eta"] == 1.0
        assert info["uncorrected_accuracy"] == 0.5
        for key in (
            "test_predicted_freqs_corrected",
            "test_predicted_freqs_uncorrected",
            "test_accuracy_uncorrected",
            "neutral_column_mass_uncorrected",
        ):
            assert key in info
        np.testing.assert_allclose(sum(info["test_predicted_freqs_corrected"]), 1.0)
        np.testing.assert_allclose(sum(info["test_predicted_freqs_uncorrected"]), 1.0)
        # identity frequencies: corrected equals uncorrected
        assert info["test_predicted_freqs_corrected"] == info["test_predicted_freqs_uncorrected"]
        assert report.accuracies["main"] == pytest.approx(info["test_accuracy_uncorrected"])

    def test_correction_outside_alignment9_rejected(self):
        correction = {
            "eta": 1.0, "predicted": np.full(9, 1 / 9), "prior": np.full(9, 1 / 9), "uncorrected_accuracy": 0.5,
        }
        with pytest.raises(SpaceMismatch, match="alignment9, not profile36"):
            scores = score_windows(_ckpt(), _samples([0]), PROFILE_SPACE)
            evaluate(scores, PROFILE_SPACE, **NAMED, correction=correction)


def gather_first_logits(ckpt, samples):
    """Scoring as it ran before the in-place kernel: the stacked rows
    projected once per direction, each batch's (B, T, 4H) pre-activations
    gathered, then the allocating step loop; logits in input order."""
    p = ckpt.params
    windows = WindowBatcher(samples, p["fwd_W"].dtype)
    rows = windows.rows().fill(0, len(windows.src))
    pre = (project(rows, p["fwd_W"]), project(rows, p["bwd_W"]))
    batches = windows.batches(SCORE_BATCH_SIZE)
    parts = {"profile": [], "align": [], "motiv": []}
    for idx in batches:
        take = windows.take(idx)
        halves = [
            lstm_oracles.reference_direction(pre[k][take], p[f"{d}_R"], p[f"{d}_b"], reverse=k == 1)["h"]
            for k, d in enumerate(("fwd", "bwd"))
        ]
        logits, _, _ = pool_and_heads(np.concatenate(halves, axis=2), ckpt, cache=False)
        for head, out in parts.items():
            out.append(logits[head])
    inverse = np.argsort(np.concatenate(batches))
    return {head: np.concatenate(out)[inverse] for head, out in parts.items()}


def _randomized(ckpt, rng):
    for name, value in ckpt.params.items():
        ckpt.params[name][...] = rng.normal(0, 0.5, value.shape).astype(value.dtype)
    return ckpt


class TestPredictLogits:
    @staticmethod
    def _oracle(ckpt, samples, batch_size=256):
        """Group by T, chunk, cached forward, scatter each row to its sample."""
        by_t = {}
        for idx, s in enumerate(samples):
            by_t.setdefault(s.window[1], []).append(idx)
        outs = {head: [None] * len(samples) for head in ("profile", "align", "motiv")}
        for t in sorted(by_t):
            idxs = by_t[t]
            for start in range(0, len(idxs), batch_size):
                chunk = idxs[start : start + batch_size]
                X = np.stack([window_rows(samples[i]) for i in chunk])
                logits, cache = forward_batch(X, ckpt)
                assert cache["lstm"] is not None
                for head in outs:
                    for j, i in enumerate(chunk):
                        outs[head][i] = logits[head][j]
        return {head: np.stack(rows) for head, rows in outs.items()}

    def test_shuffled_mixed_lengths_come_back_in_input_order(self):
        rng = np.random.default_rng(17)
        ckpt = _randomized(_ckpt(), rng)
        # T = 8 holds more than one 256-row chunk
        samples = [
            s
            for T, n in ((8, 300), (3, 40), (1, 9), (5, 70))
            for s in _samples(rng.integers(0, 36, n), T=T, seed=T)
        ]
        samples = [samples[i] for i in rng.permutation(len(samples))]
        got = predict_logits(ckpt, samples)
        exact = gather_first_logits(ckpt, samples)
        per_window = self._oracle(ckpt, samples)
        for head in ("profile", "align", "motiv"):
            assert got[head].dtype == exact[head].dtype == per_window[head].dtype == np.float32
            np.testing.assert_array_equal(got[head].view(np.uint32), exact[head].view(np.uint32))
            # each window's rows projected on their own: float32 precision only
            np.testing.assert_allclose(got[head], per_window[head], rtol=1e-5, atol=1e-5)

    def test_overlapping_windows_read_back_from_a_feature_file(self, tmp_path):
        rng = np.random.default_rng(23)
        ckpt = _randomized(_ckpt(D=N_TOTAL), rng)
        path = tmp_path / "games.pbf"
        profiles = all_profiles()
        with FeatureFileWriter(path, window_len=4, stride=1) as writer:
            for game_id, T in enumerate((9, 6, 2)):  # the last game is shorter than a window
                rows = rng.normal(0, 1, (T, N_BEHAVIORAL))
                counts = rng.integers(-3, 4, (T, N_TEXT_LEGACY))
                writer.add(SequenceSample(game_id, profiles[5 * game_id], (0, T), rows), counts, np.zeros(52))
        windows = read_feature_file(path).samples("176")
        assert [s.window[1] for s in windows] == [4] * 6 + [4] * 3 + [2]
        samples = [windows[i] for i in rng.permutation(len(windows))[:8]]
        assert {s.window[1] for s in samples} == {2, 4} and len({s.game_id for s in samples}) == 3
        got = predict_logits(ckpt, samples)
        exact = gather_first_logits(ckpt, samples)
        per_window = self._oracle(ckpt, samples)
        for head in ("profile", "align", "motiv"):
            np.testing.assert_array_equal(got[head].view(np.uint32), exact[head].view(np.uint32))
            # an sgemm's rounding can depend on its row count, so projecting
            # each window's rows agrees only to float32 precision
            np.testing.assert_allclose(got[head], per_window[head], rtol=1e-5, atol=1e-5)

    def test_stride_one_windows_and_a_short_final_batch(self):
        rng = np.random.default_rng(29)
        ckpt = _randomized(_ckpt(), rng)
        profiles = all_profiles()
        samples = []
        for game_id in range(2):  # 2 x 153 windows of 8: batches of 256 and 50
            game = rng.normal(0, 1, (160, 6)).astype(np.float32)
            samples += [
                SequenceSample(game_id, profiles[7 * game_id], (s, 8), game) for s in range(153)
            ]
            samples += [SequenceSample(game_id, profiles[7 * game_id], (s, 3), game) for s in (0, 80)]
        samples = [samples[i] for i in rng.permutation(len(samples))]
        assert [len(b) for b in WindowBatcher(samples, np.float32).batches(SCORE_BATCH_SIZE)] == [4, 256, 50]
        got = predict_logits(ckpt, samples)
        want = gather_first_logits(ckpt, samples)
        for head in ("profile", "align", "motiv"):
            np.testing.assert_array_equal(got[head].view(np.uint32), want[head].view(np.uint32))

    def test_scoring_and_training_leave_numpy_ma_unimported(self):
        # np.unique, np.median and np.percentile import numpy.ma on first
        # use, a cost each fresh training or scoring process would pay
        script = """
import sys
import numpy as np
from profilebench.evaluation import predict_logits
from profilebench.features import SequenceSample
from profilebench.models.checkpoint import POOL_MULTI, init_checkpoint
from profilebench.models.training import Batch, TrainConfig, train_step
from profilebench.taxonomy import all_profiles

ckpt = init_checkpoint(input_dim=6, hidden=4, n_classes=36, pooling=POOL_MULTI, seed=3,
                       label_space_tag="profile36", schema_version=1)
game = np.linspace(-1, 1, 60, dtype=np.float32).reshape(10, 6)
samples = [SequenceSample(0, all_profiles()[0], (s, 4), game) for s in range(7)]
moments = (np.zeros_like(ckpt.flat), np.zeros_like(ckpt.flat))
y = np.zeros(2, np.int64)
train_step(Batch(np.stack([s.matrix for s in samples[:2]]), y, y, y), ckpt, moments, TrainConfig(), 0, 0)
predict_logits(ckpt, samples)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
        src = str(Path(profilebench.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr


class TestLabelTable:
    def test_matches_map_label_and_admits_in_every_space(self):
        for kind in LabelSpaceKind:
            space = LabelSpace(kind)
            table = space.labels
            for p in all_profiles():
                want = taxonomy_oracles._oracle_label(p, kind)
                assert space.admits(p) == (want >= 0)
                assert table[p.index] == want, (kind, p.code)
            assert not table.flags.writeable

    def test_evaluate_labels_match_map_label(self):
        samples = _samples([34, 0, 17, 9, 9, 21])
        report = evaluate(score_windows(_ckpt(), samples, PROFILE_SPACE), PROFILE_SPACE, **NAMED)
        for matrix, space in (
            (report.confusion_main, PROFILE_SPACE),
            (report.confusion_align, ALIGN_SPACE),
            (report.confusion_motiv, LabelSpace(LabelSpaceKind.MOTIVATION4)),
        ):
            support = np.bincount(
                [taxonomy_oracles._oracle_label(s.profile, space.kind) for s in samples],
                minlength=space.cardinality,
            )
            np.testing.assert_array_equal(matrix.counts.sum(axis=1), support)


def _predicted(profile_idx, preds, space=PROFILE_SPACE):
    """A record of one game per prediction whose main head predicts
    `preds`: one-hot logits, as the aggregate baseline's are per game."""
    logits = np.eye(space.cardinality)[np.asarray(preds, dtype=np.int64)]
    return Scores({"profile": logits}, profile_idx, list(range(len(profile_idx))), "game")


class TestEvaluateClassPredictions:
    def test_marginals_from_hand_predictions(self):
        profiles = all_profiles()
        # true LG-Wealth (index 3); predicted LG-Safety (index 0):
        # alignment marginal right, motivation marginal wrong
        targets = [profiles[3], profiles[0]]
        preds = np.array([0, 0])
        report = evaluate(_predicted([p.index for p in targets], preds), PROFILE_SPACE, **NAMED)
        assert report.accuracies["main"] == pytest.approx(0.5)
        assert report.accuracies["alignment_marginal"] == pytest.approx(1.0)
        assert report.accuracies["motivation_marginal"] == pytest.approx(0.5)
        # the neutral masses come from the marginal alignment confusion;
        # LG, the only alignment here, has no Neutral axis
        assert report.neutral_column_mass == 0.0
        assert report.neutral_prior == 0.0
        # true TN-Safety (16) and LG-Safety (0), both predicted TN-Safety
        report = evaluate(_predicted([16, 0], [16, 16]), PROFILE_SPACE, **NAMED)
        assert report.neutral_column_mass == 1.0
        assert report.neutral_prior == 0.5

    def test_baseline_lift_matches_lstm_lift(self):
        # 7 of 38 right: accuracy * 36 and accuracy / (1/36) differ in the last bit
        truth = [0] * 7 + [5] * 31
        baseline = evaluate(_predicted(truth, np.zeros(38, dtype=np.int64)), PROFILE_SPACE, **NAMED)
        acc = 7 / 38
        assert baseline.accuracies["main"] == acc
        assert baseline.lift_full == acc / (1 / 36)
        assert baseline.lift_subset == acc / (1 / 36)
        # an untrained checkpoint predicts class 0 for every window
        lstm = evaluate(score_windows(_ckpt(), _samples(truth), PROFILE_SPACE), PROFILE_SPACE, **NAMED)
        assert lstm.accuracies["main"] == acc
        assert (lstm.lift_subset, lstm.lift_full) == (baseline.lift_subset, baseline.lift_full)
        assert lstm.to_dict()["lift"] == baseline.to_dict()["lift"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyTestSet):
            evaluate(_predicted([], []), PROFILE_SPACE, **NAMED)

    def test_profile_outside_space_is_named(self):
        space = LabelSpace(LabelSpaceKind.NEUTRAL_PROFILE20)
        inside = next(p for p in all_profiles() if is_neutral_profile(p))
        outside = next(p for p in all_profiles() if not is_neutral_profile(p))
        want = f"sample profile {outside.code} outside {space.tag}"
        with pytest.raises(SpaceMismatch, match=f"^{want}$"):
            evaluate(_predicted([inside.index, outside.index], [0, 0], space), space, **NAMED)


class TestNeutralCorrection:
    def test_closed_form_single_logit_row(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        predicted = np.array([0.5, 0.25, 0.25])
        prior = np.array([0.25, 0.25, 0.5])
        out = neutral_correction(logits, predicted, prior, eta=1.0)
        want = logits - np.log(np.array([2.0, 1.0, 0.5]))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_eta_scales_the_adjustment(self):
        logits = np.zeros((2, 4))
        predicted = np.array([0.4, 0.3, 0.2, 0.1])
        prior = np.array([0.25, 0.25, 0.25, 0.25])
        half = neutral_correction(logits, predicted, prior, eta=0.5)
        full = neutral_correction(logits, predicted, prior, eta=1.0)
        np.testing.assert_allclose(full, 2 * half, atol=1e-12)

    def test_matched_frequencies_are_identity(self):
        logits = np.random.default_rng(6).normal(0, 1, (3, 9))
        freqs = np.full(9, 1 / 9)
        np.testing.assert_array_equal(neutral_correction(logits, freqs, freqs), logits)

    def test_overpredicted_class_loses_logit_mass(self):
        logits = np.zeros((1, 2))
        out = neutral_correction(
            logits, np.array([0.9, 0.1]), np.array([0.5, 0.5]), eta=1.0
        )
        assert out[0, 0] < logits[0, 0]
        assert out[0, 1] > logits[0, 1]

    def test_zero_frequency_rejected(self):
        logits = np.zeros((1, 2))
        with pytest.raises(ZeroFrequency):
            neutral_correction(logits, np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ZeroFrequency):
            neutral_correction(logits, np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigInvalid):
            neutral_correction(np.zeros((1, 3)), np.full(2, 0.5), np.full(2, 0.5))


class TestCalibrateCorrection:
    @staticmethod
    def _logits(groups):
        """Validation logits and profile indices from (count, true alignment
        rank, predicted rank, margin) groups over ranks 0 and 1: the
        predicted rank's logit is the margin, the other's 0, the rest -50."""
        first_of_rank = {r: int(np.flatnonzero(ALIGN_SPACE.labels == r)[0]) for r in (0, 1)}
        rows, idx = [], []
        for count, true, pred, margin in groups:
            row = np.full(9, -50.0)
            row[pred], row[1 - pred] = margin, 0.0
            rows += [row] * count
            idx += [first_of_rank[true]] * count
        return np.array(rows), idx

    def test_picks_the_smallest_gap_within_one_point(self):
        # 200 windows, 100 per rank; the model predicts rank 0 for 140 (acc
        # 0.8), so the correction moves windows from rank 0 to 1, the ones
        # with the smallest margins first. Cumulative flips and accuracy:
        # eta 0.25 flips 1 true-0 (0.795), 0.5 also 1 true-0 and 2 true-1
        # (0.80), 0.75 one more true-0 (0.795), 1.0 three more true-0 (0.78).
        # Each step narrows the frequency gap; 1.0 and up lose 2 points.
        logits, idx = self._logits([
            (1, 0, 0, 0.1), (1, 0, 0, 0.3), (1, 0, 0, 0.5), (3, 0, 0, 0.7), (94, 0, 0, 5.0),
            (2, 1, 0, 0.3), (38, 1, 0, 5.0), (60, 1, 1, 5.0),
        ])
        got = calibrate_correction(logits, idx)
        assert got["eta"] == 0.75
        assert got["uncorrected_accuracy"] == 0.8
        np.testing.assert_array_equal(got["prior"][:2], [100.5 / 204.5] * 2)
        np.testing.assert_array_equal(got["predicted"][:2], [140.5 / 204.5, 60.5 / 204.5])

    def test_falls_back_to_eta_one_when_every_eta_loses_accuracy(self):
        # every window predicted rank 0 by 0.1 (acc 0.75); every eta in the
        # grid flips all of them to rank 1 (acc 0.25)
        logits, idx = self._logits([(150, 0, 0, 0.1), (50, 1, 0, 0.1)])
        assert min(ETA_GRID) * np.log((200.5 / 150.5) * (50.5 / 0.5)) > 0.1
        got = calibrate_correction(logits, idx)
        assert got["eta"] == 1.0
        assert got["uncorrected_accuracy"] == 0.75


def test_ladder_rows_are_well_formed():
    """What training and evaluation take from a LadderRow unchecked."""
    for row in LADDER:
        if row.model == "baseline":
            assert row.layout == "agg", row.row_id
        else:
            assert row.layout in SEQUENCE_DIMS, row.row_id
            assert row.pooling in (POOL_LAST, POOL_MULTI, POOL_ATTENTION), row.row_id
        assert not row.correct_neutral or row.space == ALIGN_SPACE, row.row_id
        assert any(row.space.admits(p) for p in all_profiles()), row.row_id


class TestSpecValidation:
    def test_unknown_model_kind_rejected(self):
        with pytest.raises(SpaceMismatch):
            LadderRow("t", "t", "transformer", "176", LabelSpaceKind.PROFILE36)

    def test_unknown_layout_rejected(self):
        with pytest.raises(SpaceMismatch):
            LadderRow("t", "t", "baseline", "1024", LabelSpaceKind.PROFILE36)
        with pytest.raises(SpaceMismatch):
            LadderRow("t", "t", "lstm_multipool", "agg", LabelSpaceKind.PROFILE36)


_SVG = "{http://www.w3.org/2000/svg}"

# every value ties with others, one class is never seen, and two cells
# share the peak
_SVG36_COUNTS = np.arange(36 * 36, dtype=np.int64).reshape(36, 36) % 7
_SVG36_COUNTS[5] = 0
_SVG36_COUNTS[9, 30] = _SVG36_COUNTS[20, 2] = 13


def _read_heatmap(doc):
    """A parsed heatmap's (k, k) grey levels (255 where no square is drawn),
    its grid (line positions, origin and pitch) and its label group. Every
    fill square and grid line must sit on the grid."""
    (grid_path,) = doc.findall(f"{_SVG}path[@fill='none']")
    assert grid_path.get("stroke") == "rgb(200,200,200)" and grid_path.get("stroke-width") == "0.5"
    lines = re.findall(r"M(\d+) (\d+)([hv])(\d+)", grid_path.get("d"))
    assert "".join(f"M{x} {y}{a}{n}" for x, y, a, n in lines) == grid_path.get("d")
    grid = {"h": [int(y) for _, y, a, _ in lines if a == "h"], "v": [int(x) for x, _, a, _ in lines if a == "v"]}
    x0, y0, k = grid["v"][0], grid["h"][0], len(grid["h"]) - 1
    pitch = (grid["v"][-1] - x0) // k
    assert grid["v"] == [x0 + j * pitch for j in range(k + 1)]
    assert grid["h"] == [y0 + i * pitch for i in range(k + 1)]
    assert {int(n) for *_, n in lines} == {k * pitch}
    assert all(int(x) == x0 if a == "h" else int(y) == y0 for x, y, a, _ in lines)
    shades = np.full((k, k), 255)
    for path in doc.findall(f"{_SVG}path"):
        if path is grid_path:
            continue
        level = re.fullmatch(r"rgb\((\d+),\1,\1\)", path.get("fill"))
        squares = re.findall(r"M(\d+) (\d+)h(\d+)v\3h-\3z", path.get("d"))
        assert "".join(f"M{x} {y}h{c}v{c}h-{c}z" for x, y, c in squares) == path.get("d")
        for x, y, c in squares:
            i, j = (int(y) - y0) // pitch, (int(x) - x0) // pitch
            assert (int(x), int(y), int(c)) == (x0 + j * pitch, y0 + i * pitch, pitch)
            assert shades[i, j] == 255, "a cell drawn twice"
            shades[i, j] = int(level.group(1))
        assert int(level.group(1)) < 255
    (group,) = doc.findall(f"{_SVG}g")
    assert group.get("font-family") == "monospace"
    return shades, {**grid, "x0": x0, "y0": y0, "pitch": pitch}, group


class TestFiles:
    def test_csv_round_trips_counts(self):
        m = ConfusionMatrix.from_predictions(
            np.array([0, 1, 1, 2, 0, 2]), np.array([0, 1, 2, 2, 1, 0]), ["x", "y", "z"]
        )
        text = confusion_csv(m)
        lines = text.strip().split("\n")
        assert lines[0] == "true\\pred,x,y,z"
        parsed = np.array([[int(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        np.testing.assert_array_equal(parsed, m.counts)
        # row sums equal per-class support
        np.testing.assert_array_equal(parsed.sum(axis=1), m.counts.sum(axis=1))

    @pytest.mark.parametrize(
        "counts",
        [
            np.zeros((3, 3), dtype=np.int64),  # no mass: no fill paths
            np.array([[5]]),
            np.array([[10, 0], [0, 5]]),  # 5 / 10 rounds half to even: 128
            _SVG36_COUNTS,
        ],
        ids=["zeros3", "one", "two", "profile36"],
    )
    def test_svg_cells_grid_and_labels_read_back(self, counts):
        k = len(counts)
        labels = [f"c{i}" for i in range(k)] if k < 36 else [p.code for p in PROFILES]
        doc = ET.fromstring(confusion_svg(ConfusionMatrix(labels=labels, counts=counts), "demo"))
        assert [t.text for t in doc.findall(f"{_SVG}text")] == ["demo", "rows: true, columns: predicted"]
        shades, grid, group = _read_heatmap(doc)
        peak = counts.max()
        want = [[round(255 * (1.0 - c / peak)) if peak else 255 for c in row] for row in counts.tolist()]
        assert shades.tolist() == want
        # one fill path per grey level below white, then the grid path
        assert len(doc.findall(f"{_SVG}path")) == len({v for row in want for v in row} - {255}) + 1
        assert len(grid["h"]) == len(grid["v"]) == k + 1
        texts = group.findall(f"{_SVG}text")
        rows = [t for t in texts if t.get("text-anchor") == "end"]
        columns = [t for t in texts if t.get("transform", "").startswith("rotate(-60 ")]
        assert len(texts) == 2 * k
        assert [t.text for t in rows] == [t.text for t in columns] == labels
        # row labels right-aligned left of the grid, column labels above it,
        # each centred on its cell
        cell = grid["pitch"]
        assert {int(t.get("x")) for t in rows} == {grid["x0"] - 4}
        assert [int(t.get("x")) for t in columns] == [grid["x0"] + j * cell + cell // 2 for j in range(k)]
        assert {int(t.get("y")) for t in columns} == {grid["y0"] - 4}
        font = int(group.get("font-size"))
        assert [int(t.get("y")) for t in rows] == [grid["y0"] + i * cell + cell // 2 + font // 2 for i in range(k)]

    def test_svg_title_and_labels_are_escaped(self):
        labels = ["a&b", "<c>"]
        svg = confusion_svg(ConfusionMatrix(labels=labels, counts=np.eye(2, dtype=np.int64)), "R&D <x>")
        doc = ET.fromstring(svg)
        assert [t.text for t in doc.findall(f"{_SVG}text")] == ["R&D <x>", "rows: true, columns: predicted"]
        _, _, group = _read_heatmap(doc)
        assert [t.text for t in group.findall(f"{_SVG}text")] == ["a&b", "a&b", "<c>", "<c>"]

    def test_svg_of_36_classes_matches_pinned_digest(self):
        labels = [p.code for p in PROFILES]
        svg = confusion_svg(ConfusionMatrix(labels=labels, counts=_SVG36_COUNTS), "profile36")
        digest = hashlib.sha256(svg.encode("utf-8")).hexdigest()
        assert digest == "a96e696c939feaa05ab332ba25cbcb0e7ba4f61be3f043ff450059e0c994cca4"

    def test_emit_report_writes_expected_files(self, tmp_path):
        ckpt = _ckpt()
        samples = _samples(list(range(10)))
        report = evaluate(score_windows(ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, name="demo", dims="176")
        written = emit_report(report, tmp_path / "row")
        names = sorted(p.name for p in written)
        assert "metrics.json" in names
        assert "confusion_profile36.csv" in names
        assert "confusion_alignment9.svg" in names
        assert "table.md" in names
        loaded = json.loads((tmp_path / "row" / "metrics.json").read_text())
        assert loaded["accuracies"]["main"] == report.accuracies["main"]
        assert loaded["n_samples"] == 10

    def test_emit_report_is_deterministic(self, tmp_path):
        ckpt = _ckpt()
        samples = _samples(list(range(6)))
        blobs = []
        for d in ("a", "b"):
            report = evaluate(score_windows(ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, name="demo", dims="176")
            emit_report(report, tmp_path / d)
            blobs.append(
                {p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
            )
        assert blobs[0] == blobs[1]

    def test_write_failing_part_way_leaves_the_earlier_file_and_no_temp(self, tmp_path):
        scores = score_windows(_ckpt(), _samples(list(range(6))), PROFILE_SPACE)
        emit_report(evaluate(scores, PROFILE_SPACE, name="demo", dims="176"), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # a lone surrogate reaches the SVG title, which UTF-8 cannot encode
        with pytest.raises(UnicodeEncodeError):
            emit_report(evaluate(scores, PROFILE_SPACE, name="\ud800", dims="176"), tmp_path)
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(after) == sorted(before)
        assert after["confusion_profile36.svg"] == before["confusion_profile36.svg"]

    def test_os_error_is_io_failure_and_leaves_no_temp(self, tmp_path):
        (tmp_path / "t.md").mkdir()  # os.replace cannot put a file over a directory
        with pytest.raises(IoFailure, match="table write failed"):
            write_table(tmp_path / "t.md", [failed_report("broken", "176", "profile36", "x")])
        assert [p.name for p in tmp_path.iterdir()] == ["t.md"]

    def test_table_formats_percentages(self):
        ckpt = _ckpt()
        samples = _samples(list(range(4)))
        report = evaluate(score_windows(ckpt, samples, PROFILE_SPACE), PROFILE_SPACE, name="demo", dims="176")
        report.accuracies["main"] = 0.25
        lines = table_rows([report])
        assert "25.0%" in lines[2]

    def test_failed_row_rendered_with_error(self, tmp_path):
        report = failed_report("broken", "176", "profile36", "missing checkpoint")
        lines = table_rows([report])
        assert "FAILED" in lines[2]
        assert "missing checkpoint" in lines[2]
        write_table(tmp_path / "t.md", [report])
        assert "FAILED" in (tmp_path / "t.md").read_text()

    def test_failed_report_dict_is_pinned(self):
        doc = failed_report("broken", "176", "profile36", "missing checkpoint").to_dict()
        assert doc == {
            "metrics_version": 1,
            "name": "broken",
            "dims": "176",
            "label_space": "profile36",
            "n_samples": 0,
            "n_games": 0,
            "accuracies": {},
            "random_baseline": {"subset_space": 0.0, "full_space": 0.0},
            "lift": {"vs_subset_baseline": 0.0, "vs_full36_baseline": 0.0},
            "neutral_column_mass": None,
            "neutral_prior": None,
            "confusion": {
                "main": {"labels": [], "counts": [], "per_class": []},
                "alignment": None,
                "motivation": None,
            },
            "correction": None,
            "config_digest": "",
            "failed": True,
            "error": "missing checkpoint",
        }

    def test_random_baseline_values(self):
        assert random_baseline(PROFILE_SPACE) == pytest.approx(1 / 36)
        assert random_baseline(ALIGN_SPACE) == pytest.approx(1 / 9)
        assert random_baseline(LabelSpace(LabelSpaceKind.MOTIVATION4)) == pytest.approx(1 / 4)
