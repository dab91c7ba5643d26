"""Acceptance gate: ten end-to-end checks with one verdict line each.

Run with -v to get one PASSED/FAILED row per check; each test also prints
a verdict line carrying the measured numbers. The desk-scale ladder runs
once as a module fixture and several checks read its artifacts.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import test_features as feature_oracles
import test_gradients as gradient_oracles
import test_lstm as forward_oracles

from profilebench.cli import EXIT_OK, main
from profilebench.dataset import SplitSpec, build_index, read_splits, split_by_game, window_starts
from profilebench.features import (
    N_AVAIL_SELECT,
    N_BEHAVIORAL,
    N_BEHAVIORAL_LEGACY,
    N_LEGACY,
    N_MOVEMENT,
    N_TEMPORAL,
    N_TEXT,
    N_TEXT_LEGACY,
    N_TOTAL,
    N_TRANSITION,
    SCHEMA_VERSION,
    read_feature_file,
)
from profilebench.hashing import mix_seed
from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    init_checkpoint,
)
from profilebench.models.training import Batch, TrainConfig, train_step
from profilebench.evaluation import evaluate, score_windows
from profilebench.pipeline import LADDER_BY_ID
from profilebench.taxonomy import LabelSpace, LabelSpaceKind, Profile

REPO = Path(__file__).resolve().parent.parent
DESK_CONFIG = REPO / "configs" / "desk.json"
DESK_BUDGET_SECONDS = 30 * 60


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Full ladder at the checked-in desk config, timed end to end."""
    out = tmp_path_factory.mktemp("desk") / "out"
    start = time.perf_counter()
    code = main(["--config", str(DESK_CONFIG), "--out", str(out), "run-all"])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    return out, elapsed


def _metrics(out: Path, row_id: str) -> dict:
    return json.loads((out / "results" / row_id / "metrics.json").read_text(encoding="utf-8"))


def test_01_every_gradient_matches_finite_differences():
    start = time.perf_counter()
    worst = gradient_oracles._check_all_params(POOL_MULTI)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60
    _verdict(1, "gradient oracle", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_forward_pass_matches_naive_reference():
    rng = np.random.default_rng(1202)
    worst = 0.0
    for _ in range(100):
        T = int(rng.integers(1, 7))
        D = int(rng.integers(1, 6))
        H = int(rng.integers(1, 5))
        X = rng.normal(0, 1, (T, D))
        fwd = forward_oracles._random_params(rng, D, H)
        bwd = forward_oracles._random_params(rng, D, H)
        got = forward_oracles.bilstm_forward(X, fwd, bwd)
        want = forward_oracles._naive_bilstm(X, fwd, bwd)
        np.testing.assert_allclose(got, want, atol=1e-9, rtol=1e-9)
        worst = max(worst, float(np.abs(got - want).max()))
    # integer-valued states make permutation invariance exact, not approximate
    states = rng.integers(-5, 6, (9, 8)).astype(float)
    pooled = forward_oracles.multi_pool(states)
    exact = all(
        np.array_equal(pooled, forward_oracles.multi_pool(states[rng.permutation(9)])) for _ in range(50)
    )
    _verdict(2, "forward oracle", exact, f"max fwd dev {worst:.2e}, 50/50 permutations exact")


def test_03_feature_dimensions_and_crafted_oracle():
    dims_ok = (
        N_TRANSITION + N_AVAIL_SELECT + N_TEMPORAL + N_MOVEMENT == 48 == N_BEHAVIORAL
        and N_BEHAVIORAL + N_TEXT == 176 == N_TOTAL
        and N_TEXT_LEGACY + N_BEHAVIORAL_LEGACY == 530 == N_LEGACY
        and round(100 * N_TEXT / N_TOTAL, 1) == 72.7
        and round(100 * N_TEXT_LEGACY / N_LEGACY, 1) == 96.6
    )
    session = feature_oracles._session([0, 3, 1, 4])
    full = feature_oracles._rows176(session, *feature_oracles._GRID)
    worst = 0.0
    for t in range(4):
        behav = feature_oracles._oracle_behavioral(session.decisions[: t + 1], 36, 10.0)
        d = session.decisions[t]
        text = feature_oracles._oracle_embed(d.room_text + " " + d.action_text, N_TEXT)
        want = np.array(behav + text)
        worst = max(worst, float(np.abs(full[t] - want).max()))
    ok = dims_ok and full.shape == (4, 176) and worst < 1e-12
    _verdict(3, "feature audit", ok, f"48/176/530 dims, fractions 72.7/96.6, oracle dev {worst:.1e}")


def test_04_balance_ratio_and_split_leakage(desk_run):
    out, _ = desk_run
    index = json.loads((out / "balanced_index.json").read_text(encoding="utf-8"))
    totals = [entry["windows"] for entry in index["profiles"].values()]
    ratio = max(totals) / min(totals)

    rng = np.random.default_rng(404)
    leaks = 0
    for _ in range(1000):
        n_profiles = int(rng.integers(6, 14))
        picked = rng.choice(36, size=n_profiles, replace=False)
        windows = []  # one (game_id, profile_index, length) record per window
        gid = 0
        for j, p in enumerate(picked):
            # first profile always has enough games to populate every split
            count = 5 if j == 0 else int(rng.integers(1, 7))
            for _ in range(count):
                starts = window_starts(int(rng.integers(4, 30)), 8, 4)
                windows.extend((gid, int(p), length) for _, length in starts)
                gid += 1
        corpus = {code: [g.game_id for g in games] for code, games in build_index(windows).profiles.items()}
        assignment = split_by_game(corpus, SplitSpec(0.6, 0.2, 0.2), int(rng.integers(2**31)))
        # a map holds each game once, so a leak is a game missing or added
        if assignment.keys() != {g for ids in corpus.values() for g in ids}:
            leaks += 1
    ok = ratio <= 1.2 and leaks == 0
    _verdict(4, "balance and splits", ok, f"imbalance {ratio:.4f} <= 1.2, {leaks} leaks in 1000 trials")


def test_05_untrained_models_score_at_chance(desk_run):
    out, _ = desk_run
    samples = read_feature_file(out / "features.pbf").samples("176")
    assignment = read_splits(out / "splits.json")
    test_samples = [s for s in samples if assignment.get(s.game_id) == "test"]
    row = LADDER_BY_ID["multipool_176"]
    accs = []
    for pooling in (POOL_MULTI, POOL_ATTENTION, POOL_LAST):
        ckpt = init_checkpoint(
            input_dim=N_TOTAL,
            hidden=64,
            n_classes=36,
            pooling=pooling,
            seed=mix_seed(20260801, "untrained", pooling),
            label_space_tag="profile36",
            schema_version=SCHEMA_VERSION,
        )
        scores = score_windows(ckpt, test_samples, row.space)
        report = evaluate(scores, row.space, name=row.display, dims=row.layout)
        accs.append(report.accuracies["main"])
    ok = all(abs(a - 1 / 36) <= 0.02 for a in accs)
    shown = ", ".join(f"{100 * a:.2f}%" for a in accs)
    _verdict(5, "untrained calibration", ok, f"accuracies {shown} vs 2.78% band +/-2")


def test_06_ladder_orderings_hold_at_desk_scale(desk_run):
    out, elapsed = desk_run
    multi = _metrics(out, "multipool_176")["accuracies"]
    base530 = _metrics(out, "lstm_base_530")["accuracies"]["main"]
    agg = _metrics(out, "baseline_agg")["accuracies"]["main"]
    a = multi["main"] >= 3 / 36
    b = multi["main"] > base530 and multi["main"] > agg
    c = multi["motivation_head"] >= 0.50
    timed = elapsed < DESK_BUDGET_SECONDS
    ok = a and b and c and timed
    _verdict(
        6,
        "desk ladder",
        ok,
        f"multi {100 * multi['main']:.1f}% vs 530 {100 * base530:.1f}% / agg {100 * agg:.1f}%, "
        f"motivation {100 * multi['motivation_head']:.1f}%, {elapsed:.0f}s",
    )


def test_07_neutral_profiles_are_harder_and_absorb_mass(desk_run):
    out, _ = desk_run
    non_neutral = _metrics(out, "multipool_176_nonneutral")["accuracies"]["main"]
    neutral = _metrics(out, "multipool_176_neutral")["accuracies"]["main"]
    full = _metrics(out, "multipool_176")
    gap = non_neutral - neutral
    mass = full["neutral_column_mass"]
    prior = full["neutral_prior"]
    ok = gap >= 0.05 and mass > prior
    _verdict(
        7,
        "neutral semantic gap",
        ok,
        f"non-neutral {100 * non_neutral:.1f}% vs neutral {100 * neutral:.1f}% "
        f"(gap {100 * gap:.1f}pts), column mass {mass:.3f} > prior {prior:.3f}",
    )


def test_08_correction_moves_predictions_toward_prior(desk_run):
    out, _ = desk_run
    metrics = _metrics(out, "align9_corrected")
    info = metrics["correction"]
    prior = np.array(info["prior_freqs"])
    corrected = np.array(info["test_predicted_freqs_corrected"])
    uncorrected = np.array(info["test_predicted_freqs_uncorrected"])
    l1_corrected = float(np.abs(corrected - prior).sum())
    l1_uncorrected = float(np.abs(uncorrected - prior).sum())
    acc = metrics["accuracies"]["main"]
    acc_raw = info["test_accuracy_uncorrected"]
    ok = l1_corrected < l1_uncorrected and acc >= acc_raw - 0.01
    _verdict(
        8,
        "neutral correction",
        ok,
        f"L1 {l1_corrected:.4f} < {l1_uncorrected:.4f}, "
        f"accuracy {100 * acc:.2f}% vs raw {100 * acc_raw:.2f}% (eta {info['eta']})",
    )


def test_09_single_batch_overfits_at_default_rate():
    B, T, D, H = 6, 8, 16, 48
    rng = np.random.default_rng(0)
    profiles = [Profile.from_index(int(i)) for i in rng.choice(36, size=B, replace=False)]
    X = rng.normal(0, 1, (B, T, D))
    spaces = {
        kind: LabelSpace(kind)
        for kind in (LabelSpaceKind.PROFILE36, LabelSpaceKind.ALIGNMENT9, LabelSpaceKind.MOTIVATION4)
    }
    batch = Batch(
        X=X,
        y_profile=np.array([spaces[LabelSpaceKind.PROFILE36].labels[p.index] for p in profiles]),
        y_align=np.array([spaces[LabelSpaceKind.ALIGNMENT9].labels[p.index] for p in profiles]),
        y_motiv=np.array([spaces[LabelSpaceKind.MOTIVATION4].labels[p.index] for p in profiles]),
    )
    ckpt = init_checkpoint(
        input_dim=D, hidden=H, n_classes=36, pooling=POOL_MULTI, seed=0,
        label_space_tag="profile36", schema_version=SCHEMA_VERSION,
    )
    # everything at defaults, learning rate included; only sizes are pinned
    config = TrainConfig(batch_size=B, hidden=H)
    moments = (np.zeros_like(ckpt.flat), np.zeros_like(ckpt.flat))
    losses = [train_step(batch, ckpt, moments, config, 0, step) for step in range(200)]
    crossed = next((i for i, v in enumerate(losses) if v < 0.05), None)
    ok = crossed is not None
    _verdict(
        9,
        "overfit one batch",
        ok,
        f"loss {losses[-1]:.4f} after 200 steps at lr {config.learning_rate}, "
        f"first <0.05 at step {crossed}",
    )


def test_10_repeated_runs_are_byte_identical(tmp_path):
    config = {
        "master_seed": 4242,
        "games_per_profile": 10,
        "sim": {"max_steps": 20},
        "window_len": 8,
        "stride": 4,
        "split": {"train": 0.6, "val": 0.2, "test": 0.2},
        "train": {"epochs": 2, "hidden": 8, "patience": 2},
    }
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["--config", str(cfg_path), "--out", str(out), "run-all"])
        assert code == EXIT_OK
        outs.append(out)

    def _tracked(root: Path) -> dict[str, bytes]:
        picked = {}
        for pattern in ("results/**/metrics.json", "results/**/confusion_*.csv", "checkpoints/*"):
            for p in root.glob(pattern):
                if p.is_file():
                    picked[str(p.relative_to(root))] = p.read_bytes()
        return picked

    first, second = _tracked(outs[0]), _tracked(outs[1])
    same_names = set(first) == set(second)
    diffs = [name for name in first if same_names and first[name] != second[name]]
    ok = same_names and not diffs and len(first) > 0
    _verdict(
        10,
        "determinism",
        ok,
        f"{len(first)} files byte-identical across two runs" if ok else f"diffs: {diffs[:4]}",
    )
