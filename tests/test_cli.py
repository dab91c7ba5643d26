"""End-to-end CLI behavior: stage chaining, exit codes, overrides."""

import builtins
import dataclasses
import errno
import gc
import hashlib
import json
import os
import shutil
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from profilebench.cli import (
    EXIT_CONFIG,
    EXIT_DEPENDENCY,
    EXIT_IO,
    EXIT_OK,
    main,
)
from profilebench import evaluation, pipeline
from profilebench.dataset import SplitSpec, read_splits
from profilebench.errors import ConfigInvalid, IoFailure, NonFiniteLoss
from profilebench.features import N_TOTAL, FeatureFile, RowStore, read_feature_file
from profilebench.models.baseline import BaselineModel
from profilebench.models.checkpoint import POOL_MULTI, init_checkpoint, save_checkpoint
from profilebench.models.lstm import CHUNK_ROWS
from profilebench.models.training import TrainConfig
from profilebench.pipeline import PipelineConfig, read_config
from profilebench.simulator import SimConfig, load_sessions

from test_simulator import _v2_record
from test_features import game_rows

TINY = {
    "master_seed": 91,
    "games_per_profile": 5,
    "sim": {"max_steps": 20},
    "window_len": 8,
    "stride": 4,
    "split": {"train": 0.6, "val": 0.2, "test": 0.2},
    "train": {"epochs": 2, "hidden": 8, "patience": 2},
    "ladder": ["baseline_agg", "multipool_176", "align9_corrected"],
}


# Train keys earlier versions took, at their old defaults; seed derives
# from master_seed per row, the rest is fixed in models/training.py.
REMOVED_TRAIN_KEYS = {
    "seed": 5,
    "lambda_align": 0.5,
    "lambda_motiv": 0.5,
    "clip_norm": 5.0,
    "attention_size": 64,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
}


def _v2_digest(sessions: Path) -> str:
    """sha256 of the sessions file's games written as sessions-jsonl-v2."""
    text = "".join(json.dumps(_v2_record(s), separators=(",", ":")) + "\n" for s in load_sessions(sessions))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record_starts(data: bytes) -> list[int]:
    """The byte offset of each game record in a features.pbf file: a
    24-byte header, then per game a `<QBII` record header (T at byte 9, nnz
    at byte 13), 194 bytes per decision, 3 per non-zero text count and 416
    bytes of aggregates."""
    starts, at = [], 24
    while at < len(data):
        starts.append(at)
        t, nnz = struct.unpack_from("<II", data, at + 9)
        at += 17 + 194 * t + 3 * nnz + 416
    return starts


def _as_pbf4(data: bytes) -> bytes:
    """A PBF5 features.pbf written as the dense PBF4 an older featurize
    wrote: magic b"PBF4", and per game a `<QBI` record header, its 48
    float32 columns, then all 512 int8 text counts per decision."""
    out = [b"PBF4" + data[4:24]]
    for at in _record_starts(data):
        game_profile, (t, nnz) = data[at : at + 9], struct.unpack_from("<II", data, at + 9)
        rows = at + 17 + 192 * t
        row_nnz = struct.unpack_from(f"<{t}H", data, rows)
        buckets = struct.unpack_from(f"<{nnz}H", data, rows + 2 * t)
        values = data[rows + 2 * t + 2 * nnz : rows + 2 * t + 3 * nnz]
        dense = bytearray(512 * t)
        row_of = [r for r, n in enumerate(row_nnz) for _ in range(n)]
        for r, bucket, value in zip(row_of, buckets, values):
            dense[512 * r + bucket] = value
        aggregates = rows + 2 * t + 3 * nnz
        out += [game_profile, struct.pack("<I", t), data[at + 17 : rows], bytes(dense), data[aggregates : aggregates + 416]]
    return b"".join(out)


def _write_config(directory: Path, **overrides) -> Path:
    doc = dict(TINY, **overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One tiny run-all; later tests read its artifacts."""
    root = tmp_path_factory.mktemp("cli_run")
    config = _write_config(root)
    out = root / "out"
    code = main(["--config", str(config), "--out", str(out), "run-all"])
    assert code == EXIT_OK
    return root, config, out


class _FailingHandle:
    """A write handle that passes on `budget` bytes (characters in text
    mode), then writes what fits of the next write and raises ENOSPC."""

    def __init__(self, fh, budget: int):
        self._fh, self._budget = fh, budget

    def write(self, data):
        if len(data) > self._budget:
            self._fh.write(data[: self._budget])
            self._budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._budget -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def _new_checkpoint(out: Path) -> None:
    ckpt = init_checkpoint(
        input_dim=N_TOTAL, hidden=8, n_classes=36, pooling=POOL_MULTI, seed=92,
        label_space_tag="profile36", schema_version=3,
    )
    save_checkpoint(out / "checkpoints" / "multipool_176.pbck", ckpt)


def _new_baseline(out: Path) -> None:
    model = BaselineModel(W=np.ones((36, 52)), b=np.zeros(36), mean=np.zeros(52), std=np.ones(52), n_classes=36)
    pipeline._save_baseline(out / "checkpoints" / "baseline_agg.json", model)


# artifact -> (CLI args run first on each copy, the CLI args or writer call
# that rewrites the artifact with new bytes, the `what` its IoFailure names).
# The checkpoint writers are called directly: `train` records their
# IoFailure as the row's failure and deletes the row's files.
_REWRITES = {
    "sessions.jsonl": ([], ["--seed", "92", "gen"], "corpus"),
    "manifest.json": ([], ["--seed", "92", "gen"], "corpus"),
    "features.pbf": (["--seed", "92", "gen"], ["featurize"], "feature file"),
    "balanced_index.json": ([], ["--seed", "92", "balance"], "index"),
    "splits.json": ([], ["--seed", "92", "split"], "split"),
    "checkpoints/multipool_176.pbck": ([], _new_checkpoint, "checkpoint"),
    "checkpoints/multipool_176.pbck.json": ([], _new_checkpoint, "checkpoint"),
    "checkpoints/baseline_agg.json": ([], _new_baseline, "baseline checkpoint"),
    "checkpoints/train_status.json": ([], ["train", "--rows", "baseline_agg"], "train status"),
    "provenance/gen.json": ([], ["--seed", "92", "gen"], "provenance"),
}


class TestRunAll:
    def test_produces_every_stage_artifact(self, finished_run):
        _, _, out = finished_run
        for name in (
            "sessions.jsonl",
            "manifest.json",
            "features.pbf",
            "balanced_index.json",
            "splits.json",
        ):
            assert (out / name).exists(), name
        for name in ("features176.pbf", "features530.pbf", "aggregates.csv"):
            assert not (out / name).exists(), name
        assert (out / "checkpoints" / "multipool_176.pbck").exists()
        assert (out / "checkpoints" / "baseline_agg.json").exists()
        assert (out / "results" / "consolidated.md").exists()
        assert (out / "results" / "multipool_176" / "metrics.json").exists()
        assert not list(out.rglob("*.tmp"))  # every artifact was renamed into place

    def test_metrics_content_is_sane(self, finished_run):
        _, _, out = finished_run
        metrics = json.loads(
            (out / "results" / "multipool_176" / "metrics.json").read_text()
        )
        assert metrics["label_space"] == "profile36"
        assert 0.0 <= metrics["accuracies"]["main"] <= 1.0
        assert metrics["n_samples"] > 0
        assert not metrics["failed"]

    def test_lstm_metrics_carry_their_checkpoint_config_digest(self, finished_run):
        _, _, out = finished_run
        for row in ("multipool_176", "align9_corrected"):
            metrics = json.loads((out / "results" / row / "metrics.json").read_text())
            sidecar = json.loads((out / "checkpoints" / f"{row}.pbck.json").read_text())
            assert len(sidecar["config_digest"]) == 64
            assert metrics["config_digest"] == sidecar["config_digest"], row
        baseline = json.loads((out / "results" / "baseline_agg" / "metrics.json").read_text())
        assert baseline["config_digest"] == ""

    def test_provenance_written_per_stage(self, finished_run):
        _, _, out = finished_run
        stages = {p.stem for p in (out / "provenance").glob("*.json")}
        assert {"gen", "featurize", "balance", "split", "train", "eval"} <= stages

    def test_stage_reruns_are_idempotent(self, finished_run):
        root, config, out = finished_run
        before = (out / "splits.json").read_bytes()
        code = main(["--config", str(config), "--out", str(out), "split"])
        assert code == EXIT_OK
        assert (out / "splits.json").read_bytes() == before


    def test_failed_training_leaves_no_checkpoint_to_score(self, finished_run, tmp_path, monkeypatch):
        # the run left a trained multipool_176; a retrain that fails must not
        # let eval score that earlier checkpoint as this run's
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)

        def diverge(*args, **kwargs):
            raise NonFiniteLoss("loss diverged at step 0: nan")

        monkeypatch.setattr(pipeline, "train", diverge)
        argv = ["--config", str(config), "--out", str(copy)]
        assert main([*argv, "train", "--rows", "multipool_176"]) == EXIT_OK
        status = json.loads((copy / "checkpoints" / "train_status.json").read_text())
        assert status["multipool_176"].startswith("failed: NonFiniteLoss")
        assert not list((copy / "checkpoints").glob("multipool_176.*"))
        assert main([*argv, "eval", "--rows", "multipool_176"]) == EXIT_OK
        metrics = json.loads((copy / "results" / "multipool_176" / "metrics.json").read_text())
        assert metrics["failed"] and metrics["error"] == "checkpoint missing"

    def test_missing_baseline_checkpoint_report_names_its_dims(self, finished_run, tmp_path):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "checkpoints" / "baseline_agg.json").unlink()
        assert main(["--config", str(config), "--out", str(copy), "eval", "--rows", "baseline_agg"]) == EXIT_OK
        metrics = json.loads((copy / "results" / "baseline_agg" / "metrics.json").read_text())
        assert metrics["failed"] and metrics["error"] == "checkpoint missing"
        assert metrics["dims"] == "52 (agg)"
        ok = json.loads((out / "results" / "baseline_agg" / "metrics.json").read_text())
        assert ok["dims"] == metrics["dims"]

    def test_eval_scores_each_sequence_rows_test_windows_in_one_call(self, finished_run, tmp_path, monkeypatch):
        # perfbench's ScoreProbe pairs the calls of evaluation.predict_logits,
        # in order, with the sequence rows' admissible test windows
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        calls = []
        original = evaluation.predict_logits

        def record(ckpt, samples, *args):
            calls.append((ckpt.label_space_tag, sorted((s.game_id, s.window) for s in samples)))
            return original(ckpt, samples, *args)

        monkeypatch.setattr(evaluation, "predict_logits", record)
        assert main(["--config", str(config), "--out", str(copy), "eval"]) == EXIT_OK
        features = read_feature_file(copy / "features.pbf")
        splits = read_splits(copy / "splits.json")
        want = []
        for row in (pipeline.LADDER_BY_ID[r] for r in TINY["ladder"]):
            if row.model != "baseline":
                test = [s for s in features.samples(row.layout) if splits.get(s.game_id) == "test"]
                test = [s for s in test if row.space.admits(s.profile)]
                want.append((row.space.tag, sorted((s.game_id, s.window) for s in test)))
        assert [tag for tag, _ in want] == ["profile36", "alignment9"]
        assert calls == want
        # align9_corrected's validation windows go through pipeline.predict_logits
        assert "val" in splits.values()
        assert {splits[game_id] for _, windows in calls for game_id, _ in windows} == {"test"}

    def test_eval_checks_a_checkpoints_space_before_scoring(self, finished_run, tmp_path, monkeypatch):
        # align9_corrected fits its correction on val logits; a checkpoint of
        # another space must fail on its space before anything is scored
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        ckpts = copy / "checkpoints"
        for suffix in (".pbck", ".pbck.json"):
            shutil.copyfile(ckpts / f"multipool_176{suffix}", ckpts / f"align9_corrected{suffix}")
        scored = []  # align9_corrected's val scoring
        original = pipeline.predict_logits

        def record(ckpt, samples, *args):
            scored.append(len(samples))
            return original(ckpt, samples, *args)

        monkeypatch.setattr(pipeline, "predict_logits", record)
        assert main(["--config", str(config), "--out", str(copy), "eval", "--rows", "align9_corrected"]) == EXIT_OK
        metrics = json.loads((copy / "results" / "align9_corrected" / "metrics.json").read_text())
        assert metrics["failed"]
        assert metrics["error"] == "SpaceMismatch: checkpoint space 'profile36' != experiment space 'alignment9'"
        assert scored == []

    def test_train_and_eval_hold_one_layout_at_a_time(self, finished_run, tmp_path, monkeypatch):
        # each stage reads the feature file once, then decodes each layout
        # once in ladder order, dropping one layout's stores before the next;
        # the only dense arrays of a split's rows are training batches and
        # the row chunks that validation and scoring project, each filled
        # into a workspace view
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        cfg = dataclasses.replace(PipelineConfig.from_file(config), out_dir=str(copy))
        reads, decodes = [], []
        alive: list[tuple[str, weakref.ref]] = []  # (layout, store) per decoded store
        fills: list[tuple[tuple, bool, bool]] = []  # (index shape, into `out`, while scoring) per RowStore.fill
        scoring = []  # not empty while predict_logits runs
        original_read = pipeline.read_feature_file
        original_samples = FeatureFile.samples
        original_aggregates = FeatureFile.aggregates
        original_fill = RowStore.fill
        original_predict = evaluation.predict_logits

        def read(*args, **kwargs):
            reads.append(args[0])
            return original_read(*args, **kwargs)

        def samples(self, layout, group=None):
            gc.collect()
            others = [name for name, store in alive if store() is not None and name != layout]
            assert not others, f"{others} stores alive while {layout} is decoded"
            decodes.append((layout, group))
            loaded = original_samples(self, layout, group)
            stores = {id(s.game.store): s.game.store for s in loaded}
            # 530 keeps only its 18 behavioral columns dense; the 176 store is all dense
            assert [store.dense.shape[1] for store in stores.values()] == [{"176": 176, "530": 18}[layout]]
            alive.extend((layout, weakref.ref(store)) for store in stores.values())
            return loaded

        def aggregates(self, group=None):
            decodes.append(("agg", group))
            return original_aggregates(self, group)

        def fill(self, rows, dtype, out=None):
            fills.append((rows.shape, out is not None, bool(scoring)))
            return original_fill(self, rows, dtype, out)

        def predict(*args):
            scoring.append(args)
            try:
                return original_predict(*args)
            finally:
                scoring.pop()

        monkeypatch.setattr(pipeline, "read_feature_file", read)
        monkeypatch.setattr(FeatureFile, "samples", samples)
        monkeypatch.setattr(FeatureFile, "aggregates", aggregates)
        monkeypatch.setattr(RowStore, "fill", fill)
        monkeypatch.setattr(evaluation, "predict_logits", predict)
        monkeypatch.setattr(pipeline, "predict_logits", predict)
        rows = [row.row_id for row in pipeline.LADDER]
        assert set(pipeline.stage_train(cfg, rows).values()) == {"trained"}
        assert reads == [copy / "features.pbf"]
        assert decodes == [("agg", "train"), ("530", "train"), ("530", "val"), ("176", "train"), ("176", "val")]
        assert len(alive) == 4
        # training fills (B, T) batches' rows, validation 1-D chunks of its batches' rows
        chunk = CHUNK_ROWS + 23
        assert {len(shape) for shape, _, _ in fills} == {1, 2}
        assert all(into and not scored for _, into, scored in fills)
        for shape, _, _ in fills:
            assert shape[0] <= cfg.train.batch_size and shape[1] <= cfg.window_len if len(shape) == 2 else shape[0] <= chunk
        reads.clear()
        decodes.clear()
        fills.clear()
        assert not any(report.failed for report in pipeline.stage_eval(cfg, rows))
        assert reads == [copy / "features.pbf"]
        assert decodes == [("agg", "test"), ("530", "test"), ("176", "test"), ("176", "val")]
        # scoring (seven test sets, align9_corrected's val) fills only row
        # chunks of its stack, never the whole stack once it has more rows
        assert fills and all(len(shape) == 1 and shape[0] <= chunk and into and scored for shape, into, scored in fills)
        gc.collect()
        assert all(store() is None for _, store in alive)  # nothing outlives its stage

    def test_row_order_does_not_change_outputs(self, finished_run, tmp_path):
        # rows of interleaved layouts decode a layout again, from the same bytes
        _, config, out = finished_run
        runs = {}
        for name, rows in (
            ("ladder", "lstm_base_530,multipool_176,align9_corrected"),
            ("interleaved", "multipool_176,lstm_base_530,align9_corrected"),
        ):
            copy = tmp_path / name
            shutil.copytree(out, copy)
            for stage in ("train", "eval"):
                assert main(["--config", str(config), "--out", str(copy), stage, "--rows", rows]) == EXIT_OK
            runs[name] = copy
        for row in ("lstm_base_530", "multipool_176", "align9_corrected"):
            files = [f"checkpoints/{row}.pbck", f"checkpoints/{row}.pbck.json", f"results/{row}/metrics.json"]
            files += sorted(f"results/{row}/{p.name}" for p in (runs["ladder"] / "results" / row).glob("confusion*"))
            assert len(files) > 3
            for name in files:
                assert (runs["ladder"] / name).read_bytes() == (runs["interleaved"] / name).read_bytes(), name

    def test_report_on_truncated_metrics_is_dependency_error(self, finished_run, tmp_path, capsys):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        metrics = copy / "results" / "multipool_176" / "metrics.json"
        metrics.write_bytes(metrics.read_bytes()[:-20])
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), "report"]) == EXIT_DEPENDENCY
        assert "metrics.json" in capsys.readouterr().err


    @pytest.mark.parametrize("damage", ["cut_to_30_bytes", "one_trailing_byte"])
    def test_eval_on_damaged_checkpoint_is_dependency_error(
        self, finished_run, tmp_path, capsys, damage
    ):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        ckpt = copy / "checkpoints" / "multipool_176.pbck"
        data = ckpt.read_bytes()
        ckpt.write_bytes(data[:30] if damage == "cut_to_30_bytes" else data + b"\0")
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), "eval"]) == EXIT_DEPENDENCY
        assert "multipool_176.pbck" in capsys.readouterr().err

    def test_eval_without_feature_file_is_dependency_error(self, finished_run, tmp_path, capsys):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "features.pbf").unlink()
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), "eval"]) == EXIT_DEPENDENCY
        assert "features.pbf" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [None, "multipool_176", "lstm_base_530,baseline_agg"])
    def test_eval_provenance_records_the_inputs_train_records(
        self, finished_run, tmp_path, rows
    ):
        _, config, out = finished_run
        if rows is not None:
            copy = tmp_path / "out"
            shutil.copytree(out, copy)
            out = copy
            for stage in ("train", "eval"):
                assert main(["--config", str(config), "--out", str(out), stage, "--rows", rows]) == EXIT_OK

        def inputs(stage):
            return json.loads((out / "provenance" / f"{stage}.json").read_text())["inputs"]

        assert inputs("eval") == inputs("train")
        assert sorted(inputs("eval")) == ["balanced_index.json", "features.pbf", "splits.json"]

    @pytest.mark.parametrize("cut", ["cut_200_bytes", "record_boundary"])
    def test_train_on_cut_aggregates_is_dependency_error(self, finished_run, tmp_path, capsys, cut):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        features = copy / "features.pbf"
        data = features.read_bytes()
        if cut == "cut_200_bytes":  # inside the last game's 416-byte aggregate block
            data = data[:-200]
        else:  # the last game's whole record
            data = data[: _record_starts(data)[-1]]
        features.write_bytes(data)
        capsys.readouterr()
        code = main(["--config", str(config), "--out", str(copy), "train", "--rows", "baseline_agg"])
        assert code == EXIT_DEPENDENCY
        assert "features.pbf" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["train", "eval"])
    def test_splits_naming_a_game_the_feature_file_lacks_is_dependency_error(
        self, finished_run, tmp_path, capsys, stage
    ):
        # a splits.json left from a larger corpus: one game more than features.pbf holds
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        splits = json.loads((copy / "splits.json").read_text(encoding="utf-8"))
        splits[str(max(map(int, splits)) + 1)] = "train"
        (copy / "splits.json").write_text(json.dumps(splits), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), stage]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "splits.json names 1 game(s)" in err and "features.pbf" in err
        assert "rerun balance and split" in err

    def test_train_on_damaged_test_record_is_dependency_error(self, finished_run, tmp_path, capsys):
        # train decodes only train and val games, but still checks every record
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        splits = json.loads((copy / "splits.json").read_text(encoding="utf-8"))
        features = copy / "features.pbf"
        data = bytearray(features.read_bytes())
        starts = _record_starts(bytes(data))
        i = [splits.get(str(struct.unpack_from("<Q", data, at)[0])) for at in starts].index("test")
        at = starts[i]
        t, nnz = struct.unpack_from("<II", data, at + 9)
        assert nnz > 0
        data[at + 17 + 194 * t + 2 * nnz] = 0  # its first stored text count
        features.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), "train"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert f"features.pbf: record {i} " in err and "zero" in err

    @pytest.mark.parametrize("stage", ["train", "eval"])
    def test_stride_other_than_featurized_is_dependency_error(
        self, finished_run, tmp_path, capsys, stage
    ):
        _, _, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        config = _write_config(tmp_path, stride=2)  # featurized at stride 4
        capsys.readouterr()
        code = main(["--config", str(config), "--out", str(copy), stage, "--rows", "multipool_176"])
        assert code == EXIT_DEPENDENCY
        assert "features.pbf" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["balance", "train", "eval"])
    def test_pbf2_feature_file_is_dependency_error(self, finished_run, tmp_path, capsys, stage):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        # a whole PBF2 file (float32 text rows) with no records
        (copy / "features.pbf").write_bytes(struct.pack("<4sIIIIII", b"PBF2", 1, 0, 0, 176, 8, 4))
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), stage]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "features.pbf" in err and "rerun featurize" in err

    def test_train_on_pbf4_feature_file_is_dependency_error(self, finished_run, tmp_path, capsys):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        features = copy / "features.pbf"
        features.write_bytes(_as_pbf4(features.read_bytes()))
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), "train"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "features.pbf" in err and "PBF4" in err and "rerun featurize" in err

    @pytest.mark.parametrize(
        "argv, ladder",
        [(["train", "--rows", ""], None), (["eval", "--rows", ","], None), (["run-all"], [])],
    )
    def test_no_rows_is_config_error_and_writes_nothing(
        self, finished_run, tmp_path, capsys, argv, ladder
    ):
        _, _, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        config = _write_config(tmp_path) if ladder is None else _write_config(tmp_path, ladder=ladder)
        kept = [copy / "checkpoints" / "train_status.json", copy / "results" / "table.md"]
        kept += sorted((copy / "provenance").glob("*.json"))
        assert all(p.exists() for p in kept) and len(kept) > 2
        before = {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), *argv]) == EXIT_CONFIG
        assert "no ladder rows" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()} == before


class TestStages:
    def test_gen_then_featurize(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(config), "--out", str(out), "gen"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "effective master seed: 91" in printed
        assert "wrote 180 sessions" in printed
        assert main(["--config", str(config), "--out", str(out), "featurize"]) == EXIT_OK
        assert (out / "features.pbf").exists()

    def test_gen_sessions_match_pinned_digest(self, tmp_path):
        # sha256 of the corpus written, as sessions-jsonl-v2, before offered
        # actions were shared and each dungeon's rates were drawn in one
        # call; the v3 file's sessions, re-encoded as v2, must give it back.
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "12", "gen", "--games-per-profile", "1"]) == EXIT_OK
        assert _v2_digest(out / "sessions.jsonl") == "7800818c1cf40691268623e52c66fcbe555a2b4399c3ce6c98648bd3471084a6"
        digest = hashlib.sha256((out / "sessions.jsonl").read_bytes()).hexdigest()
        assert digest == "8f6d7927f1053925bf5cf009f51a250df0d3dda38988ac93c53387f97eabb0a2"

    def test_gen_all_entity_sessions_match_pinned_digest(self, tmp_path):
        # Every room holds every entity, so every room template renders and
        # menus fill all six slots, on a 9x2 grid. sha256 of the corpus
        # written, as v2, before each game's text was rendered in one batch.
        rates = {f"{e}_rate": 1.0 for e in ("monster", "merchant", "villager", "treasure")}
        config = _write_config(tmp_path, sim={"width": 9, "height": 2, **rates})
        out = tmp_path / "o"
        argv = ["--config", str(config), "--out", str(out), "gen", "--games-per-profile", "1"]
        assert main(argv) == EXIT_OK
        assert _v2_digest(out / "sessions.jsonl") == "4b15be1876092943db65ee05306c0cae1a61ae0e4c307924411228dd5a8ff429"
        digest = hashlib.sha256((out / "sessions.jsonl").read_bytes()).hexdigest()
        assert digest == "02f2c1ad2924a6c7be90586f1f8674fb4b6cd01d17cddb5da06ff9bf043bec80"

    def test_featurize_outputs_match_pinned_digest(self, tmp_path):
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "12", "gen", "--games-per-profile", "1"]) == EXIT_OK
        assert main(["--out", str(out), "--seed", "12", "featurize"]) == EXIT_OK
        # sha256 of the PBF5 file (sparse text counts)
        digest = hashlib.sha256((out / "features.pbf").read_bytes()).hexdigest()
        assert digest == "0f0410f77b4f04df4587cef125093b18249e8aff948e4ea1cc7e368bc7868270"
        # Pins that hold across file formats: sha256 of each layout's decoded
        # game rows in load order, and of the float64 aggregate matrix, as
        # the three files of PBF3, aggregates.csv and PBF4 gave them back.
        features = read_feature_file(out / "features.pbf")
        X, _, _ = features.aggregates()
        decoded = {}
        for layout in ("176", "530"):
            games = {id(s.game): s.game for s in features.samples(layout)}  # one GameRows per game, in load order
            decoded[layout] = hashlib.sha256(b"".join(game_rows(g).tobytes() for g in games.values())).hexdigest()
        decoded["agg"] = hashlib.sha256(X.tobytes()).hexdigest()
        assert decoded == {
            "176": "41c4c7d1dd01b7988d9baf5ebd69b962e997f8383829e981a95218f9de241ac8",
            "530": "ea75ff5b9b0543bde3c71cb13b8c6e12932ceaf355c48839552e47721ae63a01",
            "agg": "ea4079ea55fd14301106ce36c4c94a50594643a3ad8ee6c61c8b77b2067fa783",
        }

    def test_balance_and_split_match_pinned_digest(self, tmp_path):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        for stage in ("gen", "featurize", "balance", "split"):
            assert main(["--config", str(config), "--out", str(out), stage]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("balanced_index.json", "splits.json")}
        assert digests == {
            "balanced_index.json": "9f0ca0a87d13bbd33b16a39dfb909f3adc117ca8a46052fb3b1a603c45d5b870",
            "splits.json": "185b13ecac2db637acba49d635eb7b4dbc90295328d212f4470f1251e97cefb0",
        }

    @pytest.mark.parametrize(
        "code",
        ["move_north/y0", "move_north", "rest/1", "juggle"],
        ids=["move_mistyped_flags", "move_no_flags", "rest_with_flag", "unknown_code"],
    )
    def test_featurize_on_malformed_option_is_dependency_error(self, tmp_path, capsys, code):
        def edit(doc):
            menu = doc["decisions"][0][0].split(" ")
            doc["decisions"][0][0] = " ".join([code, *menu[1:]])

        self._featurize_with_line_3_edited(tmp_path, capsys, edit)

    @pytest.mark.parametrize("chosen", [-1, 99])
    def test_featurize_on_choice_outside_the_menu_is_dependency_error(self, tmp_path, capsys, chosen):
        # -1 would featurize the last option, 99 crash on the menu lookup
        def edit(doc):
            doc["decisions"][0][1] = chosen

        self._featurize_with_line_3_edited(tmp_path, capsys, edit)

    @pytest.mark.parametrize("game_id", ["abc", -1, 2**64])
    def test_featurize_on_game_id_outside_u64_is_dependency_error(self, tmp_path, capsys, game_id):
        # each crashed the feature record's u64 pack
        self._featurize_with_line_3_edited(tmp_path, capsys, lambda doc: doc.update(game_id=game_id))

    @pytest.mark.parametrize(
        "field, value",
        [("action_text", 5), ("room_text", None), ("seed", "abc"), ("seed", -1)],
        ids=["action_text_int", "room_text_null", "seed_string", "seed_negative"],
    )
    def test_featurize_on_mistyped_text_or_seed_is_dependency_error(self, tmp_path, capsys, field, value):
        # a text that is not a string crashed featurize; a seed outside u64
        # featurized with exit 0
        def edit(doc):
            if field.endswith("_text"):
                doc["decisions"][0][2 if field == "room_text" else 3] = value
            else:
                doc[field] = value

        self._featurize_with_line_3_edited(tmp_path, capsys, edit)

    @staticmethod
    def _featurize_with_line_3_edited(tmp_path, capsys, edit):
        """gen, `edit` the record on line 3, then featurize: exit 4 naming
        the line, and no feature file written."""
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "12", "gen", "--games-per-profile", "1"]) == EXIT_OK
        sessions = out / "sessions.jsonl"
        lines = sessions.read_text(encoding="utf-8").splitlines(keepends=True)
        doc = json.loads(lines[2])
        edit(doc)
        lines[2] = json.dumps(doc) + "\n"
        sessions.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert main(["--out", str(out), "--seed", "12", "featurize"]) == EXIT_DEPENDENCY
        assert "sessions.jsonl line 3" in capsys.readouterr().err
        assert not list(out.glob("features*.pbf"))

    def test_featurize_without_gen_is_dependency_error(self, tmp_path):
        config = _write_config(tmp_path)
        code = main(["--config", str(config), "--out", str(tmp_path / "empty"), "featurize"])
        assert code == EXIT_DEPENDENCY

    @pytest.mark.parametrize("cut", ["mid_line", "line_boundary"])
    def test_featurize_truncated_sessions_is_dependency_error(self, tmp_path, capsys, cut):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(config), "--out", str(out), "gen"]) == EXIT_OK
        sessions = out / "sessions.jsonl"
        data = sessions.read_bytes()
        if cut == "mid_line":
            data = data[:-5000]
        else:
            data = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
        sessions.write_bytes(data)
        capsys.readouterr()
        code = main(["--config", str(config), "--out", str(out), "featurize"])
        assert code == EXIT_DEPENDENCY
        assert "sessions.jsonl" in capsys.readouterr().err
        assert not list(out.glob("features*.pbf"))

    @pytest.mark.parametrize(
        "upstream, artifact, stage",
        [
            (["gen"], "manifest.json", "featurize"),
            (["gen", "featurize", "balance"], "balanced_index.json", "split"),
        ],
        ids=["manifest", "balanced_index"],
    )
    def test_truncated_json_artifact_is_dependency_error(
        self, tmp_path, capsys, upstream, artifact, stage
    ):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        for step in upstream:
            assert main(["--config", str(config), "--out", str(out), step]) == EXIT_OK
        path = out / artifact
        path.write_bytes(path.read_bytes()[:-20])
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(out), stage]) == EXIT_DEPENDENCY
        assert artifact in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["sessions-jsonl-v1", "sessions-jsonl-v2", "sessions-jsonl-v3"])
    def test_featurize_on_v1_manifest_is_dependency_error(self, tmp_path, capsys, fmt):
        # a corpus of an older sessions format needs gen again, and so does a
        # v3 corpus whose manifest holds no sha256 of its sessions file
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(config), "--out", str(out), "gen"]) == EXIT_OK
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        del doc["sessions_sha256"]
        manifest.write_text(json.dumps(dict(doc, format=fmt)), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(out), "featurize"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "manifest.json" in err and "rerun gen" in err
        assert ("sessions_sha256" if fmt == "sessions-jsonl-v3" else fmt) in err
        assert not list(out.glob("features*.pbf"))

    def test_featurize_on_sessions_its_manifest_does_not_describe_is_dependency_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # a second gen whose manifest write fails leaves its sessions beside
        # the first gen's manifest, which has the same game count
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        argv = ["--config", str(config), "--out", str(out)]
        assert main([*argv, "gen"]) == EXIT_OK
        manifest = (out / "manifest.json").read_bytes()
        real_open = builtins.open

        def failing_open(file, *args, **kwargs):
            if Path(file).name == "manifest.json.tmp":
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(file, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", failing_open)
            assert main([*argv, "--seed", "92", "gen"]) == EXIT_IO
        assert (out / "manifest.json").read_bytes() == manifest
        capsys.readouterr()
        assert main([*argv, "featurize"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "sessions.jsonl" in err and "rerun gen" in err
        assert not list(out.glob("features*.pbf"))

    def test_split_on_damaged_index_is_dependency_error(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        for stage in ("gen", "featurize", "balance"):
            assert main(["--config", str(config), "--out", str(out), stage]) == EXIT_OK
        index = out / "balanced_index.json"
        doc = json.loads(index.read_text(encoding="utf-8"))
        doc["profiles"]["XX-Foo"] = doc["profiles"].pop("LG-Safety")
        index.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(out), "split"]) == EXIT_DEPENDENCY
        assert "balanced_index.json" in capsys.readouterr().err
        assert not (out / "splits.json").exists()

    @pytest.mark.parametrize(
        "change",
        [{"bogus": 1}, {"width": 0}, {"width": "6"}],
        ids=["unknown_key", "zero_width", "string_width"],
    )
    def test_featurize_on_invalid_manifest_sim_config_is_dependency_error(
        self, tmp_path, capsys, change
    ):
        # the manifest is at fault, not the user's config: exit 4, not 2
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(config), "--out", str(out), "gen"]) == EXIT_OK
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        doc["sim_config"].update(change)
        manifest.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(out), "featurize"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "manifest.json" in err and "sim_config" in err
        assert not list(out.glob("features*.pbf"))

    def test_eval_without_train_is_dependency_error(self, tmp_path):
        config = _write_config(tmp_path)
        code = main(["--config", str(config), "--out", str(tmp_path / "empty"), "eval"])
        assert code == EXIT_DEPENDENCY

    def test_report_without_results_is_dependency_error(self, tmp_path):
        config = _write_config(tmp_path)
        code = main(["--config", str(config), "--out", str(tmp_path / "empty"), "report"])
        assert code == EXIT_DEPENDENCY


class TestExitCodes:
    def test_invalid_games_per_profile(self, tmp_path):
        config = _write_config(tmp_path)
        code = main(
            ["--config", str(config), "--out", str(tmp_path / "o"), "gen", "--games-per-profile", "0"]
        )
        assert code == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(TINY, typo_key=1)), encoding="utf-8")
        assert main(["--config", str(path), "gen"]) == EXIT_CONFIG

    def test_malformed_json_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(path), "gen"]) == EXIT_CONFIG

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json"), "gen"]) == EXIT_IO

    def test_unknown_row_name(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = main(
            ["--config", str(config), "--out", str(tmp_path / "o"), "train", "--rows", "nonesuch"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "nonesuch" in err and "multipool_176" in err  # names the known rows

    def test_unknown_row_name_on_eval(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        code = main(
            ["--config", str(config), "--out", str(tmp_path / "o"), "eval", "--rows", "baseline_agg,nonesuch"]
        )
        assert code == EXIT_CONFIG
        assert "multipool_176" in capsys.readouterr().err

    def test_repeated_row_name_is_config_error_and_writes_nothing(self, finished_run, tmp_path, capsys):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        before = {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()}
        rows = "multipool_176,baseline_agg,multipool_176"
        for stage in ("train", "eval"):
            capsys.readouterr()
            assert main(["--config", str(config), "--out", str(copy), stage, "--rows", rows]) == EXIT_CONFIG
            assert "more than once" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("artifact", list(_REWRITES))
    def test_write_failing_part_way_leaves_the_earlier_file(
        self, finished_run, tmp_path, monkeypatch, capsys, artifact
    ):
        _, config, out = finished_run
        setup, rewrite, what = _REWRITES[artifact]

        def run(copy: Path, step) -> int:
            if callable(step):
                step(copy)
                return EXIT_OK
            return main(["--config", str(config), "--out", str(copy), *step])

        rewritten, failed = tmp_path / "rewritten", tmp_path / "failed"
        for copy in (rewritten, failed):
            shutil.copytree(out, copy)
            if setup:
                assert run(copy, setup) == EXIT_OK
        before = (failed / artifact).read_bytes()
        assert run(rewritten, rewrite) == EXIT_OK
        after = (rewritten / artifact).read_bytes()
        assert after != before
        name = (failed / artifact).name
        real_open = builtins.open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and Path(file).name in (name, name + ".tmp"):
                return _FailingHandle(fh, len(after) // 2)  # half-way through the new bytes
            return fh

        monkeypatch.setattr(builtins, "open", failing_open)
        capsys.readouterr()
        if callable(rewrite):
            with pytest.raises(IoFailure, match=f"^{what} write failed: .*No space left on device"):
                rewrite(failed)
        else:
            assert run(failed, rewrite) == EXIT_IO
            assert capsys.readouterr().err.startswith(f"error: {what} write failed: ")
        assert (failed / artifact).read_bytes() == before
        assert not list(failed.rglob("*.tmp"))

    def test_repeated_row_in_config_ladder(self, tmp_path, capsys):
        config = _write_config(tmp_path, ladder=["baseline_agg", "multipool_176", "baseline_agg"])
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == EXIT_CONFIG
        assert "baseline_agg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "doc, key",
        [
            (dict(TINY, games_per_profile="60"), "games_per_profile"),
            (dict(TINY, train={"epochs": "5"}), "epochs"),
            (dict(TINY, sim={"width": "6"}), "width"),
            (dict(TINY, split={"train": "0.7"}), "train"),
            (dict(TINY, balance_target=True), "balance_target"),
            (7, "object"),
        ],
        ids=["games_per_profile", "train_epochs", "sim_width", "split_train", "bool_for_int", "top_level"],
    )
    def test_mistyped_config_value(self, tmp_path, capsys, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--config", str(path), "--out", str(tmp_path / "o"), "gen"]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_legacy_thread_keys_load(self, tmp_path, capsys, deterministic):
        # configs written before generation lost its thread pool carry both keys
        config = _write_config(tmp_path, games_per_profile=1, threads=1, deterministic=deterministic)
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == EXIT_OK
        assert "wrote 36 sessions" in capsys.readouterr().out

    def test_more_than_one_thread_is_config_error(self, tmp_path, capsys):
        config = _write_config(tmp_path, threads=2)
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err

    def test_split_fractions_must_sum_to_one(self, tmp_path):
        config = _write_config(tmp_path, split={"train": 0.5, "val": 0.1, "test": 0.1})
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "change, key",
        [({"baseline": {"epochs": 50}}, "baseline")]
        + [({"train": {key: value}}, key) for key, value in REMOVED_TRAIN_KEYS.items()],
        ids=["baseline"] + [f"train.{key}" for key in REMOVED_TRAIN_KEYS],
    )
    def test_removed_config_key_is_config_error(self, tmp_path, capsys, change, key):
        # named, not accepted and then ignored
        config = _write_config(tmp_path, **change)
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["featurize", "--window-len", "8"],
            ["featurize", "--stride", "2"],
            ["balance", "--target", "10"],
            ["split", "--train-frac", "0.8"],
            ["split", "--val-frac", "0.1"],
            ["split", "--test-frac", "0.1"],
            ["train", "--epochs", "3"],
            ["train", "--hidden", "8"],
            ["run-all", "--epochs", "3"],
            ["run-all", "--hidden", "8"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path / "o"), *argv])
        assert exc.value.code == EXIT_CONFIG
        assert argv[1] in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).parents[1].glob("configs/*.json")), ids=lambda p: p.name
)
def test_committed_configs_load(path):
    assert isinstance(PipelineConfig.from_file(path), PipelineConfig)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TrainConfig(epochs=0),
        lambda: dataclasses.replace(SimConfig(), width=0),
        lambda: read_config(SimConfig, {"width": 0}),
        lambda: PipelineConfig(ladder=()),
        lambda: SplitSpec(train=1.0, val=0.0, test=0.0),
    ],
    ids=["train", "replace_sim", "read_sim", "pipeline", "split"],
)
def test_configs_are_checked_when_built(build):
    with pytest.raises(ConfigInvalid):
        build()


class TestOverrides:
    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        code = main(["--config", str(config), "--out", str(out), "--seed", "777", "gen"])
        assert code == EXIT_OK
        assert "effective master seed: 777" in capsys.readouterr().out

    def test_out_env_fallback(self, tmp_path, capsys, monkeypatch):
        config = _write_config(tmp_path)
        target = tmp_path / "env_out"
        monkeypatch.setenv("PBENCH_OUT", str(target))
        assert main(["--config", str(config), "gen"]) == EXIT_OK
        assert (target / "sessions.jsonl").exists()

    def test_out_flag_beats_env(self, tmp_path, monkeypatch):
        config = _write_config(tmp_path)
        monkeypatch.setenv("PBENCH_OUT", str(tmp_path / "ignored"))
        flag_out = tmp_path / "flag_out"
        assert main(["--config", str(config), "--out", str(flag_out), "gen"]) == EXIT_OK
        assert (flag_out / "sessions.jsonl").exists()
        assert not (tmp_path / "ignored").exists()

    def test_defaults_without_config_file(self, tmp_path, capsys):
        # no --config: library defaults, overridden per flag
        out = tmp_path / "o"
        code = main(
            ["--out", str(out), "--seed", "5", "gen", "--games-per-profile", "2"]
        )
        assert code == EXIT_OK
        assert "wrote 72 sessions" in capsys.readouterr().out
