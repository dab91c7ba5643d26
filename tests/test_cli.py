"""End-to-end CLI behavior: stage chaining, exit codes, overrides."""

import hashlib
import json
import os
import shutil
import struct
from pathlib import Path

import pytest

from profilebench.cli import (
    EXIT_CONFIG,
    EXIT_DEPENDENCY,
    EXIT_IO,
    EXIT_OK,
    main,
)

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


class TestRunAll:
    def test_produces_every_stage_artifact(self, finished_run):
        _, _, out = finished_run
        for name in (
            "sessions.jsonl",
            "manifest.json",
            "features176.pbf",
            "features530.pbf",
            "aggregates.csv",
            "balanced_index.json",
            "splits.json",
        ):
            assert (out / name).exists(), name
        assert (out / "checkpoints" / "multipool_176.pbck").exists()
        assert (out / "checkpoints" / "baseline_agg.json").exists()
        assert (out / "results" / "consolidated.md").exists()
        assert (out / "results" / "multipool_176" / "metrics.json").exists()

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

    def test_eval_without_aggregates_is_dependency_error(self, finished_run, tmp_path, capsys):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / "aggregates.csv").unlink()
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), "eval"]) == EXIT_DEPENDENCY
        assert "aggregates.csv" in capsys.readouterr().err

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
        assert ("features530.pbf" in inputs("eval")) == ("530" in (rows or ""))

    @pytest.mark.parametrize("cut", ["cut_200_bytes", "line_boundary"])
    def test_train_on_cut_aggregates_is_dependency_error(self, finished_run, tmp_path, capsys, cut):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        aggregates = copy / "aggregates.csv"
        data = aggregates.read_bytes()
        if cut == "cut_200_bytes":
            data = data[:-200]
        else:
            data = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
        aggregates.write_bytes(data)
        capsys.readouterr()
        code = main(["--config", str(config), "--out", str(copy), "train", "--rows", "baseline_agg"])
        assert code == EXIT_DEPENDENCY
        assert "aggregates.csv" in capsys.readouterr().err

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
        assert "features176.pbf" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["balance", "train", "eval"])
    def test_pbf2_feature_file_is_dependency_error(self, finished_run, tmp_path, capsys, stage):
        _, config, out = finished_run
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        # a whole PBF2 file (float32 text rows) with no records
        (copy / "features176.pbf").write_bytes(struct.pack("<4sIIIIII", b"PBF2", 1, 0, 0, 176, 8, 4))
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(copy), stage]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "features176.pbf" in err and "rerun featurize" in err

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
        assert (out / "features176.pbf").exists()

    def test_gen_sessions_match_pinned_digest(self, tmp_path):
        # sha256 of the corpus written before offered actions were shared
        # and each dungeon's rates were drawn in one call.
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "12", "gen", "--games-per-profile", "1"]) == EXIT_OK
        digest = hashlib.sha256((out / "sessions.jsonl").read_bytes()).hexdigest()
        assert digest == "7800818c1cf40691268623e52c66fcbe555a2b4399c3ce6c98648bd3471084a6"

    def test_gen_all_entity_sessions_match_pinned_digest(self, tmp_path):
        # Every room holds every entity, so every room template renders and
        # menus fill all six slots, on a 9x2 grid. sha256 of the corpus
        # written before each game's text was rendered in one batch.
        rates = {f"{e}_rate": 1.0 for e in ("monster", "merchant", "villager", "treasure")}
        config = _write_config(tmp_path, sim={"width": 9, "height": 2, **rates})
        out = tmp_path / "o"
        argv = ["--config", str(config), "--out", str(out), "gen", "--games-per-profile", "1"]
        assert main(argv) == EXIT_OK
        digest = hashlib.sha256((out / "sessions.jsonl").read_bytes()).hexdigest()
        assert digest == "4b15be1876092943db65ee05306c0cae1a61ae0e4c307924411228dd5a8ff429"

    def test_featurize_outputs_match_pinned_digest(self, tmp_path):
        # sha256 of the feature files and aggregates featurize wrote from the
        # pinned corpus above before seed prefixes were folded once and text
        # was embedded per cached sentence.
        out = tmp_path / "o"
        assert main(["--out", str(out), "--seed", "12", "gen", "--games-per-profile", "1"]) == EXIT_OK
        assert main(["--out", str(out), "--seed", "12", "featurize"]) == EXIT_OK
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("features176.pbf", "features530.pbf", "aggregates.csv")
        }
        assert digests == {
            "features176.pbf": "c10ead9b962e940335d9cf587ea57bb6ee38dfc61a93ce87cc90073953a225dd",
            "features530.pbf": "051abdfe9205e9085e729ebd0e6ecd8969363ca97e268756a899030b7f73b324",
            "aggregates.csv": "020d2b73708c59f8106971600d2181572d938a24ca018c2655bfd84de3d03c2f",
        }

    @pytest.mark.parametrize(
        "option",
        [
            {"kind": "move_north", "target_unvisited": "yes", "toward_exit": 0},
            {"kind": "move_north"},
            {"kind": "rest", "toward_exit": True},
        ],
        ids=["move_mistyped_flags", "move_no_flags", "rest_with_flag"],
    )
    def test_featurize_on_malformed_option_is_dependency_error(self, tmp_path, capsys, option):
        def edit(doc):
            doc["decisions"][0]["available"][0] = option

        self._featurize_with_line_3_edited(tmp_path, capsys, edit)

    @pytest.mark.parametrize("chosen", [-1, 99])
    def test_featurize_on_choice_outside_the_menu_is_dependency_error(self, tmp_path, capsys, chosen):
        # -1 would featurize the last option, 99 crash on the menu lookup
        self._featurize_with_line_3_edited(
            tmp_path, capsys, lambda doc: doc["decisions"][0].update(chosen=chosen)
        )

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
            (doc["decisions"][0] if field.endswith("_text") else doc)[field] = value

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

    def test_featurize_on_v1_manifest_is_dependency_error(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["--config", str(config), "--out", str(out), "gen"]) == EXIT_OK
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(dict(doc, format="sessions-jsonl-v1")), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "--out", str(out), "featurize"]) == EXIT_DEPENDENCY
        err = capsys.readouterr().err
        assert "manifest.json" in err and "rerun gen" in err

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
