"""Pipeline stages: gen, featurize, balance, split, train, eval, report.

Each stage reads the previous stage's files, writes its own declared
format, and records a provenance file holding sha256 digests of its exact
inputs plus the effective seed. No timestamps anywhere: rerunning with
the same config produces byte-identical artifacts.

A `PipelineConfig` and every config inside it are frozen and checked when
they are built, so the stages take them as valid. `LADDER` holds each
experiment row's facts once; training and evaluation read them from its
`LadderRow`. A row whose training fails loses its checkpoint, so eval
reports it missing instead of scoring an earlier run's.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from profilebench import __version__
from profilebench.dataset import (
    SplitSpec,
    auto_target,
    balance,
    build_index,
    read_index,
    read_splits,
    split_by_game,
    window_starts,
    write_index,
    write_splits,
)
from profilebench.errors import ConfigInvalid, IoFailure, ProfileBenchError, SchemaMismatch, SpaceMismatch
from profilebench.evaluation import (
    TABLE_HEADER,
    Report,
    Scores,
    calibrate_correction,
    emit_report,
    evaluate,
    failed_report,
    predict_logits,
    score_windows,
    table_row,
    write_table,
)
from profilebench.features import (
    N_AGGREGATE,
    SCHEMA_VERSION,
    SEQUENCE_DIMS,
    FeatureFile,
    FeatureFileWriter,
    SequenceSample,
    aggregate_features,
    behavioral_matrix,
    embed_tokens,
    read_feature_file,
    scan_feature_file,
)
from profilebench.hashing import digest_config, mix_seed, read_json, sha256_file, stable_json_dumps, write_text_atomic
from profilebench.models.baseline import BaselineModel, train_baseline
from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from profilebench.models.training import TrainConfig, train
# build_dungeon is unused here, but perfbench/tracing.py patches pipeline.build_dungeon by name
from profilebench.simulator import SESSIONS_FORMAT, SimConfig, build_dungeon, generate_corpus, load_sessions  # noqa: F401
from profilebench.taxonomy import LabelSpace, LabelSpaceKind


_POOLING = {"lstm_base": POOL_LAST, "lstm_multipool": POOL_MULTI, "lstm_attention": POOL_ATTENTION}


@dataclass(frozen=True)
class LadderRow:
    row_id: str
    display: str
    model: str
    layout: str
    space_kind: LabelSpaceKind
    correct_neutral: bool = False  # evaluated with the neutral correction; alignment9 rows only

    def __post_init__(self) -> None:
        if self.model != "baseline" and self.model not in _POOLING:
            raise SpaceMismatch(f"unknown model kind {self.model!r}")
        if self.layout not in (("agg",) if self.model == "baseline" else SEQUENCE_DIMS):
            raise SpaceMismatch(f"unknown layout {self.layout!r} for model {self.model!r}")

    def spec(self, seed: int) -> "LadderRow":
        # perfbench/phase.py reads a row's space as .spec(0).space (ROADMAP item 4)
        return self

    @property
    def space(self) -> LabelSpace:
        return LabelSpace(self.space_kind)

    @property
    def pooling(self) -> str:
        return _POOLING[self.model]

    def splits(self, stage: str) -> tuple[str, ...]:
        """The splits `stage` ("train" or "eval") reads for this row:
        training fits on train and, for a sequence model, validates on val;
        evaluation scores test, and fits the neutral correction on val."""
        if stage == "train":
            return ("train",) if self.model == "baseline" else ("train", "val")
        return ("test", "val") if self.correct_neutral else ("test",)

    @property
    def dims(self) -> str:
        """The input its report names: the layout, or the aggregate's width."""
        return f"{N_AGGREGATE} (agg)" if self.model == "baseline" else self.layout


LADDER: tuple[LadderRow, ...] = (
    LadderRow("baseline_agg", "Aggregate LogReg", "baseline", "agg", LabelSpaceKind.PROFILE36),
    LadderRow("lstm_base_530", "LSTM Base", "lstm_base", "530", LabelSpaceKind.PROFILE36),
    LadderRow("multipool_176", "LSTM Multi-Pooling", "lstm_multipool", "176", LabelSpaceKind.PROFILE36),
    LadderRow(
        "multipool_176_nonneutral",
        "LSTM Multi-Pooling (non-neutral 16)",
        "lstm_multipool",
        "176",
        LabelSpaceKind.NON_NEUTRAL_PROFILE16,
    ),
    LadderRow(
        "multipool_176_neutral",
        "LSTM Multi-Pooling (neutral 20)",
        "lstm_multipool",
        "176",
        LabelSpaceKind.NEUTRAL_PROFILE20,
    ),
    LadderRow(
        "attention_binary",
        "BiLSTM Attention (lawful vs rest)",
        "lstm_attention",
        "176",
        LabelSpaceKind.BINARY_LAWFUL2,
    ),
    LadderRow(
        "attention_law3",
        "BiLSTM Attention (law 3-way)",
        "lstm_attention",
        "176",
        LabelSpaceKind.LAW_AXIS3,
    ),
    LadderRow(
        "align9_corrected",
        "Multi-Pooling + neutral correction",
        "lstm_multipool",
        "176",
        LabelSpaceKind.ALIGNMENT9,
        correct_neutral=True,
    ),
)
LADDER_BY_ID = {row.row_id: row for row in LADDER}


def check_rows(row_ids: Iterable[str]) -> list[str]:
    """`row_ids` as a list; an empty list, a name outside the ladder, or a
    name given twice raises ConfigInvalid."""
    row_ids = list(row_ids)
    if not row_ids:  # a stage on no rows would only overwrite its outputs
        raise ConfigInvalid("no ladder rows given; name at least one of: " + ", ".join(LADDER_BY_ID))
    unknown = [r for r in row_ids if r not in LADDER_BY_ID]
    if unknown:
        raise ConfigInvalid(f"unknown ladder rows {unknown}; known rows: {', '.join(LADDER_BY_ID)}")
    repeated = sorted({r for r in row_ids if row_ids.count(r) > 1})
    if repeated:  # a row run twice trains or scores it twice, and reports it twice
        raise ConfigInvalid(f"ladder rows named more than once: {repeated}")
    return row_ids


# The JSON types a config value may take, by the type of its field's default.
_JSON_TYPES = {type(None): (type(None), int), float: (int, float)}


def read_config(cls, doc, where: str = "config"):
    """An instance of dataclass `cls` from the JSON object `doc`.

    Each key must name a field, and each value must have the type of that
    field's default (`_JSON_TYPES`): an int passes for a float, a bool never
    for an int, and a None default takes null or an int. A tuple default
    takes a list of strings, and a dataclass default an object read the
    same way. Fields left out keep their defaults. A failure raises
    ConfigInvalid naming the key.
    """
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{where} must be a JSON object, not {type(doc).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigInvalid(f"unknown {where} keys: {unknown}")
    values = {}
    for key, value in doc.items():
        f, name = fields[key], f"{where}.{key}"
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            value = read_config(type(default), value, name)
        elif isinstance(default, tuple):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise ConfigInvalid(f"{name} must be a list of strings: {value!r}")
            value = tuple(value)
        elif type(value) not in _JSON_TYPES.get(type(default), (type(default),)):
            raise ConfigInvalid(f"{name} has the wrong type for its default {default!r}: {value!r}")
        values[key] = value
    return cls(**values)


@dataclass(frozen=True)
class PipelineConfig:
    master_seed: int = 20260801
    games_per_profile: int = 60
    sim: SimConfig = field(default_factory=SimConfig)
    window_len: int = 8
    stride: int = 4
    balance_target: int | None = None
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    ladder: tuple[str, ...] = tuple(row.row_id for row in LADDER)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        """Checks the pipeline's own fields; the nested configs check
        themselves when they are built."""
        if self.games_per_profile < 1:
            raise ConfigInvalid(f"games_per_profile must be >= 1: {self.games_per_profile}")
        if self.window_len < 1 or self.stride < 1:
            raise ConfigInvalid("window_len and stride must be >= 1")
        if self.balance_target is not None and self.balance_target < 1:
            raise ConfigInvalid(f"balance_target must be >= 1: {self.balance_target}")
        check_rows(self.ladder)

    def digest_dict(self) -> dict:
        """Config content that determines outputs: all but the output
        location, so digests match across reruns."""
        doc = dataclasses.asdict(self)
        del doc["out_dir"]
        return doc

    @classmethod
    def from_dict(cls, doc) -> "PipelineConfig":
        if isinstance(doc, dict):
            # Older configs, and every config perfbench/workloads.py writes,
            # carry these two keys from when generation could run threaded.
            doc = dict(doc)
            threads = doc.pop("threads", 1)
            if type(threads) is not int or threads != 1:
                raise ConfigInvalid(f"threads must be 1, generation is single-threaded: {threads!r}")
            if type(doc.pop("deterministic", False)) is not bool:
                raise ConfigInvalid("deterministic must be true or false")
        return read_config(cls, doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise IoFailure(f"config read failed: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


class Paths:
    def __init__(self, out_dir: str | Path):
        self.root = Path(out_dir)
        self.sessions = self.root / "sessions.jsonl"
        self.manifest = self.root / "manifest.json"
        self.features = self.root / "features.pbf"
        # perfbench/phase.py opens the layouts' files by these names (ROADMAP item 4)
        self.features176 = self.features530 = self.features
        self.balanced_index = self.root / "balanced_index.json"
        self.splits = self.root / "splits.json"
        self.checkpoints = self.root / "checkpoints"
        self.results = self.root / "results"
        self.provenance = self.root / "provenance"

    def checkpoint(self, row_id: str) -> Path:
        suffix = ".json" if LADDER_BY_ID[row_id].model == "baseline" else ".pbck"
        return self.checkpoints / f"{row_id}{suffix}"

    def ensure_root(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)


def require(paths: list[Path], stage: str) -> None:
    """Upstream artifact check; callers map the failure to exit code 4."""
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise SchemaMismatch(f"{stage}: missing upstream artifacts: {', '.join(missing)}")


def write_provenance(
    paths: Paths,
    stage: str,
    inputs: list[Path],
    seed: int,
    params: dict,
    digests: dict[Path, str] | None = None,
) -> None:
    """`digests` holds sha256s of inputs the stage already read whole, so
    those files are not read a second time."""
    paths.provenance.mkdir(parents=True, exist_ok=True)
    try:  # numpy < 1.25 has no dict form of its build config
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    doc = {
        "stage": stage,
        "version": __version__,
        "seed": seed,
        "inputs": {p.name: (digests or {}).get(p) or sha256_file(p) for p in inputs},
        "params_digest": digest_config(params),
        # float bits (e.g. GEMM rounding on short windows) depend on these
        "libraries": {"python": platform.python_version(), "numpy": np.__version__, "blas": blas},
    }
    write_text_atomic(paths.provenance / f"{stage}.json", stable_json_dumps(doc) + "\n", "provenance")


def _read_manifest(path: Path) -> tuple[SimConfig, int, str]:
    """The corpus's simulator config, game count and sessions sha256;
    another format, a simulator config that does not validate, or no
    sessions digest raises SchemaMismatch."""
    try:
        fmt, sim_cfg, n_games, sessions_sha256 = read_json(
            path,
            "manifest",
            lambda d: (d["format"], read_config(SimConfig, d["sim_config"], "sim_config"),
                       sum(d["counts"].values()), d.get("sessions_sha256")),
        )
    except ConfigInvalid as exc:  # the manifest is at fault, not the user's config
        raise SchemaMismatch(f"{path}: invalid sim_config: {exc}; rerun gen") from exc
    if fmt != SESSIONS_FORMAT:
        raise SchemaMismatch(f"{path}: format {fmt!r}, expected {SESSIONS_FORMAT!r}; rerun gen")
    if sessions_sha256 is None:
        raise SchemaMismatch(f"{path}: no sessions_sha256; rerun gen")
    return sim_cfg, n_games, sessions_sha256


# --- stages ----------------------------------------------------------------


def stage_gen(cfg: PipelineConfig) -> dict:
    paths = Paths(cfg.out_dir)
    paths.ensure_root()
    manifest = generate_corpus(cfg.master_seed, cfg.games_per_profile, cfg.sim, paths.sessions, paths.manifest)
    write_provenance(paths, "gen", [], cfg.master_seed, cfg.digest_dict())
    return manifest


def stage_featurize(cfg: PipelineConfig) -> dict:
    paths = Paths(cfg.out_dir)
    require([paths.sessions, paths.manifest], "featurize")
    sim_cfg, expected, expected_sha256 = _read_manifest(paths.manifest)
    n_windows = 0
    with FeatureFileWriter(paths.features, cfg.window_len, cfg.stride) as writer:
        for session in load_sessions(paths.sessions):
            behavioral = behavioral_matrix(session, sim_cfg.width, sim_cfg.height)
            counts = embed_tokens([d.room_text + " " + d.action_text for d in session.decisions])
            aggregate = aggregate_features(session, behavioral, sim_cfg.max_steps)
            whole = (0, session.length)
            writer.add(SequenceSample(session.game_id, session.profile, whole, behavioral), counts, aggregate)
            n_windows += len(window_starts(session.length, cfg.window_len, cfg.stride))
        if writer.n != expected:
            raise SchemaMismatch(
                f"featurize: {paths.sessions} holds {writer.n} sessions, its manifest {expected}"
            )
        digests = {paths.sessions: sha256_file(paths.sessions)}
        if digests[paths.sessions] != expected_sha256:
            raise SchemaMismatch(f"featurize: {paths.sessions} is not the file its manifest describes; rerun gen")
    write_provenance(
        paths,
        "featurize",
        [paths.sessions, paths.manifest],
        cfg.master_seed,
        {"window_len": cfg.window_len, "stride": cfg.stride, "schema_version": SCHEMA_VERSION},
        digests,
    )
    return {"games": writer.n, "windows": n_windows, "schema_version": SCHEMA_VERSION}


def stage_balance(cfg: PipelineConfig) -> dict:
    paths = Paths(cfg.out_dir)
    require([paths.features], "balance")
    index = build_index(scan_feature_file(paths.features))
    target = cfg.balance_target if cfg.balance_target is not None else auto_target(index)
    seed = mix_seed(cfg.master_seed, "balance")
    balanced = balance(index, target, seed)
    write_index(paths.balanced_index, balanced, seed, target)
    write_provenance(
        paths, "balance", [paths.features], seed, {"target": target}
    )
    return {
        "target": target,
        "totals": balanced.totals(),
        "imbalance_ratio": balanced.imbalance_ratio(),
    }


def stage_split(cfg: PipelineConfig) -> dict:
    paths = Paths(cfg.out_dir)
    require([paths.balanced_index], "split")
    seed = mix_seed(cfg.master_seed, "split")
    assignment = split_by_game(read_index(paths.balanced_index), cfg.split, seed)
    write_splits(paths.splits, assignment)
    write_provenance(paths, "split", [paths.balanced_index], seed, dataclasses.asdict(cfg.split))
    counts = {name: sum(1 for v in assignment.values() if v == name) for name in ("train", "val", "test")}
    return {"games": counts}


class _LadderData:
    """The games of the splits a stage reads, kept as the feature file
    stores them, and the decoded rows of one layout at a time. Rows run in
    ladder order decode each layout once, and a stage holds at most one
    sequence layout's row stores (see `features.RowStore`: the 530 text
    stays sparse, so no dense 530 block of a split is built)."""

    def __init__(self, features: FeatureFile, reads: dict[str, set[str]], digests: dict[Path, str]):
        self.features = features
        self.reads = reads  # layout -> the splits the stage's rows of that layout read
        self.digests = digests  # sha256 of the feature file
        self.layout: str | None = None
        self.decoded: dict = {}

    def rows(self, layout: str, split: str):
        """`split`'s samples in sequence layout `layout`, its games' rows
        one read-only store, or its aggregates (X, y, ids) for "agg". A
        layout other than the last one's drops the last one's rows, then
        decodes this one for every split `reads` names for it."""
        if layout != self.layout:
            self.layout, self.decoded = None, {}  # free the last layout's stores before building these
            if layout == "agg":
                self.decoded = {s: self.features.aggregates(s) for s in sorted(self.reads[layout])}
            else:
                self.decoded = {s: self.features.samples(layout, s) for s in sorted(self.reads[layout])}
            self.layout = layout
        return self.decoded[split]


def _load_ladder_data(cfg: PipelineConfig, rows: list[LadderRow], stage: str) -> _LadderData:
    """Read the feature file once, keeping the games of the splits that
    `stage` reads for `rows` in stored form. A game splits.json names that
    the feature file lacks raises SchemaMismatch."""
    paths = Paths(cfg.out_dir)
    splits_of: dict[str, set[str]] = {}
    for row in rows:
        splits_of.setdefault(row.layout, set()).update(row.splits(stage))
    assignment = read_splits(paths.splits)
    needed = set().union(*splits_of.values())
    keep = {game_id: split for game_id, split in assignment.items() if split in needed}
    features = read_feature_file(paths.features, keep)
    missing = assignment.keys() - set(features.game_ids)
    if missing:
        raise SchemaMismatch(
            f"{paths.splits} names {len(missing)} game(s) that {paths.features} lacks; rerun balance and split"
        )
    windows = (features.header["window_len"], features.header["stride"])
    if splits_of.keys() - {"agg"} and windows != (cfg.window_len, cfg.stride):
        raise SchemaMismatch(
            f"{paths.features}: featurized with window_len, stride {windows}, "
            f"config has {(cfg.window_len, cfg.stride)}; rerun featurize"
        )
    return _LadderData(features, splits_of, {paths.features: features.header["sha256"]})


def _admissible(samples: list[SequenceSample], space: LabelSpace) -> list[SequenceSample]:
    admits = space.labels >= 0
    return [s for s in samples if admits[s.profile.index]]


def _save_baseline(path: Path, model: BaselineModel) -> None:
    doc = {
        "n_classes": model.n_classes,
        "mean": [float(v) for v in model.mean],
        "std": [float(v) for v in model.std],
        "W": [[float(v) for v in row] for row in model.W],
        "b": [float(v) for v in model.b],
    }
    write_text_atomic(path, stable_json_dumps(doc) + "\n", "baseline checkpoint")


def _load_baseline(path: Path) -> BaselineModel:
    return read_json(
        path,
        "baseline checkpoint",
        lambda doc: BaselineModel(
            W=np.asarray(doc["W"], dtype=float),
            b=np.asarray(doc["b"], dtype=float),
            mean=np.asarray(doc["mean"], dtype=float),
            std=np.asarray(doc["std"], dtype=float),
            n_classes=int(doc["n_classes"]),
        ),
    )


def train_row(cfg: PipelineConfig, row: LadderRow, data: _LadderData) -> None:
    """Train one ladder row and write its checkpoint."""
    paths = Paths(cfg.out_dir)
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    row_seed = mix_seed(cfg.master_seed, "train", row.row_id)
    if row.model == "baseline":
        X, y, _ = data.rows("agg", "train")
        model = train_baseline(X, y, n_classes=36, seed=row_seed)
        _save_baseline(paths.checkpoint(row.row_id), model)
        return
    space = row.space
    train_samples = _admissible(data.rows(row.layout, "train"), space)
    val_samples = _admissible(data.rows(row.layout, "val"), space)
    ckpt = init_checkpoint(
        input_dim=SEQUENCE_DIMS[row.layout],
        hidden=cfg.train.hidden,
        n_classes=space.cardinality,
        pooling=row.pooling,
        seed=row_seed,
        label_space_tag=space.tag,
        schema_version=SCHEMA_VERSION,
    )
    best, _ = train(train_samples, val_samples, space, ckpt, cfg.train, row_seed)
    best.config_digest = digest_config(cfg.digest_dict())
    save_checkpoint(paths.checkpoint(row.row_id), best)


def _row_inputs(paths: Paths) -> list[Path]:
    """The upstream files that training or evaluating ladder rows reads."""
    return [paths.features, paths.splits, paths.balanced_index]


def stage_train(cfg: PipelineConfig, rows: list[str] | None = None) -> dict:
    paths = Paths(cfg.out_dir)
    row_ids = check_rows(cfg.ladder if rows is None else rows)
    needed = _row_inputs(paths)
    require(needed, "train")
    data = _load_ladder_data(cfg, [LADDER_BY_ID[r] for r in row_ids], "train")
    status: dict[str, str] = {}
    for row_id in row_ids:
        try:
            train_row(cfg, LADDER_BY_ID[row_id], data)
            status[row_id] = "trained"
        except ProfileBenchError as exc:
            status[row_id] = f"failed: {type(exc).__name__}: {exc}"
            # an earlier run's checkpoint would otherwise be scored as this run's
            ckpt_path = paths.checkpoint(row_id)
            for path in (ckpt_path, ckpt_path.with_suffix(ckpt_path.suffix + ".json")):
                path.unlink(missing_ok=True)
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    write_text_atomic(paths.checkpoints / "train_status.json", stable_json_dumps(status) + "\n", "train status")
    write_provenance(
        paths,
        "train",
        needed,
        cfg.master_seed,
        {"rows": row_ids, "train": cfg.digest_dict()["train"]},
        data.digests,
    )
    return status


def eval_row(cfg: PipelineConfig, row: LadderRow, data: _LadderData) -> Report:
    paths = Paths(cfg.out_dir)
    space = row.space
    ckpt_path = paths.checkpoint(row.row_id)
    if not ckpt_path.exists():
        return failed_report(row.display, row.dims, space.tag, "checkpoint missing")
    correction, config_digest = None, ""
    if row.model == "baseline":
        X, y, ids = data.rows("agg", "test")
        scores = Scores({"profile": _load_baseline(ckpt_path).logits(X)}, y, ids, "game")
    else:
        ckpt = load_checkpoint(ckpt_path)
        if ckpt.schema_version != SCHEMA_VERSION:
            raise SchemaMismatch(
                f"checkpoint schema {ckpt.schema_version} != featurizer {SCHEMA_VERSION}"
            )
        # score_windows checks the checkpoint's label space, so it scores
        # first: a checkpoint of another space fails before val is scored
        scores = score_windows(ckpt, _admissible(data.rows(row.layout, "test"), space), space)
        if row.correct_neutral:
            val_samples = _admissible(data.rows(row.layout, "val"), space)
            # Scored through this module's name, not evaluation's: perfbench's
            # ScoreProbe pairs each call of evaluation.predict_logits, the one
            # score_windows makes, with a row's test windows.
            val_logits = predict_logits(ckpt, val_samples)["profile"]
            correction = calibrate_correction(val_logits, [s.profile.index for s in val_samples])
        config_digest = ckpt.config_digest  # the digest train_row stamped into the sidecar
    report = evaluate(scores, space, name=row.display, dims=row.dims, correction=correction)
    report.config_digest = config_digest
    return report


def stage_eval(cfg: PipelineConfig, rows: list[str] | None = None) -> list[Report]:
    paths = Paths(cfg.out_dir)
    row_ids = check_rows(cfg.ladder if rows is None else rows)
    needed = _row_inputs(paths)
    require(needed + [paths.checkpoints], "eval")
    ladder_rows = [LADDER_BY_ID[r] for r in row_ids]
    data = _load_ladder_data(cfg, ladder_rows, "eval")
    reports: list[Report] = []
    for row in ladder_rows:
        try:
            reports.append(eval_row(cfg, row, data))
        except (SchemaMismatch, IoFailure):
            raise  # a damaged or stale input ends the stage (exit 4 / 3), not one row
        except ProfileBenchError as exc:
            reports.append(failed_report(row.display, row.dims, row.space.tag, f"{type(exc).__name__}: {exc}"))
    paths.results.mkdir(parents=True, exist_ok=True)
    for row_id, report in zip(row_ids, reports):
        emit_report(report, paths.results / row_id)
    write_table(paths.results / "table.md", reports, title="Experiment ladder")
    write_provenance(
        paths,
        "eval",
        needed,
        cfg.master_seed,
        {"rows": row_ids},
        data.digests,
    )
    return reports


def stage_report(cfg: PipelineConfig) -> str:
    """Merge per-row metrics.json files into one table, in ladder order."""
    paths = Paths(cfg.out_dir)
    if not paths.results.exists():
        raise SchemaMismatch(f"report: no results directory at {paths.results}")
    metrics = [paths.results / row.row_id / "metrics.json" for row in LADDER]
    rows = [read_json(m, "metrics", table_row) for m in metrics if m.exists()]
    if not rows:
        raise SchemaMismatch(f"report: no metrics.json files under {paths.results}")
    text = "\n".join(["# Consolidated results", "", *TABLE_HEADER, *rows]) + "\n"
    write_text_atomic(paths.results / "consolidated.md", text, "report")
    return text


def run_ladder(cfg: PipelineConfig, rows: list[str] | None = None) -> list[Report]:
    """Train and evaluate the configured ladder rows; failures are marked
    in the resulting reports, not raised."""
    stage_train(cfg, rows)
    return stage_eval(cfg, rows)


def run_all(cfg: PipelineConfig) -> list[Report]:
    stage_gen(cfg)
    stage_featurize(cfg)
    stage_balance(cfg)
    stage_split(cfg)
    return run_ladder(cfg)
