"""Pipeline stages: gen, featurize, balance, split, train, eval, report.

Each stage reads the previous stage's files, writes its own declared
format, and records a provenance file holding sha256 digests of its exact
inputs plus the effective seed. No timestamps anywhere: rerunning with
the same config produces byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from dataclasses import dataclass, field, replace
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
    split_assignment,
    split_by_game,
    window_starts,
    write_index,
    write_splits,
)
from profilebench.errors import ConfigInvalid, IoFailure, ProfileBenchError, SchemaMismatch
from profilebench.evaluation import (
    ALIGN_SPACE,
    TABLE_HEADER,
    ExperimentSpec,
    Report,
    emit_report,
    evaluate,
    evaluate_class_predictions,
    failed_report,
    predict_logits,
    table_row,
    write_table,
)
from profilebench.features import (
    N_BEHAVIORAL,
    N_BEHAVIORAL_LEGACY,
    N_LEGACY,
    N_TEXT,
    N_TEXT_LEGACY,
    N_TOTAL,
    SCHEMA_VERSION,
    FeatureFileWriter,
    SequenceSample,
    aggregate_features,
    behavioral_matrix,
    embed_tokens,
    read_aggregate_csv,
    read_feature_file,
    scan_feature_file,
    write_aggregate_csv,
)
from profilebench.hashing import digest_config, mix_seed, read_json, sha256_file, stable_json_dumps
from profilebench.models.baseline import BaselineConfig, BaselineModel, train_baseline
from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from profilebench.models.training import TrainConfig, neutral_correction, space_labels, train
# build_dungeon is unused here, but perfbench/tracing.py patches pipeline.build_dungeon by name
from profilebench.simulator import SESSIONS_FORMAT, SimConfig, build_dungeon, generate_corpus, load_sessions  # noqa: F401
from profilebench.taxonomy import LabelSpaceKind


@dataclass(frozen=True)
class LadderRow:
    row_id: str
    display: str
    model: str
    layout: str
    space_kind: LabelSpaceKind
    correct_neutral: bool = False

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            name=self.display,
            model=self.model,
            layout=self.layout,
            space_kind=self.space_kind,
            correct_neutral=self.correct_neutral,
            seed=seed,
        )

    @property
    def pooling(self) -> str:
        return {
            "lstm_base": POOL_LAST,
            "lstm_multipool": POOL_MULTI,
            "lstm_attention": POOL_ATTENTION,
        }[self.model]


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
ETA_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def check_rows(row_ids: Iterable[str]) -> list[str]:
    """`row_ids` as a list; an empty list, or a name outside the ladder,
    raises ConfigInvalid."""
    row_ids = list(row_ids)
    if not row_ids:  # a stage on no rows would only overwrite its outputs
        raise ConfigInvalid("no ladder rows given; name at least one of: " + ", ".join(LADDER_BY_ID))
    unknown = [r for r in row_ids if r not in LADDER_BY_ID]
    if unknown:
        raise ConfigInvalid(f"unknown ladder rows {unknown}; known rows: {', '.join(LADDER_BY_ID)}")
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
class SplitFractions:
    train: float = 0.7
    val: float = 0.15
    test: float = 0.15


@dataclass
class PipelineConfig:
    master_seed: int = 20260801
    games_per_profile: int = 60
    sim: SimConfig = field(default_factory=SimConfig)
    window_len: int = 8
    stride: int = 4
    balance_target: int | None = None
    split: SplitFractions = field(default_factory=SplitFractions)
    train: TrainConfig = field(default_factory=TrainConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    ladder: tuple[str, ...] = tuple(row.row_id for row in LADDER)
    out_dir: str = "out"

    def validate(self) -> None:
        if self.games_per_profile < 1:
            raise ConfigInvalid(f"games_per_profile must be >= 1: {self.games_per_profile}")
        if self.window_len < 1 or self.stride < 1:
            raise ConfigInvalid("window_len and stride must be >= 1")
        if self.balance_target is not None and self.balance_target < 1:
            raise ConfigInvalid(f"balance_target must be >= 1: {self.balance_target}")
        self.sim.validate()
        self.train.validate()
        self.baseline.validate()
        self.split_spec().validate()
        check_rows(self.ladder)

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train=self.split.train,
            val=self.split.val,
            test=self.split.test,
            seed=mix_seed(self.master_seed, "split"),
        )

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
        self.features176 = self.root / "features176.pbf"
        self.features530 = self.root / "features530.pbf"
        self.aggregates = self.root / "aggregates.csv"
        self.balanced_index = self.root / "balanced_index.json"
        self.splits = self.root / "splits.json"
        self.checkpoints = self.root / "checkpoints"
        self.results = self.root / "results"
        self.provenance = self.root / "provenance"

    def checkpoint(self, row_id: str) -> Path:
        suffix = ".json" if row_id == "baseline_agg" else ".pbck"
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
    out = paths.provenance / f"{stage}.json"
    out.write_text(stable_json_dumps(doc) + "\n", encoding="utf-8")


def _read_manifest(path: Path) -> tuple[SimConfig, int]:
    """The corpus's simulator config and game count; another format, or a
    simulator config that does not validate, raises SchemaMismatch."""
    try:
        fmt, sim_cfg, n_games = read_json(
            path,
            "manifest",
            lambda d: (d["format"], read_config(SimConfig, d["sim_config"], "sim_config"), sum(d["counts"].values())),
        )
        sim_cfg.validate()
    except ConfigInvalid as exc:  # the manifest is at fault, not the user's config
        raise SchemaMismatch(f"{path}: invalid sim_config: {exc}; rerun gen") from exc
    if fmt != SESSIONS_FORMAT:
        raise SchemaMismatch(f"{path}: format {fmt!r}, expected {SESSIONS_FORMAT!r}; rerun gen")
    return sim_cfg, n_games


# --- stages ----------------------------------------------------------------


def stage_gen(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    paths.ensure_root()
    manifest = generate_corpus(cfg.master_seed, cfg.games_per_profile, cfg.sim, paths.sessions, paths.manifest)
    write_provenance(paths, "gen", [], cfg.master_seed, cfg.digest_dict())
    return manifest


def stage_featurize(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    require([paths.sessions, paths.manifest], "featurize")
    sim_cfg, expected = _read_manifest(paths.manifest)
    agg_rows = []
    n_windows = 0
    windows = (cfg.window_len, cfg.stride)
    # each game's rows carry its text as signed counts, which the files store as int8
    with FeatureFileWriter(
        paths.features176, N_TOTAL, *windows, text_start=N_BEHAVIORAL, text_width=N_TEXT
    ) as w176, FeatureFileWriter(
        paths.features530, N_LEGACY, *windows, text_start=0, text_width=N_TEXT_LEGACY
    ) as w530:
        for session in load_sessions(paths.sessions):
            behavioral = behavioral_matrix(session, sim_cfg.width, sim_cfg.height)
            t_steps = session.length
            counts128, counts512 = embed_tokens([d.room_text + " " + d.action_text for d in session.decisions])
            full176 = np.hstack([behavioral, counts128])
            legacy530 = np.hstack([counts512, behavioral[:, :N_BEHAVIORAL_LEGACY]])
            whole = (0, t_steps)
            w176.add(SequenceSample(session.game_id, session.profile, whole, full176))
            w530.add(SequenceSample(session.game_id, session.profile, whole, legacy530))
            n_windows += len(window_starts(t_steps, *windows))
            agg = aggregate_features(session, behavioral, sim_cfg.max_steps)
            agg_rows.append((session.game_id, session.profile, agg))
        if w176.n != expected:
            raise SchemaMismatch(
                f"featurize: {paths.sessions} holds {w176.n} sessions, its manifest {expected}"
            )
    write_aggregate_csv(paths.aggregates, agg_rows)
    write_provenance(
        paths,
        "featurize",
        [paths.sessions, paths.manifest],
        cfg.master_seed,
        {"window_len": cfg.window_len, "stride": cfg.stride, "schema_version": SCHEMA_VERSION},
    )
    return {"games": w176.n, "windows": n_windows, "schema_version": SCHEMA_VERSION}


def stage_balance(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    require([paths.features176], "balance")
    index = build_index(scan_feature_file(paths.features176))
    target = cfg.balance_target if cfg.balance_target is not None else auto_target(index)
    seed = mix_seed(cfg.master_seed, "balance")
    balanced = balance(index, target, seed)
    write_index(paths.balanced_index, balanced, seed, target)
    write_provenance(
        paths, "balance", [paths.features176], seed, {"target": target}
    )
    return {
        "target": target,
        "totals": balanced.totals(),
        "imbalance_ratio": balanced.imbalance_ratio(),
    }


def stage_split(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    require([paths.balanced_index], "split")
    index = read_index(paths.balanced_index)
    spec = cfg.split_spec()
    train_idx, val_idx, test_idx = split_by_game(index, spec)
    assignment = split_assignment(train_idx, val_idx, test_idx)
    write_splits(paths.splits, assignment)
    write_provenance(
        paths,
        "split",
        [paths.balanced_index],
        spec.seed,
        {"train": spec.train, "val": spec.val, "test": spec.test},
    )
    counts = {name: sum(1 for v in assignment.values() if v == name) for name in ("train", "val", "test")}
    return {"games": counts}


@dataclass
class _LadderData:
    """Feature samples filtered to the balanced corpus, keyed by split."""

    samples: dict[str, dict[str, list[SequenceSample]]]  # layout -> split -> samples
    aggregates: dict[str, tuple[np.ndarray, np.ndarray, list[int]]]  # split -> (X, y, ids)
    digests: dict[Path, str]  # sha256 of each feature file read


def _load_ladder_data(cfg: PipelineConfig, layouts: set[str]) -> _LadderData:
    paths = Paths(cfg.out_dir)
    assignment = read_splits(paths.splits)
    samples: dict[str, dict[str, list[SequenceSample]]] = {}
    digests: dict[Path, str] = {}
    for layout, path in (("176", paths.features176), ("530", paths.features530)):
        if layout not in layouts:
            continue
        loaded, header = read_feature_file(path)
        windows = (header["window_len"], header["stride"])
        if windows != (cfg.window_len, cfg.stride):
            raise SchemaMismatch(
                f"{path}: featurized with window_len, stride {windows}, "
                f"config has {(cfg.window_len, cfg.stride)}; rerun featurize"
            )
        digests[path] = header["sha256"]
        by_split: dict[str, list[SequenceSample]] = {"train": [], "val": [], "test": []}
        for s in loaded:
            split = assignment.get(s.game_id)
            if split is not None:
                by_split[split].append(s)
        samples[layout] = by_split
    aggregates: dict[str, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    if "agg" in layouts:
        X, y, ids = read_aggregate_csv(paths.aggregates)
        _, n_games = _read_manifest(paths.manifest)
        if len(ids) != n_games:
            raise SchemaMismatch(
                f"{paths.aggregates} holds {len(ids)} games, its manifest {n_games}; rerun featurize"
            )
        for split in ("train", "val", "test"):
            keep = [i for i, gid in enumerate(ids) if assignment.get(gid) == split]
            aggregates[split] = (X[keep], y[keep], [ids[i] for i in keep])
    return _LadderData(samples=samples, aggregates=aggregates, digests=digests)


def _admissible(samples: list[SequenceSample], spec: ExperimentSpec) -> list[SequenceSample]:
    admits = spec.space.labels >= 0
    return [s for s in samples if admits[s.profile.index]]


def _save_baseline(path: Path, model: BaselineModel) -> None:
    doc = {
        "n_classes": model.n_classes,
        "mean": [float(v) for v in model.mean],
        "std": [float(v) for v in model.std],
        "W": [[float(v) for v in row] for row in model.W],
        "b": [float(v) for v in model.b],
    }
    path.write_text(stable_json_dumps(doc) + "\n", encoding="utf-8")


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
    spec = row.spec(row_seed)
    spec.validate()
    if row.model == "baseline":
        X, y, _ = data.aggregates["train"]
        model = train_baseline(
            X, y, n_classes=36, config=replace(cfg.baseline, seed=row_seed)
        )
        _save_baseline(paths.checkpoint(row.row_id), model)
        return
    train_samples = _admissible(data.samples[row.layout]["train"], spec)
    val_samples = _admissible(data.samples[row.layout]["val"], spec)
    dim = N_TOTAL if row.layout == "176" else N_LEGACY
    ckpt = init_checkpoint(
        input_dim=dim,
        hidden=cfg.train.hidden,
        n_classes=spec.space.cardinality,
        pooling=row.pooling,
        seed=row_seed,
        label_space_tag=spec.space.tag,
        schema_version=SCHEMA_VERSION,
        attention_size=cfg.train.attention_size,
    )
    row_cfg = replace(cfg.train, seed=row_seed)
    best, _ = train(train_samples, val_samples, spec.space, ckpt, row_cfg)
    best.config_digest = digest_config(cfg.digest_dict())
    save_checkpoint(paths.checkpoint(row.row_id), best)


def _row_inputs(paths: Paths, row_ids: list[str]) -> list[Path]:
    """The upstream files that training or evaluating `row_ids` reads."""
    needed = [paths.features176, paths.splits, paths.balanced_index]
    layouts = {LADDER_BY_ID[r].layout for r in row_ids}
    if "530" in layouts:
        needed.append(paths.features530)
    if "agg" in layouts:
        needed += [paths.aggregates, paths.manifest]
    return needed


def stage_train(cfg: PipelineConfig, rows: list[str] | None = None) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    row_ids = check_rows(cfg.ladder if rows is None else rows)
    needed = _row_inputs(paths, row_ids)
    require(needed, "train")
    data = _load_ladder_data(cfg, {LADDER_BY_ID[r].layout for r in row_ids})
    status: dict[str, str] = {}
    for row_id in row_ids:
        try:
            train_row(cfg, LADDER_BY_ID[row_id], data)
            status[row_id] = "trained"
        except ProfileBenchError as exc:
            status[row_id] = f"failed: {type(exc).__name__}: {exc}"
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    (paths.checkpoints / "train_status.json").write_text(
        stable_json_dumps(status) + "\n", encoding="utf-8"
    )
    write_provenance(
        paths,
        "train",
        needed,
        cfg.master_seed,
        {"rows": row_ids, "train": cfg.digest_dict()["train"]},
        data.digests,
    )
    return status


def _smoothed_freqs(alignments: np.ndarray) -> np.ndarray:
    """Frequencies of the 9 alignments, add-half smoothed so none is zero."""
    return (np.bincount(alignments, minlength=9) + 0.5) / (len(alignments) + 4.5)


def _calibrate_correction(ckpt, val_samples: list[SequenceSample]) -> dict:
    """Pick eta on validation: smallest frequency gap without losing accuracy."""
    logits = predict_logits(ckpt, val_samples)["profile"]
    _, y, _ = space_labels([s.profile.index for s in val_samples], ALIGN_SPACE)
    predicted = _smoothed_freqs(logits.argmax(axis=1))
    prior = _smoothed_freqs(y)
    base_acc = float((logits.argmax(axis=1) == y).mean())
    eta, eta_gap = 1.0, None
    for candidate in ETA_GRID:
        pred = neutral_correction(logits, predicted, prior, candidate).argmax(axis=1)
        acc = float((pred == y).mean())
        gap = float(np.abs(_smoothed_freqs(pred) - prior).sum())
        if acc >= base_acc - 0.01 and (eta_gap is None or gap < eta_gap):
            eta, eta_gap = candidate, gap
    return {
        "eta": eta,
        "predicted": predicted,
        "prior": prior,
        "uncorrected_accuracy": base_acc,
    }


def eval_row(cfg: PipelineConfig, row: LadderRow, data: _LadderData) -> Report:
    paths = Paths(cfg.out_dir)
    row_seed = mix_seed(cfg.master_seed, "train", row.row_id)
    spec = row.spec(row_seed)
    spec.validate()
    ckpt_path = paths.checkpoint(row.row_id)
    if not ckpt_path.exists():
        return failed_report(row.display, row.layout, spec.space.tag, "checkpoint missing")
    if row.model == "baseline":
        X, y, ids = data.aggregates["test"]
        model = _load_baseline(ckpt_path)
        return evaluate_class_predictions(
            y, model.predict(X), spec, n_games=len(set(ids)), name=row.display, dims="52 (agg)"
        )
    ckpt = load_checkpoint(ckpt_path)
    if ckpt.schema_version != SCHEMA_VERSION:
        raise SchemaMismatch(
            f"checkpoint schema {ckpt.schema_version} != featurizer {SCHEMA_VERSION}"
        )
    test_samples = _admissible(data.samples[row.layout]["test"], spec)
    correction = None
    if row.correct_neutral:
        val_samples = _admissible(data.samples[row.layout]["val"], spec)
        correction = _calibrate_correction(ckpt, val_samples)
    report = evaluate(ckpt, test_samples, spec, correction=correction, name=row.display, dims=row.layout)
    report.config_digest = ckpt.config_digest  # the digest train_row stamped into the sidecar
    return report


def stage_eval(cfg: PipelineConfig, rows: list[str] | None = None) -> list[Report]:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    row_ids = check_rows(cfg.ladder if rows is None else rows)
    needed = _row_inputs(paths, row_ids)
    require(needed + [paths.checkpoints], "eval")
    data = _load_ladder_data(cfg, {LADDER_BY_ID[r].layout for r in row_ids})
    reports: list[Report] = []
    for row_id in row_ids:
        row = LADDER_BY_ID[row_id]
        try:
            reports.append(eval_row(cfg, row, data))
        except (SchemaMismatch, IoFailure):
            raise  # a damaged or stale input ends the stage (exit 4 / 3), not one row
        except ProfileBenchError as exc:
            reports.append(
                failed_report(
                    row.display, row.layout, row.space_kind.value, f"{type(exc).__name__}: {exc}"
                )
            )
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
    (paths.results / "consolidated.md").write_text(text, encoding="utf-8")
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
