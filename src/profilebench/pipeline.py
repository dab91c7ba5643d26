"""Pipeline stages: gen, featurize, balance, split, train, eval, report.

Each stage reads the previous stage's files, writes its own declared
format, and records a provenance file holding sha256 digests of its exact
inputs plus the effective seed. No timestamps anywhere: rerunning with
the same config produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from profilebench import __version__
from profilebench.dataset import (
    CorpusIndex,
    GameEntry,
    SplitSpec,
    auto_target,
    balance,
    read_splits,
    split_assignment,
    split_by_game,
    window_starts,
    write_index,
    write_splits,
)
from profilebench.errors import ConfigInvalid, IoFailure, ProfileBenchError, SchemaMismatch
from profilebench.evaluation import (
    ExperimentSpec,
    Report,
    emit_report,
    evaluate,
    evaluate_class_predictions,
    failed_report,
    predict_logits,
    write_table,
)
from profilebench.features import (
    N_LEGACY,
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
    tokenize,
    write_aggregate_csv,
)
from profilebench.hashing import digest_config, mix_seed, sha256_file, stable_json_dumps
from profilebench.models.baseline import BaselineConfig, BaselineModel, train_baseline
from profilebench.models.checkpoint import (
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from profilebench.models.training import TrainConfig, train
from profilebench.simulator import SimConfig, build_dungeon, generate_corpus, load_sessions
from profilebench.taxonomy import LabelSpaceKind, Profile


@dataclass(frozen=True)
class LadderRow:
    row_id: str
    display: str
    model: str
    layout: str
    space_kind: LabelSpaceKind
    subset: str = "all"
    correct_neutral: bool = False

    def spec(self, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            name=self.display,
            model=self.model,
            layout=self.layout,
            space_kind=self.space_kind,
            subset=self.subset,
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
        subset="non_neutral_only",
    ),
    LadderRow(
        "multipool_176_neutral",
        "LSTM Multi-Pooling (neutral 20)",
        "lstm_multipool",
        "176",
        LabelSpaceKind.NEUTRAL_PROFILE20,
        subset="neutral_only",
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


@dataclass
class PipelineConfig:
    master_seed: int = 20260801
    games_per_profile: int = 60
    sim: SimConfig = field(default_factory=SimConfig)
    window_len: int = 8
    stride: int = 4
    balance_target: int | None = None
    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    train: TrainConfig = field(default_factory=TrainConfig)
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    ladder: tuple[str, ...] = tuple(row.row_id for row in LADDER)
    out_dir: str = "out"
    threads: int = 1
    deterministic: bool = False

    def validate(self) -> None:
        if self.games_per_profile < 1:
            raise ConfigInvalid(f"games_per_profile must be >= 1: {self.games_per_profile}")
        if self.window_len < 1 or self.stride < 1:
            raise ConfigInvalid("window_len and stride must be >= 1")
        if self.balance_target is not None and self.balance_target < 1:
            raise ConfigInvalid(f"balance_target must be >= 1: {self.balance_target}")
        if self.threads < 1:
            raise ConfigInvalid(f"threads must be >= 1: {self.threads}")
        self.sim.validate()
        self.train.validate()
        self.baseline.validate()
        self.split_spec().validate()
        unknown = [r for r in self.ladder if r not in LADDER_BY_ID]
        if unknown:
            raise ConfigInvalid(f"unknown ladder rows: {unknown}")

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train=self.train_frac,
            val=self.val_frac,
            test=self.test_frac,
            seed=mix_seed(self.master_seed, "split"),
        )

    def to_dict(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "games_per_profile": self.games_per_profile,
            "sim": self.sim.to_dict(),
            "window_len": self.window_len,
            "stride": self.stride,
            "balance_target": self.balance_target,
            "split": {"train": self.train_frac, "val": self.val_frac, "test": self.test_frac},
            "train": {k: getattr(self.train, k) for k in self.train.__dataclass_fields__},
            "baseline": {k: getattr(self.baseline, k) for k in self.baseline.__dataclass_fields__},
            "ladder": list(self.ladder),
            "out_dir": self.out_dir,
            "threads": self.threads,
            "deterministic": self.deterministic,
        }

    def digest_dict(self) -> dict:
        """Config content that determines outputs; drops execution details
        (output location, thread count) so digests match across reruns."""
        doc = self.to_dict()
        for key in ("out_dir", "threads", "deterministic"):
            doc.pop(key)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        known = {
            "master_seed", "games_per_profile", "sim", "window_len", "stride",
            "balance_target", "split", "train", "baseline", "ladder", "out_dir",
            "threads", "deterministic",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        simple = {
            k: doc[k]
            for k in (
                "master_seed", "games_per_profile", "window_len", "stride",
                "balance_target", "out_dir", "threads", "deterministic",
            )
            if k in doc
        }
        cfg = replace(cfg, **simple)
        if "ladder" in doc:
            cfg = replace(cfg, ladder=tuple(doc["ladder"]))
        if "sim" in doc:
            cfg = replace(cfg, sim=SimConfig.from_dict(doc["sim"]))
        if "split" in doc:
            split = doc["split"]
            bad = set(split) - {"train", "val", "test"}
            if bad:
                raise ConfigInvalid(f"unknown split keys: {sorted(bad)}")
            cfg = replace(
                cfg,
                train_frac=split.get("train", cfg.train_frac),
                val_frac=split.get("val", cfg.val_frac),
                test_frac=split.get("test", cfg.test_frac),
            )
        for key, klass, attr in (("train", TrainConfig, "train"), ("baseline", BaselineConfig, "baseline")):
            if key in doc:
                fields = klass.__dataclass_fields__
                bad = set(doc[key]) - set(fields)
                if bad:
                    raise ConfigInvalid(f"unknown {key} config keys: {sorted(bad)}")
                cfg = replace(cfg, **{attr: klass(**doc[key])})
        return cfg

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
    paths: Paths, stage: str, inputs: list[Path], seed: int, params: dict
) -> None:
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
        "inputs": {p.name: sha256_file(p) for p in inputs},
        "params_digest": digest_config(params),
        # float bits (e.g. GEMM rounding on short windows) depend on these
        "libraries": {"python": platform.python_version(), "numpy": np.__version__, "blas": blas},
    }
    out = paths.provenance / f"{stage}.json"
    out.write_text(stable_json_dumps(doc) + "\n", encoding="utf-8")


# --- stages ----------------------------------------------------------------


def stage_gen(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    paths.ensure_root()
    manifest = generate_corpus(
        cfg.master_seed,
        cfg.games_per_profile,
        cfg.sim,
        paths.sessions,
        paths.manifest,
        threads=1 if cfg.deterministic else cfg.threads,
    )
    write_provenance(paths, "gen", [], cfg.master_seed, cfg.digest_dict())
    return manifest


def _read_manifest(paths: Paths) -> dict:
    try:
        with open(paths.manifest, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoFailure(f"manifest read failed: {exc}") from exc


def stage_featurize(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    require([paths.sessions, paths.manifest], "featurize")
    manifest = _read_manifest(paths)
    sim_cfg = SimConfig.from_dict(manifest["sim_config"])
    agg_rows = []
    n_games = 0
    with FeatureFileWriter(paths.features176, N_TOTAL) as w176, FeatureFileWriter(
        paths.features530, N_LEGACY
    ) as w530:
        for session in load_sessions(paths.sessions):
            dungeon = build_dungeon(session.seed, sim_cfg)
            behavioral = behavioral_matrix(session, dungeon)
            t_steps = session.length
            text128 = np.empty((t_steps, 128))
            text512 = np.empty((t_steps, 512))
            for t, decision in enumerate(session.decisions):
                tokens = tokenize(decision.room_text + " " + decision.action_text)
                text128[t] = embed_tokens(tokens, 128)
                text512[t] = embed_tokens(tokens, 512)
            full176 = np.hstack([behavioral, text128])
            legacy530 = np.hstack([text512, behavioral[:, :18]])
            for start, length in window_starts(t_steps, cfg.window_len, cfg.stride):
                sl = slice(start, start + length)
                w176.add(
                    SequenceSample(session.game_id, session.profile, (start, length), full176[sl])
                )
                w530.add(
                    SequenceSample(session.game_id, session.profile, (start, length), legacy530[sl])
                )
            agg_rows.append(
                (
                    session.game_id,
                    session.profile,
                    aggregate_features(session, dungeon, sim_cfg.max_steps),
                )
            )
            n_games += 1
    write_aggregate_csv(paths.aggregates, agg_rows)
    write_provenance(
        paths,
        "featurize",
        [paths.sessions, paths.manifest],
        cfg.master_seed,
        {"window_len": cfg.window_len, "stride": cfg.stride, "schema_version": SCHEMA_VERSION},
    )
    return {"games": n_games, "windows": w176.n, "schema_version": SCHEMA_VERSION}


def _index_from_scan(records: list[tuple[int, int, int]]) -> CorpusIndex:
    """Corpus index from PBF scan records: one entry per game, counting windows."""
    per_game: dict[int, tuple[Profile, int]] = {}
    for game_id, profile_idx, _ in records:
        profile, count = per_game.get(game_id, (Profile.from_index(profile_idx), 0))
        per_game[game_id] = (profile, count + 1)
    index = CorpusIndex(profiles={p.code: [] for p in (Profile.from_index(i) for i in range(36))})
    for game_id in sorted(per_game):
        profile, count = per_game[game_id]
        index.profiles[profile.code].append(GameEntry(game_id, count))
    return index


def stage_balance(cfg: PipelineConfig) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    require([paths.features176], "balance")
    index = _index_from_scan(scan_feature_file(paths.features176))
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
    try:
        with open(paths.balanced_index, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"balanced index read failed: {exc}") from exc
    index = CorpusIndex(
        profiles={
            code: [GameEntry(gid, 0) for gid in entry["games"]]
            for code, entry in doc["profiles"].items()
        }
    )
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


def _load_ladder_data(cfg: PipelineConfig, layouts: set[str]) -> _LadderData:
    paths = Paths(cfg.out_dir)
    assignment = read_splits(paths.splits)
    samples: dict[str, dict[str, list[SequenceSample]]] = {}
    for layout, path in (("176", paths.features176), ("530", paths.features530)):
        if layout not in layouts:
            continue
        loaded, _ = read_feature_file(path)
        by_split: dict[str, list[SequenceSample]] = {"train": [], "val": [], "test": []}
        for s in loaded:
            split = assignment.get(s.game_id)
            if split is not None:
                by_split[split].append(s)
        samples[layout] = by_split
    aggregates: dict[str, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    if "agg" in layouts:
        X, y, ids = read_aggregate_csv(paths.aggregates)
        for split in ("train", "val", "test"):
            keep = [i for i, gid in enumerate(ids) if assignment.get(gid) == split]
            aggregates[split] = (X[keep], y[keep], [ids[i] for i in keep])
    return _LadderData(samples=samples, aggregates=aggregates)


def _admissible(samples: list[SequenceSample], spec: ExperimentSpec) -> list[SequenceSample]:
    space = spec.space
    return [s for s in samples if space.admits(s.profile)]


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
    doc = json.loads(path.read_text(encoding="utf-8"))
    return BaselineModel(
        W=np.asarray(doc["W"], dtype=float),
        b=np.asarray(doc["b"], dtype=float),
        mean=np.asarray(doc["mean"], dtype=float),
        std=np.asarray(doc["std"], dtype=float),
        n_classes=int(doc["n_classes"]),
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


def stage_train(cfg: PipelineConfig, rows: list[str] | None = None) -> dict:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    row_ids = list(rows) if rows is not None else list(cfg.ladder)
    unknown = [r for r in row_ids if r not in LADDER_BY_ID]
    if unknown:
        raise ConfigInvalid(f"unknown ladder rows: {unknown}")
    needed = [paths.features176, paths.splits, paths.balanced_index]
    if any(LADDER_BY_ID[r].layout == "530" for r in row_ids):
        needed.append(paths.features530)
    if any(LADDER_BY_ID[r].layout == "agg" for r in row_ids):
        needed.append(paths.aggregates)
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
        [p for p in needed if p.exists()],
        cfg.master_seed,
        {"rows": row_ids, "train": cfg.digest_dict()["train"]},
    )
    return status


def _alignment_prior_freqs(samples: list[SequenceSample]) -> np.ndarray:
    counts = np.zeros(9)
    for s in samples:
        counts[s.profile.alignment.rank] += 1
    return (counts + 0.5) / (counts.sum() + 4.5)


def _calibrate_correction(ckpt, val_samples: list[SequenceSample]) -> dict:
    """Pick eta on validation: smallest frequency gap without losing accuracy."""
    logits = predict_logits(ckpt, val_samples)["profile"]
    y = np.array([s.profile.alignment.rank for s in val_samples])
    pred_counts = np.bincount(logits.argmax(axis=1), minlength=9).astype(float)
    predicted = (pred_counts + 0.5) / (pred_counts.sum() + 4.5)
    prior = _alignment_prior_freqs(val_samples)
    base_acc = float((logits.argmax(axis=1) == y).mean())
    base_gap = float(np.abs(predicted - prior).sum())
    best = {"eta": 1.0, "gap": base_gap, "acc": base_acc}
    chosen = None
    for eta in ETA_GRID:
        adjusted = logits - eta * np.log(predicted / prior)
        pred = adjusted.argmax(axis=1)
        acc = float((pred == y).mean())
        freq = (np.bincount(pred, minlength=9) + 0.5) / (len(pred) + 4.5)
        gap = float(np.abs(freq - prior).sum())
        if acc >= base_acc - 0.01 and (chosen is None or gap < chosen["gap"]):
            chosen = {"eta": eta, "gap": gap, "acc": acc}
    if chosen is None:
        chosen = best
    return {
        "eta": chosen["eta"],
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
        preds = model.predict(X)
        profiles = [Profile.from_index(int(v)) for v in y]
        return evaluate_class_predictions(
            profiles, preds, spec, n_games=len(set(ids)), name=row.display, dims="52 (agg)"
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
    return evaluate(ckpt, test_samples, spec, correction=correction, name=row.display, dims=row.layout)


def stage_eval(cfg: PipelineConfig, rows: list[str] | None = None) -> list[Report]:
    cfg.validate()
    paths = Paths(cfg.out_dir)
    row_ids = list(rows) if rows is not None else list(cfg.ladder)
    unknown = [r for r in row_ids if r not in LADDER_BY_ID]
    if unknown:
        raise ConfigInvalid(f"unknown ladder rows: {unknown}")
    needed = [paths.features176, paths.splits, paths.balanced_index, paths.checkpoints]
    require(needed, "eval")
    data = _load_ladder_data(cfg, {LADDER_BY_ID[r].layout for r in row_ids})
    reports: list[Report] = []
    for row_id in row_ids:
        row = LADDER_BY_ID[row_id]
        try:
            reports.append(eval_row(cfg, row, data))
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
        [p for p in (paths.features176, paths.features530, paths.splits) if p.exists()],
        cfg.master_seed,
        {"rows": row_ids},
    )
    return reports


def stage_report(cfg: PipelineConfig) -> str:
    """Merge per-row metrics.json files into one table, in ladder order."""
    paths = Paths(cfg.out_dir)
    if not paths.results.exists():
        raise SchemaMismatch(f"report: no results directory at {paths.results}")
    reports = []
    for row in LADDER:
        metrics = paths.results / row.row_id / "metrics.json"
        if metrics.exists():
            reports.append(json.loads(metrics.read_text(encoding="utf-8")))
    if not reports:
        raise SchemaMismatch(f"report: no metrics.json files under {paths.results}")
    lines = [
        "# Consolidated results",
        "",
        "| Config | Dims | Alignment | Motivation | Profile | Lift (space) | Lift (36) |",
        "|---|---|---|---|---|---|---|",
    ]
    for doc in reports:
        if doc.get("failed"):
            lines.append(
                f"| {doc['name']} | {doc['dims']} | FAILED | FAILED | FAILED | - | {doc.get('error', '')} |"
            )
            continue
        acc = doc["accuracies"]

        def pct(key_head, key_marginal):
            v = acc.get(key_head, acc.get(key_marginal))
            return f"{100 * v:.1f}%" if v is not None else "-"

        lines.append(
            "| {} | {} | {} | {} | {} | {:.1f}x | {:.1f}x |".format(
                doc["name"],
                doc["dims"],
                pct("alignment_head", "alignment_marginal"),
                pct("motivation_head", "motivation_marginal"),
                f"{100 * acc['main']:.1f}%",
                doc["lift"]["vs_subset_baseline"],
                doc["lift"]["vs_full36_baseline"],
            )
        )
    text = "\n".join(lines) + "\n"
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
