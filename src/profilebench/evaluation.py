"""Evaluation: the scoring record, accuracies, confusion matrices, lifts,
the neutral correction, and report files.

Every ladder row hands `evaluate`, the one builder of a `Report`, one
`Scores` record: each head's logits per scored unit (a window, or a game
for the aggregate baseline) with the unit's true profile index and game
id, plus the row's `LabelSpace`, name and dims. Predictions are argmaxes,
ties going to the lowest class index, so every reported number is
bit-reproducible. A Report stores only what it is built from (counts,
accuracies, confusions, correction); its random baselines, lifts and
neutral masses are derived. Every report carries two lifts, each the main
accuracy divided by a random baseline: its label space's own
("vs_subset_baseline") and the full 36-class one, labeled, because the two
denominators answer different questions when the space admits only some
profiles.

The neutral correction lives here whole: `calibrate_correction` picks its
eta from validation logits, and `evaluate` applies it, as a transform of
an alignment9 record's logits, exactly when it is given one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from profilebench.errors import ConfigInvalid, EmptyTestSet, IoFailure, SpaceMismatch, ZeroFrequency
from profilebench.features import SequenceSample
from profilebench.hashing import stable_json_dumps
from profilebench.models.checkpoint import Checkpoint
from profilebench.models.lstm import bilstm_recur, project
from profilebench.models.training import (
    SCORE_BATCH_SIZE, WindowBatcher, pool_and_heads, space_labels,
)
from profilebench.taxonomy import PROFILES, LabelSpace, LabelSpaceKind, is_neutral_profile

METRICS_VERSION = 1

FULL_SPACE = LabelSpace(LabelSpaceKind.PROFILE36)
ALIGN_SPACE = LabelSpace(LabelSpaceKind.ALIGNMENT9)
MOTIV_SPACE = LabelSpace(LabelSpaceKind.MOTIVATION4)

# alignment ranks with either axis at Neutral; the columns the bias metric watches
NEUTRAL_ALIGNMENT_RANKS = tuple(
    sorted({p.alignment.rank for p in PROFILES if is_neutral_profile(p)})
)


def random_baseline(space: LabelSpace) -> float:
    return 1.0 / space.cardinality


@dataclass
class ConfusionMatrix:
    labels: list[str]
    counts: np.ndarray  # (K, K) int64, rows = true

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray, labels: list[str]) -> "ConfusionMatrix":
        k = len(labels)
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        return cls(labels=labels, counts=counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts)) / self.total if self.total else 0.0

    def per_class(self) -> list[dict]:
        out = []
        col = self.counts.sum(axis=0)
        row = self.counts.sum(axis=1)
        diag = np.diag(self.counts)
        for i, label in enumerate(self.labels):
            out.append(
                {
                    "label": label,
                    "support": int(row[i]),
                    "precision": float(diag[i] / col[i]) if col[i] else 0.0,
                    "recall": float(diag[i] / row[i]) if row[i] else 0.0,
                }
            )
        return out

    def column_mass(self, columns: Sequence[int]) -> float:
        return float(self.counts[:, list(columns)].sum()) / self.total if self.total else 0.0

    def row_mass(self, rows: Sequence[int]) -> float:
        return float(self.counts[list(rows), :].sum()) / self.total if self.total else 0.0


@dataclass(frozen=True)
class Scores:
    """One row's scored units, in one order: each head's logits, and each
    unit's true profile index and game id. Sequence models have "profile",
    "align" and "motiv" heads, the aggregate baseline "profile" only."""

    logits: dict[str, np.ndarray]  # head -> (N, K)
    profile_idx: Sequence[int]
    game_ids: Sequence[int]
    unit: str  # "window" or "game"


@dataclass
class Report:
    name: str
    dims: str
    space_tag: str
    n_samples: int
    n_games: int
    accuracies: dict[str, float]
    confusion_main: ConfusionMatrix
    confusion_align: ConfusionMatrix | None = None
    confusion_motiv: ConfusionMatrix | None = None
    config_digest: str = ""
    correction: dict | None = None
    failed: bool = False
    error: str = ""

    @property
    def random_baseline_subset(self) -> float:
        # the main confusion's labels are the classes of the main space
        return 0.0 if self.failed else 1.0 / len(self.confusion_main.labels)

    @property
    def random_baseline_full(self) -> float:
        return 0.0 if self.failed else random_baseline(FULL_SPACE)

    @property
    def lift_subset(self) -> float:
        return self._lift(self.random_baseline_subset)

    @property
    def lift_full(self) -> float:
        return self._lift(self.random_baseline_full)

    def _lift(self, baseline: float) -> float:
        return self.confusion_main.accuracy / baseline if baseline else 0.0

    @property
    def neutral_column_mass(self) -> float | None:
        """Share of alignment predictions with a Neutral axis."""
        align = self.confusion_align
        return None if align is None else align.column_mass(NEUTRAL_ALIGNMENT_RANKS)

    @property
    def neutral_prior(self) -> float | None:
        """Share of true alignments with a Neutral axis."""
        align = self.confusion_align
        return None if align is None else align.row_mass(NEUTRAL_ALIGNMENT_RANKS)

    def to_dict(self) -> dict:
        def cm(c: ConfusionMatrix | None):
            if c is None:
                return None
            return {"labels": c.labels, "counts": c.counts.tolist(), "per_class": c.per_class()}

        return {
            "metrics_version": METRICS_VERSION,
            "name": self.name,
            "dims": self.dims,
            "label_space": self.space_tag,
            "n_samples": self.n_samples,
            "n_games": self.n_games,
            "accuracies": self.accuracies,
            "random_baseline": {
                "subset_space": self.random_baseline_subset,
                "full_space": self.random_baseline_full,
            },
            "lift": {"vs_subset_baseline": self.lift_subset, "vs_full36_baseline": self.lift_full},
            "neutral_column_mass": self.neutral_column_mass,
            "neutral_prior": self.neutral_prior,
            "confusion": {
                "main": cm(self.confusion_main),
                "alignment": cm(self.confusion_align),
                "motivation": cm(self.confusion_motiv),
            },
            "correction": self.correction,
            "config_digest": self.config_digest,
            "failed": self.failed,
            "error": self.error,
        }


def failed_report(name: str, dims: str, space_tag: str, error: str) -> Report:
    empty = ConfusionMatrix(labels=[], counts=np.zeros((0, 0), dtype=np.int64))
    return Report(name, dims, space_tag, 0, 0, {}, empty, failed=True, error=error)


def predict_logits(ckpt: Checkpoint, samples: Sequence[SequenceSample]) -> dict[str, np.ndarray]:
    """Per-head logits for every sample, in input order.

    The batcher's stacked game rows are projected once per direction, one
    (N_rows, D) @ (D, 4H) GEMM each: the projection is linear and per row,
    and overlapping windows share rows. Each unshuffled batch then runs the
    recurrence, which reads each step's pre-activations straight from those
    projected rows, then pooling and heads; the logit rows are put back into
    input order at the end.
    """
    p = ckpt.params
    windows = WindowBatcher(samples, p["fwd_W"].dtype)
    pre = (project(windows.rows, p["fwd_W"]), project(windows.rows, p["bwd_W"]))
    del windows.rows  # batches read only the pre-activations
    recur = (p["fwd_R"], p["fwd_b"]), (p["bwd_R"], p["bwd_b"])
    batches = windows.batches(SCORE_BATCH_SIZE)
    parts: dict[str, list[np.ndarray]] = {"profile": [], "align": [], "motiv": []}
    for idx in batches:
        states, _ = bilstm_recur(pre, windows.take(idx), *recur, cache=False)
        logits, _, _ = pool_and_heads(states, ckpt, cache=False)
        for head, out in parts.items():
            out.append(logits[head])
    inverse = np.argsort(np.concatenate(batches))
    return {head: np.concatenate(out)[inverse] for head, out in parts.items()}


def score_windows(ckpt: Checkpoint, samples: Sequence[SequenceSample], space: LabelSpace) -> Scores:
    """The Scores of `ckpt` on each window of `samples`, in one
    `predict_logits` call."""
    if not samples:
        raise EmptyTestSet("no windows to score")
    if ckpt.label_space_tag != space.tag:
        raise SpaceMismatch(
            f"checkpoint space {ckpt.label_space_tag!r} != experiment space {space.tag!r}"
        )
    logits = predict_logits(ckpt, samples)
    return Scores(logits, [s.profile.index for s in samples], [s.game_id for s in samples], "window")


def _marginal_predictions(main_pred: np.ndarray, space: LabelSpace) -> tuple[np.ndarray, np.ndarray]:
    """Alignment/motivation implied by the main head's profile prediction."""
    profile_idx = np.flatnonzero(space.labels >= 0)[main_pred]
    return space_labels(profile_idx, space)[1:]


def evaluate(
    scores: Scores,
    space: LabelSpace,
    *,
    name: str,
    dims: str,
    correction: dict | None = None,
) -> Report:
    """The Report of a row's `scores` in `space`: each prediction is its
    head's argmax on the raw or corrected logits (lowest index wins ties).
    `correction`, `calibrate_correction`'s output, is applied to the main
    and alignment heads, and only on an alignment9 space. A record without
    "align" and "motiv" heads (the aggregate baseline) gets the main head's
    marginals instead, in profile spaces only."""
    if len(scores.profile_idx) == 0:
        raise EmptyTestSet(f"no samples to evaluate for {name}")
    correction_info = None
    if correction is not None:
        if space != ALIGN_SPACE:
            raise SpaceMismatch(f"the neutral correction applies to alignment9, not {space.tag}")
        scores, correction_info = _corrected(scores, correction)
    pred = {head: logits.argmax(axis=1) for head, logits in scores.logits.items()}
    y_main, y_align, y_motiv = space_labels(scores.profile_idx, space)
    confusion_main = ConfusionMatrix.from_predictions(y_main, pred["profile"], space.class_names())
    accuracies = {"main": confusion_main.accuracy}
    by_source = {}  # accuracy-key suffix -> (alignment, motivation) predictions
    if "align" in pred:
        by_source["head"] = (pred["align"], pred["motiv"])
    if space.is_profile_space:
        by_source["marginal"] = _marginal_predictions(pred["profile"], space)
    for suffix, (align_pred, motiv_pred) in by_source.items():
        accuracies[f"alignment_{suffix}"] = float((align_pred == y_align).mean())
        accuracies[f"motivation_{suffix}"] = float((motiv_pred == y_motiv).mean())
    confusion_align = confusion_motiv = None
    if by_source:
        align_pred, motiv_pred = next(iter(by_source.values()))
        confusion_align = ConfusionMatrix.from_predictions(y_align, align_pred, ALIGN_SPACE.class_names())
        confusion_motiv = ConfusionMatrix.from_predictions(y_motiv, motiv_pred, MOTIV_SPACE.class_names())
    return Report(
        name=name,
        dims=dims,
        space_tag=space.tag,
        n_samples=len(scores.profile_idx),
        n_games=len(set(scores.game_ids)),
        accuracies=accuracies,
        confusion_main=confusion_main,
        confusion_align=confusion_align,
        confusion_motiv=confusion_motiv,
        correction=correction_info,
    )


# --- neutral correction ----------------------------------------------------

ETA_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def neutral_correction(
    alignment_logits: np.ndarray,
    predicted_freqs: np.ndarray,
    prior_freqs: np.ndarray,
    eta: float = 1.0,
) -> np.ndarray:
    """Subtract eta * ln(predicted/prior) from each class logit.

    Damps classes the model over-predicts relative to the target prior;
    predicted and prior frequencies must both be strictly positive.
    """
    predicted = np.asarray(predicted_freqs, dtype=float)
    prior = np.asarray(prior_freqs, dtype=float)
    if predicted.shape != prior.shape or predicted.shape[-1] != alignment_logits.shape[-1]:
        raise ConfigInvalid("frequency vectors must match the logit dimension")
    if (predicted <= 0).any() or (prior <= 0).any():
        raise ZeroFrequency("frequencies must be strictly positive")
    return alignment_logits - eta * np.log(predicted / prior)


def _corrected(scores: Scores, correction: dict) -> tuple[Scores, dict]:
    """`scores` with `correction` applied to its main and alignment heads,
    and the Report's record of it: the raw view beside the corrected one,
    so the correction's effect is measurable."""
    eta = float(correction["eta"])
    predicted = np.asarray(correction["predicted"], dtype=float)
    prior = np.asarray(correction["prior"], dtype=float)
    raw_pred = scores.logits["profile"].argmax(axis=1)
    raw_acc = float((raw_pred == space_labels(scores.profile_idx, ALIGN_SPACE)[0]).mean())
    logits = {
        head: neutral_correction(x, predicted, prior, eta) if head in ("profile", "align") else x
        for head, x in scores.logits.items()
    }
    corrected_pred = logits["profile"].argmax(axis=1)
    n = len(raw_pred)
    info = {
        "eta": eta,
        "predicted_freqs": predicted.tolist(),
        "prior_freqs": prior.tolist(),
        "test_predicted_freqs_uncorrected": (np.bincount(raw_pred, minlength=9) / n).tolist(),
        "test_predicted_freqs_corrected": (np.bincount(corrected_pred, minlength=9) / n).tolist(),
        "test_accuracy_uncorrected": raw_acc,
        "neutral_column_mass_uncorrected": float(np.isin(raw_pred, list(NEUTRAL_ALIGNMENT_RANKS)).mean()),
        "uncorrected_accuracy": correction["uncorrected_accuracy"],
    }
    return replace(scores, logits=logits), info


def _smoothed_freqs(alignments: np.ndarray) -> np.ndarray:
    """Frequencies of the 9 alignments, add-half smoothed so none is zero."""
    return (np.bincount(alignments, minlength=9) + 0.5) / (len(alignments) + 4.5)


def calibrate_correction(val_logits: np.ndarray, val_profile_idx: Sequence[int]) -> dict:
    """The correction `evaluate` applies to an alignment9 record, fitted to
    an alignment9 head's validation logits: the smoothed "predicted" and
    "prior" alignment frequencies, the "uncorrected_accuracy", and of the
    ETA_GRID etas that lose at most 1 point of it, the "eta" whose corrected
    frequencies lie nearest the prior (L1); 1.0 when none qualifies."""
    _, y, _ = space_labels(val_profile_idx, ALIGN_SPACE)
    predicted = _smoothed_freqs(val_logits.argmax(axis=1))
    prior = _smoothed_freqs(y)
    base_acc = float((val_logits.argmax(axis=1) == y).mean())
    eta, eta_gap = 1.0, None
    for candidate in ETA_GRID:
        pred = neutral_correction(val_logits, predicted, prior, candidate).argmax(axis=1)
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


# --- report files ----------------------------------------------------------


def _pct(x: float | None) -> str:
    return f"{100 * x:.1f}%" if x is not None else "-"


TABLE_HEADER = (
    "| Config | Dims | Alignment | Motivation | Profile | Lift (space) | Lift (36) |",
    "|---|---|---|---|---|---|---|",
)


def table_row(doc: dict) -> str:
    """One results-table line from a metrics.json document (Report.to_dict())."""
    if doc.get("failed"):
        return f"| {doc['name']} | {doc['dims']} | FAILED | FAILED | FAILED | - | {doc.get('error', '')} |"
    acc, lift = doc["accuracies"], doc["lift"]
    align = acc.get("alignment_head", acc.get("alignment_marginal"))
    motiv = acc.get("motivation_head", acc.get("motivation_marginal"))
    return "| {} | {} | {} | {} | {} | {:.1f}x | {:.1f}x |".format(
        doc["name"], doc["dims"], _pct(align), _pct(motiv), _pct(acc.get("main")),
        lift["vs_subset_baseline"], lift["vs_full36_baseline"],
    )


def table_rows(reports: Sequence[Report]) -> list[str]:
    return [*TABLE_HEADER] + [table_row(r.to_dict()) for r in reports]


def write_table(path: str | Path, reports: Sequence[Report], title: str = "Results") -> None:
    lines = [f"# {title}", ""] + table_rows(reports) + [""]
    try:
        Path(path).write_text("\n".join(lines), encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"table write failed: {exc}") from exc


def confusion_csv(matrix: ConfusionMatrix) -> str:
    header = "true\\pred," + ",".join(matrix.labels)
    lines = [header]
    for i, label in enumerate(matrix.labels):
        lines.append(label + "," + ",".join(str(int(v)) for v in matrix.counts[i]))
    return "\n".join(lines) + "\n"


def confusion_svg(matrix: ConfusionMatrix, title: str) -> str:
    """Grayscale confusion heatmap as a standalone SVG string.

    Pure text emission: one rect per cell, darker = more mass, label
    annotations on both axes. No plotting library involved.
    """
    k = len(matrix.labels)
    cell = max(10, min(24, 560 // max(k, 1)))
    margin_left, margin_top = 86, 64
    width = margin_left + k * cell + 20
    height = margin_top + k * cell + 20
    counts = matrix.counts.tolist()  # Python ints: no numpy scalar arithmetic per cell
    peak = max(map(max, counts)) if k else 0
    font = max(5, min(11, cell - 2))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_left}" y="16" font-family="monospace" font-size="12">{title}</text>',
        f'<text x="{margin_left}" y="30" font-family="monospace" font-size="9">rows: true, columns: predicted</text>',
    ]
    for i, row in enumerate(counts):
        for j, count in enumerate(row):
            frac = count / peak if peak else 0.0
            shade = round(255 * (1.0 - frac))
            x = margin_left + j * cell
            y = margin_top + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({shade},{shade},{shade})" stroke="rgb(200,200,200)" stroke-width="0.5"/>'
            )
    for i, label in enumerate(matrix.labels):
        y = margin_top + i * cell + cell // 2 + font // 2
        parts.append(
            f'<text x="{margin_left - 4}" y="{y}" font-family="monospace" '
            f'font-size="{font}" text-anchor="end">{label}</text>'
        )
        x = margin_left + i * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{margin_top - 4}" font-family="monospace" font-size="{font}" '
            f'text-anchor="start" transform="rotate(-60 {x} {margin_top - 4})">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: Report, directory: str | Path) -> list[Path]:
    """Write metrics.json, confusion CSV/SVG per space, and table.md."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        metrics_path = directory / "metrics.json"
        metrics_path.write_text(stable_json_dumps(report.to_dict()) + "\n", encoding="utf-8")
        written.append(metrics_path)
        matrices = [(report.space_tag, report.confusion_main)]
        if report.confusion_align is not None:
            matrices.append(("alignment9", report.confusion_align))
        if report.confusion_motiv is not None:
            matrices.append(("motivation4", report.confusion_motiv))
        seen = set()
        for tag, matrix in matrices:
            if tag in seen or matrix.total == 0:
                continue
            seen.add(tag)
            csv_path = directory / f"confusion_{tag}.csv"
            csv_path.write_text(confusion_csv(matrix), encoding="utf-8")
            svg_path = directory / f"confusion_{tag}.svg"
            svg_path.write_text(confusion_svg(matrix, f"{report.name} [{tag}]"), encoding="utf-8")
            written += [csv_path, svg_path]
        table_path = directory / "table.md"
        write_table(table_path, [report], title=report.name)
        written.append(table_path)
        return written
    except OSError as exc:
        raise IoFailure(f"report write failed: {exc}") from exc
