"""Spans around the program's public functions, and per-layer metrics.

A traced round patches each public function at the module attribute its
callers look it up through (its import site), so no file under ``src/``
changes. Spans (name, start, end, parent) stay in memory and are written
out when the round ends. A span's self time is its duration minus the part
of it that its child spans cover.

The pipeline runs single-threaded (the workload configs pin
``threads: 1``), so one stack of open spans gives every span its parent.

The aggregation half of this module imports nothing from numpy or the
program; the orchestrator uses it on the written spans.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

STAGES = ("gen", "featurize", "balance", "split", "train", "eval", "report")
LADDER_ROWS = (
    "baseline_agg",
    "lstm_base_530",
    "multipool_176",
    "multipool_176_nonneutral",
    "multipool_176_neutral",
    "attention_binary",
    "attention_law3",
    "align9_corrected",
)
SEQUENCE_ROWS = LADDER_ROWS[1:]

# Layers reported as `<name>.calls` and `<name>.self_s`.
LAYERS = (
    "simulator.play_game",
    "simulator.build_dungeon",
    "textgen.render_text",
    "hashing.mix_seed",
    "simulator.load_sessions",
    "features.behavioral_matrix",
    "features.embed_tokens",
    "features.aggregate_features",
    "features.FeatureFileWriter.add",
    "features.read_feature_file",
    "models.checkpoint.load_checkpoint",
    "models.lstm.bilstm_forward_batch",
    "models.lstm.bilstm_backward_batch",
    "models.training.train_step",
    "models.training.adam_update",
    "models.training.clip_gradients",
    "models.training.predict_main",
    "models.checkpoint.Checkpoint.copy",
    "models.checkpoint.save_checkpoint",
    "models.baseline.train_baseline",
    "evaluation.predict_logits",
    "evaluation.evaluate",
    "evaluation.emit_report",
    "dataset.balance",
    "dataset.split_by_game",
    "hashing.sha256_file",
    "pipeline.write_provenance",
)
POOLS = ("multi", "attention", "last")
# Byte counters kept by the span wrappers.
BYTE_COUNTERS = (
    "features.FeatureFileWriter.add.bytes",
    "features.read_feature_file.bytes",
    "models.checkpoint.save_checkpoint.bytes",
    "hashing.sha256_file.bytes",
)
PBF_RECORD_HEADER_BYTES = 13  # game id, profile index and T ahead of each PBF1 matrix


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    for kind in POOLS:
        out[f"models.lstm.pool_forward.{kind}.self_s"] = ("s", "lower")
        out[f"models.lstm.pool_backward.{kind}.self_s"] = ("s", "lower")
    for name in BYTE_COUNTERS:
        out[name] = ("bytes", "lower")
    out["evaluation.predict_logits.windows"] = ("count", "higher")
    out["models.training.train_step.p50_ms"] = ("ms", "lower")
    out["models.training.train_step.p99_ms"] = ("ms", "lower")
    out["models.training.clip_gradients.clipped_ratio"] = ("ratio", "lower")
    out["models.training.train_loss_final"] = ("nats", "lower")
    out["dataset.balance.kept_ratio"] = ("ratio", "higher")
    for stage in STAGES:
        out[f"pipeline.stage_{stage}.s"] = ("s", "lower")
        out[f"pipeline.stage_{stage}.unattributed_s"] = ("s", "lower")
    for row in LADDER_ROWS:
        out[f"pipeline.train_row.{row}.s"] = ("s", "lower")
        out[f"pipeline.train_row.{row}.failed"] = ("count", "lower")
        out[f"pipeline.eval_row.{row}.s"] = ("s", "lower")
        out[f"pipeline.eval_row.{row}.failed"] = ("count", "lower")
    for row in SEQUENCE_ROWS:
        out[f"pipeline.train_row.{row}.epochs"] = ("count", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


# --- recording (runs inside a traced round) -------------------------------


class Tracer:
    """In-memory span recorder with counters, for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """`fn` inside a span. `name` is a string or a function of the call's
        arguments; `after(tracer, args, result)` updates counters."""
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args)
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                tracer.counters[span_name + ".failed"] += 1
                raise
            tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name: str, fn):
        """A generator function whose every `next` is a span, so work done
        lazily during iteration is attributed to it, not to the consumer."""
        tracer = self

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.close(idx)
                    return
                except BaseException:
                    tracer.close(idx)
                    raise
                tracer.close(idx)
                yield item

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        table: dict[str, int] = {}
        spans = [
            [table.setdefault(n, len(table)), s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        doc = {"names": list(table), "spans": spans, "counters": dict(self.counters)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def _count(key: str, amount):
    def after(tracer: Tracer, args, result) -> None:
        tracer.counters[key] += amount(args, result)

    return after


def _balance_counts(tracer: Tracer, args, result) -> None:
    tracer.counters["dataset.balance.windows_in"] += sum(args[0].totals().values())
    tracer.counters["dataset.balance.windows_kept"] += sum(result.totals().values())


def _clip_counts(tracer: Tracer, args, result) -> None:
    tracer.counters["models.training.clip_gradients.steps"] += 1
    tracer.counters["models.training.clip_gradients.clipped"] += result > args[1]


def _failed_report(name):
    def after(tracer: Tracer, args, result) -> None:
        if result.failed:
            tracer.counters[name(args) + ".failed"] += 1

    return after


def install(tracer: Tracer) -> None:
    """Patch the program's public functions at their import sites."""
    from profilebench import dataset, evaluation, features, pipeline, simulator, textgen
    from profilebench.models import baseline, checkpoint, training

    def patch(owner, attr: str, name, after=None) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    patch(simulator, "play_game", "simulator.play_game")
    patch(simulator, "build_dungeon", "simulator.build_dungeon")
    patch(pipeline, "build_dungeon", "simulator.build_dungeon")
    patch(simulator, "render_text", "textgen.render_text")
    for module in (simulator, textgen, dataset, pipeline, training, baseline, checkpoint):
        patch(module, "mix_seed", "hashing.mix_seed")
    pipeline.load_sessions = tracer.wrap_iter("simulator.load_sessions", pipeline.load_sessions)
    patch(pipeline, "behavioral_matrix", "features.behavioral_matrix")
    patch(pipeline, "embed_tokens", "features.embed_tokens")
    patch(pipeline, "aggregate_features", "features.aggregate_features")
    patch(
        features.FeatureFileWriter,
        "add",
        "features.FeatureFileWriter.add",
        _count(
            "features.FeatureFileWriter.add.bytes",
            lambda a, r: PBF_RECORD_HEADER_BYTES + 4 * a[1].matrix.size,
        ),
    )
    patch(
        pipeline,
        "read_feature_file",
        "features.read_feature_file",
        _count("features.read_feature_file.bytes", lambda a, r: _file_bytes(a[0])),
    )
    patch(pipeline, "load_checkpoint", "models.checkpoint.load_checkpoint")
    patch(
        pipeline,
        "save_checkpoint",
        "models.checkpoint.save_checkpoint",
        _count("models.checkpoint.save_checkpoint.bytes", lambda a, r: _file_bytes(a[0])),
    )
    patch(training, "bilstm_forward_batch", "models.lstm.bilstm_forward_batch")
    patch(training, "bilstm_backward_batch", "models.lstm.bilstm_backward_batch")
    for kind, forward, backward in (
        ("multi", "multi_pool_batch", "multi_pool_backward_batch"),
        ("attention", "attention_pool_batch", "attention_pool_backward_batch"),
        ("last", "last_state_pool_batch", "last_state_pool_backward_batch"),
    ):
        patch(training, forward, f"models.lstm.pool_forward.{kind}")
        patch(training, backward, f"models.lstm.pool_backward.{kind}")
    patch(training, "train_step", "models.training.train_step")
    patch(training, "adam_update", "models.training.adam_update")
    patch(training, "clip_gradients", "models.training.clip_gradients", _clip_counts)
    patch(training, "predict_main", "models.training.predict_main")
    patch(checkpoint.Checkpoint, "copy", "models.checkpoint.Checkpoint.copy")
    patch(pipeline, "train_baseline", "models.baseline.train_baseline")
    windows = _count("evaluation.predict_logits.windows", lambda a, r: len(a[1]))
    patch(evaluation, "predict_logits", "evaluation.predict_logits", windows)
    patch(pipeline, "predict_logits", "evaluation.predict_logits", windows)
    patch(pipeline, "evaluate", "evaluation.evaluate")
    patch(pipeline, "emit_report", "evaluation.emit_report")
    patch(pipeline, "balance", "dataset.balance", _balance_counts)
    patch(pipeline, "split_by_game", "dataset.split_by_game")
    patch(
        pipeline,
        "sha256_file",
        "hashing.sha256_file",
        _count("hashing.sha256_file.bytes", lambda a, r: _file_bytes(a[0])),
    )
    patch(pipeline, "write_provenance", "pipeline.write_provenance")

    def row_span(kind: str):
        return lambda args: f"pipeline.{kind}.{args[1].row_id}"

    patch(pipeline, "train_row", row_span("train_row"))
    eval_name = row_span("eval_row")
    patch(pipeline, "eval_row", eval_name, _failed_report(eval_name))


# --- aggregation (pure Python) --------------------------------------------


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each (start, end, parent) span: its duration minus the
    union of its children's intervals, clipped to it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * q / 100))
    return sorted_values[rank - 1]


def summarize(doc: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from one traced round's written spans.

    Also returns problems found: a stage whose descendants' self times plus
    its unattributed remainder do not add up to the stage span.
    """
    names = doc["names"]
    raw = doc["spans"]
    spans = [(s, e, p) for _, s, e, p in raw]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_sum: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name_idx, start, end, _), self_s in zip(raw, selfs):
        name = names[name_idx]
        calls[name] += 1
        total[name] += end - start
        self_sum[name] += self_s
        if name == "models.training.train_step":
            durations[name].append(end - start)

    metrics = {name: 0.0 for name in per_layer_metrics()}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = self_sum[layer]
    for kind in POOLS:
        metrics[f"models.lstm.pool_forward.{kind}.self_s"] = self_sum[f"models.lstm.pool_forward.{kind}"]
        metrics[f"models.lstm.pool_backward.{kind}.self_s"] = self_sum[f"models.lstm.pool_backward.{kind}"]
    counters = doc["counters"]
    for name in BYTE_COUNTERS + ("evaluation.predict_logits.windows",):
        metrics[name] = counters.get(name, 0.0)
    steps = sorted(durations["models.training.train_step"])
    metrics["models.training.train_step.p50_ms"] = 1e3 * _percentile(steps, 50)
    metrics["models.training.train_step.p99_ms"] = 1e3 * _percentile(steps, 99)
    clip_steps = counters.get("models.training.clip_gradients.steps", 0.0)
    if clip_steps:
        metrics["models.training.clip_gradients.clipped_ratio"] = (
            counters.get("models.training.clip_gradients.clipped", 0.0) / clip_steps
        )
    windows_in = counters.get("dataset.balance.windows_in", 0.0)
    if windows_in:
        metrics["dataset.balance.kept_ratio"] = counters["dataset.balance.windows_kept"] / windows_in
    for stage in STAGES:
        metrics[f"pipeline.stage_{stage}.s"] = total[f"pipeline.stage_{stage}"]
        metrics[f"pipeline.stage_{stage}.unattributed_s"] = self_sum[f"pipeline.stage_{stage}"]
    for row in LADDER_ROWS:
        for kind in ("train_row", "eval_row"):
            metrics[f"pipeline.{kind}.{row}.s"] = total[f"pipeline.{kind}.{row}"]
            metrics[f"pipeline.{kind}.{row}.failed"] = counters.get(f"pipeline.{kind}.{row}.failed", 0.0)
    return metrics, attribution_problems(names, raw, selfs)


def attribution_problems(names: list[str], raw: list, selfs: list[float]) -> list[str]:
    """Check that each stage span equals the self times of its subtree."""
    subtree = list(selfs)
    for idx in range(len(raw) - 1, -1, -1):  # children always follow their parent
        parent = raw[idx][3]
        if parent >= 0:
            subtree[parent] += subtree[idx]
    problems = []
    for idx, (name_idx, start, end, _) in enumerate(raw):
        name = names[name_idx]
        if name.startswith("pipeline.stage_") and abs(subtree[idx] - (end - start)) > 1e-6:
            problems.append(
                f"{name}: self times sum to {subtree[idx]:.6f} s, span is {end - start:.6f} s"
            )
    return problems
