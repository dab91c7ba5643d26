"""One benchmark phase in its own process: a set-up, or one timed round.

    python3 perfbench/phase.py setup <workload> <config.json> <result.json>
    python3 perfbench/phase.py round <workload> <config.json> <result.json> [--trace <spans.json>]

The orchestrator (run.py) starts this with ``src`` on PYTHONPATH. A round
times the stage calls from outside, reads its own peak RSS before anything
else runs, then checks the outputs and writes every figure to the result
file. With ``--trace`` it records spans around the program's public
functions (tracing.py) and writes them out at the end.
"""

from __future__ import annotations

import os
import sys

from workloads import BLAS_THREAD_VARS, SAMPLE_INTERVAL_S, WORKLOADS

for _var in BLAS_THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from profilebench import evaluation, pipeline  # noqa: E402
from profilebench.dataset import read_splits, window_starts  # noqa: E402
from profilebench.features import scan_feature_file  # noqa: E402
from profilebench.hashing import sha256_file  # noqa: E402
from profilebench.taxonomy import Profile  # noqa: E402

import tracing  # noqa: E402

STAGE_CALLS = {
    "gen": pipeline.stage_gen,
    "featurize": pipeline.stage_featurize,
    "balance": pipeline.stage_balance,
    "split": pipeline.stage_split,
    "train": pipeline.stage_train,
    "eval": pipeline.stage_eval,
    "report": pipeline.stage_report,
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process image, from /proc (ru_maxrss would
    also count the memory of the process that spawned it)."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def snapshot(root: Path) -> dict[str, tuple[int, int, int]]:
    out = {}
    for path in root.rglob("*"):
        if path.is_file():
            st = path.stat()
            out[str(path.relative_to(root))] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return out


# Reference tasks: fixed work, independent of the program, timed while a
# set-up or an untraced round runs (see workloads.END_TO_END). Each takes
# 10-25 ms.


def interpreter_reference() -> None:
    """Dict and string handling like the simulator and featurizer, then
    small float32 matrix products and tanh."""
    counts: dict[str, int] = {}
    for i in range(25_000):
        key = f"k{i % 997}"
        counts[key] = counts.get(key, 0) + (i * i) % 7
    a = np.full((64, 64), 0.5, dtype=np.float32)
    for _ in range(200):
        a = np.tanh(a @ a * np.float32(0.01))


_LSTM_X = np.linspace(-1.0, 1.0, 64 * 8 * 176, dtype=np.float32).reshape(64, 8, 176)
_LSTM_W = np.linspace(-0.05, 0.05, 256 * 176, dtype=np.float32).reshape(256, 176)
_LSTM_R = np.linspace(-0.05, 0.05, 256 * 64, dtype=np.float32).reshape(256, 64)


def lstm_reference() -> None:
    """An LSTM forward over a (64, 8, 176) float32 batch with 64 hidden
    units, the shapes the ladder trains and scores."""
    for _ in range(10):
        h = np.zeros((64, 64), dtype=np.float32)
        c = np.zeros((64, 64), dtype=np.float32)
        for t in range(8):
            z = _LSTM_X[:, t] @ _LSTM_W.T + h @ _LSTM_R.T
            i, f, g, o = np.split(z, 4, axis=1)
            c = c / (1 + np.exp(-f)) + np.tanh(g) / (1 + np.exp(-i))
            h = np.tanh(c) / (1 + np.exp(-o))


REFERENCE_TASKS = {"interpreter": interpreter_reference, "lstm": lstm_reference}


class SpeedSampler:
    """While active, a timer signal runs a reference task every `interval`
    seconds, so its times follow the machine's speed through the phase.
    Their wall and CPU time is kept, to be taken out of the phase's figures."""

    def __init__(self, task, interval: float):
        self.task = task
        self.interval = interval
        self.samples: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def sample(self, *_) -> None:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        self.task()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.wall += dt
        self.cpu += time.process_time() - cpu0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()


class ScoreProbe:
    """Records, for each call of evaluation.predict_logits (made by
    `evaluate`, once per sequence row), how often each game was scored and
    whether every logit was finite. It costs a Counter per call."""

    def __init__(self):
        self.calls: list[tuple[Counter, bool]] = []

    def install(self) -> None:
        original = evaluation.predict_logits

        def probe(ckpt, samples, *args, **kwargs):
            logits = original(ckpt, samples, *args, **kwargs)
            finite = all(bool(np.isfinite(v).all()) for v in logits.values())
            self.calls.append((Counter(s.game_id for s in samples), finite))
            return logits

        evaluation.predict_logits = probe


# --- checks ---------------------------------------------------------------


class Outcome:
    """What a check found: operations attempted and failed, problems, facts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict = {}
        self.items = 0.0

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def _windows_per_game(path: Path) -> tuple[Counter, dict[int, int]]:
    """Windows per game in a PBF file, and each game's profile index."""
    windows: Counter = Counter()
    profiles: dict[int, int] = {}
    for game_id, profile_idx, _ in scan_feature_file(path):
        windows[game_id] += 1
        profiles[game_id] = profile_idx
    return windows, profiles


def check_corpus(cfg, paths, outcome: Outcome, probe: ScoreProbe) -> None:
    gpp = cfg.games_per_profile
    outcome.attempted = 36 * gpp
    manifest = json.loads(paths.manifest.read_text(encoding="utf-8"))
    counts = manifest["counts"]
    short = sum(max(0, gpp - c) for c in counts.values())
    if len(counts) != 36 or any(c != gpp for c in counts.values()):
        outcome.fail(short, f"manifest counts {sorted(set(counts.values()))} != {gpp} per profile")
    expected: dict[int, int] = {}
    with open(paths.sessions, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            n = len(doc["decisions"])
            expected[doc["game_id"]] = len(window_starts(n, cfg.window_len, cfg.stride))
            outcome.items += n
    bad_games: set[int] = set()
    for pbf in (paths.features176, paths.features530):
        windows, _ = _windows_per_game(pbf)
        bad = {g for g in set(expected) | set(windows) if windows[g] != expected.get(g, 0)}
        if bad:
            outcome.problems.append(f"{pbf.name}: window counts differ from window_starts for {len(bad)} games")
        bad_games |= bad
    outcome.failed += len(bad_games)


def _expected_windows(cfg, paths) -> dict[str, dict[str, Counter]]:
    """Per split, per sequence row: windows per game that the row admits."""
    assignment = read_splits(paths.splits)
    per_layout = {
        "176": _windows_per_game(paths.features176),
        "530": _windows_per_game(paths.features530),
    }
    out: dict[str, dict[str, Counter]] = {"train": {}, "val": {}, "test": {}}
    for row_id in cfg.ladder:
        row = pipeline.LADDER_BY_ID[row_id]
        if row.model == "baseline":
            continue
        space = row.spec(0).space
        windows, profiles = per_layout[row.layout]
        for split, rows in out.items():
            rows[row_id] = Counter(
                {
                    g: n
                    for g, n in windows.items()
                    if assignment.get(g) == split and space.admits(Profile.from_index(profiles[g]))
                }
            )
    return out


def _scoring_problems(paths, expected: dict[str, Counter], probe: ScoreProbe) -> dict[str, tuple[int, int, str]]:
    """Per sequence row: (test windows expected, windows wrongly scored, problem)."""
    out = {}
    calls = iter(probe.calls)
    for row_id, want in expected.items():
        got, finite = next(calls, (Counter(), True))
        n = sum(want.values())
        wrong = sum(((want - got) + (got - want)).values())
        metrics = json.loads((paths.results / row_id / "metrics.json").read_text(encoding="utf-8"))
        matrix_total = sum(map(sum, metrics["confusion"]["main"]["counts"] or []))
        problem = ""
        if wrong:
            problem = f"{wrong} windows not scored exactly once"
        elif not finite:
            wrong, problem = n, "non-finite logits"
        elif not metrics["n_samples"] == matrix_total == sum(got.values()):
            wrong = n
            problem = (
                f"n_samples {metrics['n_samples']}, confusion total {matrix_total}, "
                f"scored {sum(got.values())}"
            )
        out[row_id] = (n, wrong, problem)
    return out


def _row_problems(cfg, paths) -> dict[str, str]:
    """Per ladder row: why its training or report is not as required."""
    status = json.loads((paths.checkpoints / "train_status.json").read_text(encoding="utf-8"))
    out = {}
    for row_id in cfg.ladder:
        metrics_path = paths.results / row_id / "metrics.json"
        if status.get(row_id) != "trained":
            out[row_id] = f"train status {status.get(row_id)!r}"
        elif not metrics_path.exists():
            out[row_id] = "no metrics.json"
        else:
            metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
            if metrics["failed"]:
                out[row_id] = f"report failed: {metrics['error']}"
            elif not all(math.isfinite(v) for v in metrics["accuracies"].values()):
                out[row_id] = "non-finite accuracy"
    return out


def _histories(cfg, paths) -> dict[str, list[dict]]:
    out = {}
    for row_id in cfg.ladder:
        sidecar = paths.checkpoint(row_id).with_suffix(".pbck.json")
        if pipeline.LADDER_BY_ID[row_id].model != "baseline" and sidecar.exists():
            out[row_id] = json.loads(sidecar.read_text(encoding="utf-8"))["history"]
    return out


def check_ladder(cfg, paths, outcome: Outcome, probe: ScoreProbe) -> None:
    outcome.attempted = len(cfg.ladder)
    problems = _row_problems(cfg, paths)
    histories = _histories(cfg, paths)
    epochs = cfg.train.epochs
    final_losses = []
    for row_id, history in histories.items():
        outcome.facts[f"pipeline.train_row.{row_id}.epochs"] = len(history)
        losses = [h["train_loss"] for h in history]
        if len(history) != epochs:
            problems[row_id] = f"ran {len(history)} epochs, configured {epochs}"
        elif not all(math.isfinite(v) for v in losses):
            problems[row_id] = "non-finite training loss"
        else:
            final_losses.append(losses[-1])
    if not problems:
        expected = _expected_windows(cfg, paths)
        for row_id, (_, wrong, problem) in _scoring_problems(paths, expected["test"], probe).items():
            if wrong:
                problems[row_id] = problem
        trained = expected["train"]
        outcome.items = sum(sum(trained[r].values()) * len(h) for r, h in histories.items())
        outcome.facts["models.training.train_loss_final"] = sum(final_losses) / len(final_losses)
    for row_id, problem in problems.items():
        outcome.fail(1, f"{row_id}: {problem}")


def check_infer(cfg, paths, outcome: Outcome, probe: ScoreProbe) -> None:
    problems = _row_problems(cfg, paths)
    if problems:
        outcome.attempted = len(cfg.ladder)
        for row_id, problem in problems.items():
            outcome.fail(1, f"{row_id}: {problem}")
        return
    expected = _expected_windows(cfg, paths)["test"]
    for row_id, (n, wrong, problem) in _scoring_problems(paths, expected, probe).items():
        outcome.attempted += n
        outcome.items += n - wrong
        if wrong:
            outcome.fail(wrong, f"{row_id}: {problem}")


CHECKS = {"corpus": check_corpus, "ladder": check_ladder, "infer": check_infer}


# --- phases ---------------------------------------------------------------


def sampler_for(workload: str) -> SpeedSampler:
    return SpeedSampler(REFERENCE_TASKS[WORKLOADS[workload].reference], SAMPLE_INTERVAL_S)


def run_setup(workload: str, cfg) -> dict:
    with sampler_for(workload) as sampler:
        for stage in WORKLOADS[workload].setup_stages:
            STAGE_CALLS[stage](cfg)
    return {"sampled_s": sampler.wall, "reference_s": statistics.fmean(sampler.samples)}


def run_round(workload: str, cfg, spans_path: str | None) -> dict:
    paths = pipeline.Paths(cfg.out_dir)
    before = snapshot(paths.root)
    probe = ScoreProbe()
    probe.install()
    tracer = None
    if spans_path:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # traced rounds are not sampled, so every span holds program work only
    sampler = sampler_for(workload)
    stage_s = {}
    with sampler if tracer is None else contextlib.nullcontext():
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for stage in WORKLOADS[workload].timed_stages:
            t0 = time.perf_counter()
            sampled0 = sampler.wall
            span = tracer.open(f"pipeline.stage_{stage}") if tracer else None
            STAGE_CALLS[stage](cfg)
            if tracer:
                tracer.close(span)
            stage_s[stage] = time.perf_counter() - t0 - (sampler.wall - sampled0)
        wall = time.perf_counter() - wall0 - sampler.wall
        cpu = time.process_time() - cpu0 - sampler.cpu
        rss = peak_rss_mb()
    if tracer:
        tracer.write(spans_path)

    after = snapshot(paths.root)
    written = sorted(p for p, st in after.items() if before.get(p) != st)
    outcome = Outcome()
    CHECKS[workload](cfg, paths, outcome, probe)
    return {
        "wall_s": wall,
        "reference_s": statistics.fmean(sampler.samples) if sampler.samples else None,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "artifact_bytes": sum(after[p][1] for p in written),
        "digests": {p: sha256_file(paths.root / p) for p in written},
        "stage_s": stage_s,
        "items": outcome.items,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "facts": outcome.facts,
        "env": environment(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "round"))
    parser.add_argument("workload")
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", metavar="SPANS_JSON")
    args = parser.parse_args()
    cfg = pipeline.PipelineConfig.from_file(args.config)
    if args.phase == "setup":
        doc = run_setup(args.workload, cfg)
    else:
        doc = run_round(args.workload, cfg, args.trace)
    Path(args.result).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
