"""profilebench benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {corpus,ladder,infer} --seed N --seconds S --trace {0,1}

Run it from the root of a profilebench source tree. It writes the workload's
pipeline config (``configs/desk.json`` plus the seed and the workload's
settings) into ``.perfbench_work/``, builds the inputs there in
SETUP_REPEATS set-up processes, then runs timed rounds, each in a fresh
process, until ``--seconds`` of timed work are done (at least MIN_ROUNDS).
Every round checks its outputs, and all rounds must write identical bytes.
With ``--trace 1`` untraced and traced rounds alternate, and the per-layer
metrics come from the traced ones. The last line of output is one JSON
object: correct, attempted, failed and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import (
    BLAS_THREAD_VARS,
    END_TO_END,
    MIN_ROUNDS,
    REFERENCE_NOMINAL_S,
    SETUP_REPEATS,
    WORKLOADS,
    make_config,
)

HERE = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0  # the whole run, set-ups included
WORK_DIR = ".perfbench_work"


class RunFailed(Exception):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": os.getloadavg(),
    }


class Phases:
    """Starts phase.py processes for one run and waits for each to end."""

    def __init__(self, root: Path, workload: str, work: Path, deadline: float):
        self.root = root
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.config = work / "config.json"
        self.env = dict(os.environ)
        self.env.update({v: "1" for v in BLAS_THREAD_VARS})
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.count = 0

    def run(self, phase: str, trace: bool = False) -> tuple[float, dict, str | None]:
        """(wall seconds of the whole process, its result, its spans file)."""
        self.count += 1
        result = self.work / f"{phase}-{self.count}.json"
        spans = str(self.work / f"spans-{self.count}.json") if trace else None
        cmd = [sys.executable, str(HERE / "phase.py"), phase, self.workload, str(self.config), str(result)]
        if spans:
            cmd += ["--trace", spans]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RunFailed(f"time limit of {TIME_LIMIT_S:.0f} s reached before {phase}")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{phase} did not finish within the time limit") from exc
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RunFailed(f"{phase} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        return wall, json.loads(result.read_text(encoding="utf-8")), spans


def median_max(values: list[float]) -> str:
    return f"median of {len(values)}, max {max(values):.4g}"


def measure(args, root: Path, work: Path) -> tuple[dict, list[str]]:
    """Run the set-ups and rounds; returns the figures and the problems found."""
    workload = WORKLOADS[args.workload]
    desk = json.loads((root / "configs" / "desk.json").read_text(encoding="utf-8"))
    out_dir = work / "out"
    cfg = make_config(desk, workload, args.seed, str(out_dir), args.tiny)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    phases = Phases(root, args.workload, work, time.monotonic() + TIME_LIMIT_S)
    at_start = machine()

    setups = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir()
        wall, doc, _ = phases.run("setup")
        setups.append({**doc, "wall_s": wall - doc["sampled_s"]})

    rounds: list[tuple[bool, dict, str | None]] = []
    timed = 0.0
    last = 0.0
    while len(rounds) < MIN_ROUNDS or timed + last <= args.seconds:
        trace = bool(args.trace) and len(rounds) % 2 == 1
        _, doc, spans = phases.run("round", trace)
        rounds.append((trace, doc, spans))
        last = doc["wall_s"]
        timed += last

    problems = [p for _, doc, _ in rounds for p in doc["problems"]]
    first = rounds[0][1]["digests"]
    for i, (_, doc, _) in enumerate(rounds[1:], start=2):
        differ = sorted(p for p in set(first) | set(doc["digests"]) if first.get(p) != doc["digests"].get(p))
        if differ:
            problems.append(f"round {i} wrote different bytes than round 1: {', '.join(differ[:5])}")
    return {"setups": setups, "rounds": rounds, "machine": at_start}, problems


def series(figures: dict, workload) -> dict[str, list[float]]:
    """Per-phase values of every end-to-end metric, then raw figures."""
    nominal = REFERENCE_NOMINAL_S[workload.reference]
    untraced = [doc for trace, doc, _ in figures["rounds"] if not trace]
    setups = figures["setups"]
    return {
        "wall_s": [d["wall_s"] * nominal / d["reference_s"] for d in untraced],
        "setup_s": [d["wall_s"] * nominal / d["reference_s"] for d in setups],
        "cpu_s": [d["cpu_s"] * nominal / d["reference_s"] for d in untraced],
        "items_per_s": [d["items"] * d["reference_s"] / (d["wall_s"] * nominal) for d in untraced],
        "peak_rss_mb": [d["peak_rss_mb"] for d in untraced],
        "artifact_mb": [d["artifact_bytes"] / 1e6 for d in untraced],
        "raw_wall_s": [d["wall_s"] for d in untraced],
        "raw_setup_s": [d["wall_s"] for d in setups],
        "raw_cpu_s": [d["cpu_s"] for d in untraced],
        f"raw_{workload.item}_per_s": [d["items"] / d["wall_s"] for d in untraced],
        "reference_ms": [1e3 * d["reference_s"] for d in untraced + setups],
    }


def per_layer(figures: dict, problems: list[str]) -> dict[str, float]:
    rounds = figures["rounds"]
    samples: dict[str, list[float]] = {}
    for trace, doc, spans in rounds:
        if not trace:
            continue
        metrics, attribution = tracing.summarize(json.loads(Path(spans).read_text(encoding="utf-8")))
        problems += attribution
        for name, value in {**metrics, **doc["facts"]}.items():
            samples.setdefault(name, []).append(value)
    out = {name: statistics.median(samples.get(name, [0.0])) for name in tracing.per_layer_metrics()}
    out["trace.overhead_s"] = statistics.median(d["wall_s"] for t, d, _ in rounds if t) - statistics.median(
        d["wall_s"] for t, d, _ in rounds if not t
    )
    return out


def report(args, figures: dict, problems: list[str]) -> dict:
    """Print the human summary; return the result object."""
    rounds = figures["rounds"]
    attempted = sum(doc["attempted"] for _, doc, _ in rounds)
    failed = sum(doc["failed"] for _, doc, _ in rounds)
    layers = per_layer(figures, problems) if args.trace else {}
    info = {**rounds[-1][1]["env"], **figures["machine"]}
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info)}")
    workload = WORKLOADS[args.workload]
    values = series(figures, workload)
    units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    item_rate = f"raw_{workload.item}_per_s"
    units.update({"raw_wall_s": "s", "raw_setup_s": "s", "raw_cpu_s": "s", item_rate: "1/s", "reference_ms": "ms"})
    for name, unit in units.items():
        print(f"  {name:<22} {statistics.median(values[name]):12.4f} {unit:<5} ({median_max(values[name])})")
    print(f"  {'error_rate':<22} {failed / max(attempted, 1):12.4f}       ({failed} of {attempted} failed)")
    last = rounds[-1][1]
    for name, value in sorted(last["facts"].items()):
        print(f"  {name:<50} {value:.6g}")
    stages = ", ".join(f"{s} {v:.3f} s" for s, v in last["stage_s"].items())
    print(f"  stages (last round): {stages}")
    for problem in problems:
        print(f"  PROBLEM {problem}")

    if args.trace:
        print(f"  tracing overhead {layers['trace.overhead_s']:.3f} s over the untraced wall time")
        busiest = sorted((k for k in layers if k.endswith("self_s")), key=lambda k: -layers[k])
        for name in busiest[:12]:
            print(f"  {name:<50} {layers[name]:10.4f} s")
        result = {k: (layers[k], unit) for k, (unit, _) in tracing.per_layer_metrics().items()}
    else:
        result = {name: (statistics.median(values[name]), unit) for name, (unit, _, _) in END_TO_END.items()}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="one set-up and one epoch, for self-tests"
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/profilebench", "configs/desk.json") if not (root / p).exists()]
    if missing:
        print(f"error: run from a profilebench source tree; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        figures, problems = measure(args, root, work)
        result = report(args, figures, problems)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
