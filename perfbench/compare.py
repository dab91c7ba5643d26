"""Compare two source trees of profilebench with this benchmark.

    git archive <parent> | tar -x -C ../base
    git archive <change> | tar -x -C ../head
    python3 perfbench/compare.py --base ../base --head ../head --workload ladder --pairs 10

Both trees are measured with this tree's benchmark code and settings. Pair
i runs seed i on both sides, alternating which side goes first. For every
end-to-end metric it prints each side's median and quartiles, the share of
pairs the head wins, and a verdict: `gain` when the head wins at least
nine tenths of the pairs and the medians differ by more than the base's
own quartile spread; `regression` when the head's median is worse than the
base's by more than the metric's bound; `unresolved` when the base's spread
is wider than the bound; otherwise `same`. Below 10 pairs it gives no
verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
MIN_PAIRS = 10


def run_once(tree: Path, workload: str, seed: int, seconds: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree}: seed {seed} produced incorrect output:\n{proc.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def verdict(name: str, base: list[float], head: list[float]) -> tuple[float, str]:
    _, better, bound = END_TO_END[name]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head)) / len(base)
    if len(base) < MIN_PAIRS:
        return wins, f"no verdict below {MIN_PAIRS} pairs"
    q1, b_med, q3 = statistics.quantiles(base, n=4)
    h_med = statistics.median(head)
    if sign * (b_med - h_med) > bound * b_med:
        return wins, "regression"
    if (q3 - q1) > bound * b_med:
        return wins, "unresolved"
    if wins >= 0.9 and abs(h_med - b_med) > q3 - q1:
        return wins, "gain" if sign * (h_med - b_med) > 0 else "regression"
    return wins, "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--head", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    base: dict[str, list[float]] = {name: [] for name in END_TO_END}
    head: dict[str, list[float]] = {name: [] for name in END_TO_END}
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = [(args.base, base), (args.head, head)]
        for tree, into in sides if i % 2 == 0 else sides[::-1]:
            for name, value in run_once(tree, args.workload, seed, args.seconds).items():
                into[name].append(value)
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs, base {args.base}, head {args.head}")
    for name, (unit, better, bound) in END_TO_END.items():
        b, h = base[name], head[name]
        qb, qh = statistics.quantiles(b, n=4), statistics.quantiles(h, n=4)
        wins, call = verdict(name, b, h)
        print(
            f"  {name:<12} {unit:<4} base {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]  "
            f"head {qh[1]:.4g} [{qh[0]:.4g}, {qh[2]:.4g}]  head/base {qh[1] / qb[1]:.3f}  "
            f"head wins {wins:.0%}  ({better} is better, bound {bound:.0%})  {call}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
