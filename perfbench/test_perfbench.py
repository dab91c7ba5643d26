"""Self-tests of the benchmark harness.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

The smoke tests run every workload at tiny scale, traced, from the root of
this source tree (about a minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402

ROOT = HERE.parent


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_self_time_of_nested_spans():
    # stage [0, 10] holds a [1, 4] (which holds [2, 3]) and b [5, 6]
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (9.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_stage_span_equals_self_times_of_its_subtree():
    doc = {
        "names": ["pipeline.stage_gen", "simulator.play_game", "textgen.render_text"],
        "spans": [[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [2, 2.0, 3.0, 1], [1, 5.0, 6.0, 0]],
        "counters": {},
    }
    metrics, problems = tracing.summarize(doc)
    assert problems == []
    assert metrics["pipeline.stage_gen.s"] == 10.0
    assert metrics["pipeline.stage_gen.unattributed_s"] == 6.0
    assert metrics["simulator.play_game.calls"] == 2
    assert metrics["simulator.play_game.self_s"] == 3.0
    assert metrics["textgen.render_text.self_s"] == 1.0


def test_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracing.per_layer_metrics()
    assert bench["paths"] == [HERE.name]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_traced_run_prints_every_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = tracing.per_layer_metrics()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: u for k, (u, _) in units.items()}
    summary = "\n".join(lines[:-1])
    printed = dict(line.split()[:3:2] for line in lines[1:] if len(line.split()) > 2)
    for name, (unit, _, _) in END_TO_END.items():
        assert printed[name] == unit
    assert printed[f"raw_{WORKLOADS[workload].item}_per_s"] == "1/s"
    assert "error_rate" in summary and "tracing overhead" in summary


def test_fails_without_the_program():
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=base))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1", cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
        if not any(base.iterdir()):
            base.rmdir()
