"""Workload table and metric definitions of the profilebench benchmark.

Each workload is one closed batch job: one process at a time, one job in
flight, BLAS pinned to one thread. Its pipeline config is derived from
``configs/desk.json`` plus the workload seed, and the program sees only
that generated config. This module imports no numpy, so the orchestrator
that times the phases stays small.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

# Pinned before numpy is imported in every workload process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A balance target above every class total, so balancing keeps every game.
# At these corpus sizes desk's automatic target (the smallest class total)
# keeps one to four games of most profiles, which leaves the val or test
# split empty for some seeds, and makes the training and scoring work hinge
# on the smallest class of one seed.
KEEP_EVERY_GAME = 1_000_000

SETUP_REPEATS = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 2  # timed rounds per run; outputs must match byte for byte
# Set-ups and untraced rounds time a fixed reference task this often while
# they run; see END_TO_END.
SAMPLE_INTERVAL_S = 0.4
# Reference task -> its nominal time: about its median on the 2-vCPU Xeon
# where the benchmark was defined. The interpreter task tracks the corpus
# stages' speed best, the LSTM task the training and scoring stages'.
REFERENCE_NOMINAL_S = {"interpreter": 0.015, "lstm": 0.020}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    games_per_profile: int
    setup_stages: tuple[str, ...]
    timed_stages: tuple[str, ...]
    item: str  # what items_per_s counts on this workload
    reference: str  # key of REFERENCE_NOMINAL_S
    overrides: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="corpus",
            why="simulate, featurize, balance and split a corpus: simulator, textgen, hashing, featurizer and PBF writes, no model code",
            games_per_profile=6,
            setup_stages=(),
            timed_stages=("gen", "featurize", "balance", "split"),
            item="decisions",
            reference="interpreter",
        ),
        Workload(
            name="ladder",
            why="train, evaluate and report all 8 ladder rows for a fixed epoch count: LSTM forward+backward, Adam, checkpoint writes",
            games_per_profile=5,
            setup_stages=("gen", "featurize", "balance", "split"),
            timed_stages=("train", "eval", "report"),
            item="train_windows",
            reference="lstm",
            train={"epochs": 2, "patience": 2},
        ),
        Workload(
            name="infer",
            why="score every stride-1 test window of 7 trained rows: PBF reads, checkpoint loads, forward-only LSTM",
            games_per_profile=4,
            setup_stages=("gen", "featurize", "balance", "split", "train"),
            timed_stages=("eval", "report"),
            item="infer_windows",
            reference="lstm",
            overrides={
                "stride": 1,
                "split": {"train": 0.25, "val": 0.25, "test": 0.5},
            },
            train={"epochs": 1, "patience": 1},
        ),
    )
}


def make_config(desk: dict, workload: Workload, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """The pipeline config a workload hands to the program."""
    cfg = copy.deepcopy(desk)
    cfg.update(workload.overrides)
    cfg["master_seed"] = seed
    cfg["out_dir"] = out_dir
    cfg["games_per_profile"] = workload.games_per_profile
    cfg["balance_target"] = KEEP_EVERY_GAME
    cfg["threads"] = 1
    cfg["deterministic"] = True
    cfg["train"] = {**cfg.get("train", {}), **workload.train}
    if tiny and workload.train:
        cfg["train"].update(epochs=1, patience=1)
    return cfg


# name -> (unit, better, bound): what `--trace 0` reports.
#
# A shared machine's speed drifts by 10-30% over tens of seconds, so times
# are calibrated: measured seconds x nominal / measured time of the
# workload's reference task, sampled every SAMPLE_INTERVAL_S in the same
# process while the phase runs. The summary also prints raw seconds.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "items_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "artifact_mb": ("MB", "lower", 0.2),
}
