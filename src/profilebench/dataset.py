"""Windowing, class balancing, and game-exclusive splits.

Balancing removes whole games, never individual windows, so every class
retains only complete games and the residual imbalance mirrors whole-game
granularity. Splits are stratified per profile and assigned at the game
level: windows of one game can never straddle train and test.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from profilebench.errors import ConfigInvalid, EmptySplit, IoFailure, TargetTooSmall
from profilebench.hashing import mix_seed, read_json
from profilebench.taxonomy import PROFILES, Profile


@dataclass
class GameEntry:
    game_id: int
    n_windows: int


@dataclass
class CorpusIndex:
    """Per-profile game lists with window counts."""

    profiles: dict[str, list[GameEntry]] = field(default_factory=dict)

    def total(self, code: str) -> int:
        return sum(g.n_windows for g in self.profiles.get(code, []))

    def totals(self) -> dict[str, int]:
        return {code: self.total(code) for code in self.profiles}

    def imbalance_ratio(self) -> float:
        totals = [t for t in self.totals().values() if t > 0]
        if not totals:
            return 1.0
        return max(totals) / min(totals)

    def game_ids(self) -> set[int]:
        return {g.game_id for games in self.profiles.values() for g in games}

    def max_game_windows(self) -> int:
        return max((g.n_windows for games in self.profiles.values() for g in games), default=0)


def window_starts(length: int, window_len: int, stride: int) -> list[tuple[int, int]]:
    """(start, length) pairs; short games yield one full-length window."""
    if window_len < 1 or stride < 1:
        raise ConfigInvalid(f"window_len and stride must be >= 1: ({window_len}, {stride})")
    if length < window_len:
        return [(0, length)] if length > 0 else []
    return [(s, window_len) for s in range(0, length - window_len + 1, stride)]


def build_index(windows: Iterable[tuple[int, int, int]]) -> CorpusIndex:
    """Index from one (game_id, profile_index, length) record per window, as
    `features.scan_feature_file` returns them; each profile lists its games
    in id order."""
    counts = Counter((game_id, profile_idx) for game_id, profile_idx, _ in windows)
    index = CorpusIndex(profiles={p.code: [] for p in PROFILES})
    for game_id, profile_idx in sorted(counts):
        index.profiles[PROFILES[profile_idx].code].append(GameEntry(game_id, counts[game_id, profile_idx]))
    return index


def balance(index: CorpusIndex, target_per_class: int, seed: int) -> CorpusIndex:
    """Remove uniformly random whole games until each class total <= target."""
    worst = index.max_game_windows()
    if worst > target_per_class:
        raise TargetTooSmall(
            f"target {target_per_class} below the largest single game ({worst} windows)"
        )
    out = CorpusIndex(profiles={})
    for code in index.profiles:
        games = list(index.profiles[code])
        total = sum(g.n_windows for g in games)
        rng = np.random.Generator(
            np.random.PCG64(mix_seed(seed, "balance", Profile.from_code(code).index))
        )
        while total > target_per_class:
            k = int(rng.integers(len(games)))
            total -= games[k].n_windows
            games.pop(k)
        out.profiles[code] = games
    return out


def auto_target(index: CorpusIndex) -> int:
    """Smallest safe balancing target: the floor of the smallest class,
    but never below the largest single game."""
    totals = [t for t in index.totals().values() if t > 0]
    floor = min(totals) if totals else 0
    return max(floor, index.max_game_windows())


@dataclass(frozen=True)
class SplitSpec:
    """Each split's share of every profile's games."""

    train: float = 0.7
    val: float = 0.15
    test: float = 0.15

    def __post_init__(self) -> None:
        fracs = (self.train, self.val, self.test)
        if any(f <= 0 for f in fracs):
            raise ConfigInvalid(f"split fractions must be positive: {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigInvalid(f"split fractions must sum to 1: {fracs}")


_SPLIT_NAMES = ("train", "val", "test")


def _apportion(n: int, fracs: tuple[float, float, float]) -> list[int]:
    """Largest-remainder apportionment of n items over three buckets."""
    quotas = [n * f for f in fracs]
    counts = [int(q) for q in quotas]
    remainders = sorted(
        range(3), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    return counts


def split_by_game(
    index: CorpusIndex, spec: SplitSpec, seed: int
) -> tuple[CorpusIndex, CorpusIndex, CorpusIndex]:
    """Stratified game-level split; per profile, counts follow the requested
    fractions to within one game."""
    parts = [CorpusIndex(profiles={}) for _ in range(3)]
    for code, games in index.profiles.items():
        if not games:
            for part in parts:
                part.profiles[code] = []
            continue
        rng = np.random.Generator(
            np.random.PCG64(mix_seed(seed, "split", Profile.from_code(code).index))
        )
        order = rng.permutation(len(games))
        counts = _apportion(len(games), (spec.train, spec.val, spec.test))
        cursor = 0
        for part, count in zip(parts, counts):
            part.profiles[code] = [games[i] for i in order[cursor : cursor + count]]
            cursor += count
    for part, name in zip(parts, _SPLIT_NAMES):
        if all(len(games) == 0 for games in part.profiles.values()):
            raise EmptySplit(f"{name} split received no games")
    return parts[0], parts[1], parts[2]


def split_assignment(
    train: CorpusIndex, val: CorpusIndex, test: CorpusIndex
) -> dict[int, str]:
    out: dict[int, str] = {}
    for part, name in zip((train, val, test), _SPLIT_NAMES):
        for games in part.profiles.values():
            for g in games:
                out[g.game_id] = name
    return out


# --- on-disk formats -------------------------------------------------------


def write_index(path: str | Path, index: CorpusIndex, seed: int, target: int) -> None:
    doc = {
        "profiles": {
            code: {
                "games": [g.game_id for g in games],
                "windows": sum(g.n_windows for g in games),
            }
            for code, games in sorted(index.profiles.items())
        },
        "seed": seed,
        "target": target,
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"index write failed: {exc}") from exc


def read_index(path: str | Path) -> CorpusIndex:
    """The index `write_index` wrote, each game's n_windows 0 (the file keeps totals)."""
    return read_json(
        path,
        "balanced index",
        lambda doc: CorpusIndex(
            profiles={
                code: [GameEntry(gid, 0) for gid in entry["games"]]
                for code, entry in doc["profiles"].items()
            }
        ),
    )


def write_splits(path: str | Path, assignment: Mapping[int, str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({str(k): assignment[k] for k in sorted(assignment)}, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"split write failed: {exc}") from exc


def read_splits(path: str | Path) -> dict[int, str]:
    def parse(doc: dict) -> dict[int, str]:
        out = {}
        for k, v in doc.items():
            if v not in _SPLIT_NAMES:
                raise ValueError(f"unknown split name {v!r} for game {k}")
            out[int(k)] = v
        return out

    return read_json(path, "split", parse)
