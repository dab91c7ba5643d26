"""Windowing, class balancing, and game-exclusive splits.

Balancing removes whole games, never individual windows, so every class
retains only complete games and the residual imbalance mirrors whole-game
granularity. Splits are stratified per profile and assigned at the game
level: the split is one game id -> split name map, from the draw to
splits.json, so windows of one game can never straddle train and test.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from profilebench.errors import ConfigInvalid, EmptySplit, TargetTooSmall
from profilebench.hashing import mix_seed, read_json, write_text_atomic
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


def split_by_game(games: Mapping[str, Sequence[int]], spec: SplitSpec, seed: int) -> dict[int, str]:
    """Each game id's split name, from each profile code's distinct game ids.
    Per profile, a permutation drawn from the profile's own seed is cut into
    train, val and test counts that follow the fractions to within one game."""
    out: dict[int, str] = {}
    for code, ids in games.items():
        rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "split", Profile.from_code(code).index)))
        order = rng.permutation(len(ids))
        cursor = 0
        for name, count in zip(_SPLIT_NAMES, _apportion(len(ids), (spec.train, spec.val, spec.test))):
            out.update((ids[i], name) for i in order[cursor : cursor + count])
            cursor += count
    for name in _SPLIT_NAMES:
        if name not in out.values():
            raise EmptySplit(f"{name} split received no games")
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
    write_text_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n", "index")


def read_index(path: str | Path) -> dict[str, list[int]]:
    """Each profile code's game ids as `write_index` wrote them, in file
    order. A key that is not a profile code, or game ids that are not
    distinct ints in [0, 2**64), raise SchemaMismatch naming the file."""

    def parse(doc: dict) -> dict[str, list[int]]:
        out = {}
        for code, entry in doc["profiles"].items():
            Profile.from_code(code)  # ValueError for an unknown code
            ids = entry["games"]
            # true equals 1, so each type is checked before the value
            if type(ids) is not list or not all(type(g) is int and 0 <= g < 2**64 for g in ids):
                raise ValueError(f"{code} games {ids!r} are not ints in [0, 2**64)")
            out[code] = ids
        twice = [g for g, n in Counter(g for ids in out.values() for g in ids).items() if n > 1]
        if twice:
            raise ValueError(f"game id {twice[0]} is listed more than once")
        return out

    return read_json(path, "balanced index", parse)


def write_splits(path: str | Path, assignment: Mapping[int, str]) -> None:
    doc = {str(k): assignment[k] for k in sorted(assignment)}
    write_text_atomic(path, json.dumps(doc, indent=2) + "\n", "split")


def read_splits(path: str | Path) -> dict[int, str]:
    """Each game id's split name as `write_splits` wrote it. A key that is
    not a game id in canonical decimal (ASCII digits, no sign, space or
    leading zero, below 2**64), or an unknown split name, raises
    SchemaMismatch naming the file."""

    def parse(doc: dict) -> dict[int, str]:
        out = {}
        for k, v in doc.items():
            if not (k.isascii() and k.isdigit() and str(int(k)) == k and int(k) < 2**64):
                raise ValueError(f"game id {k!r} is not a canonical decimal id")
            if v not in _SPLIT_NAMES:
                raise ValueError(f"unknown split name {v!r} for game {k}")
            out[int(k)] = v
        return out

    return read_json(path, "split", parse)
