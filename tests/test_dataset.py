"""Windowing, whole-game balancing, and leak-free splits."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profilebench.dataset import (
    CorpusIndex,
    GameEntry,
    SplitSpec,
    auto_target,
    balance,
    build_index,
    read_index,
    read_splits,
    split_by_game,
    window_starts,
    write_index,
    write_splits,
)
from profilebench.errors import ConfigInvalid, EmptySplit, SchemaMismatch, TargetTooSmall
from profilebench.taxonomy import PROFILES, Profile


def test_window_starts_regular():
    assert window_starts(20, 8, 4) == [(0, 8), (4, 8), (8, 8), (12, 8)]
    assert window_starts(8, 8, 4) == [(0, 8)]
    assert window_starts(9, 8, 4) == [(0, 8)]
    assert window_starts(16, 8, 4) == [(0, 8), (4, 8), (8, 8)]


def test_window_starts_short_game_keeps_one_window():
    assert window_starts(5, 8, 4) == [(0, 5)]
    assert window_starts(1, 8, 4) == [(0, 1)]
    assert window_starts(0, 8, 4) == []


def test_window_starts_validation():
    with pytest.raises(ConfigInvalid):
        window_starts(10, 0, 4)
    with pytest.raises(ConfigInvalid):
        window_starts(10, 8, 0)


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
)
def test_window_starts_cover_without_overflow(length, window_len, stride):
    windows = window_starts(length, window_len, stride)
    for start, size in windows:
        assert start + size <= max(length, 0)
    if length >= window_len:
        assert windows[0] == (0, window_len)
        assert all(size == window_len for _, size in windows)
        # consecutive starts differ by exactly the stride
        starts = [s for s, _ in windows]
        assert starts == list(range(0, length - window_len + 1, stride))
    elif length > 0:
        assert windows == [(0, length)]


def _index(spec: dict[str, list[int]]) -> CorpusIndex:
    """spec: profile code -> list of per-game window counts."""
    gid = 0
    profiles = {}
    for code, counts in spec.items():
        entries = []
        for c in counts:
            entries.append(GameEntry(gid, c))
            gid += 1
        profiles[code] = entries
    return CorpusIndex(profiles=profiles)


def test_balance_trace_example():
    # 3 games x 10 windows, target 15: dropping games lands on exactly 10
    index = _index({"LG-Safety": [10, 10, 10]})
    out = balance(index, target_per_class=15, seed=0)
    assert out.total("LG-Safety") == 10
    assert len(out.profiles["LG-Safety"]) == 1


def test_balance_never_splits_games():
    index = _index({"LG-Safety": [7, 3, 5, 8], "CE-Wealth": [4, 4, 4]})
    out = balance(index, target_per_class=12, seed=3)
    for code, games in out.profiles.items():
        original = {g.game_id: g.n_windows for g in index.profiles[code]}
        for g in games:
            assert original[g.game_id] == g.n_windows
        assert out.total(code) <= 12


def test_balance_target_too_small():
    index = _index({"LG-Safety": [20, 3]})
    with pytest.raises(TargetTooSmall):
        balance(index, target_per_class=15, seed=0)


def test_balance_deterministic():
    index = _index({p.code: [5, 6, 7, 8] for p in PROFILES})
    a = balance(index, 13, seed=42)
    b = balance(index, 13, seed=42)
    assert {c: [g.game_id for g in games] for c, games in a.profiles.items()} == {
        c: [g.game_id for g in games] for c, games in b.profiles.items()
    }


def test_balance_classes_do_not_interact():
    solo = _index({"LG-Safety": [5, 6, 7, 8]})
    both = _index({"LG-Safety": [5, 6, 7, 8], "CE-Wealth": [9, 9]})
    # same game ids in the first class on purpose
    a = balance(solo, 13, seed=7)
    b = balance(both, 13, seed=7)
    assert [g.game_id for g in a.profiles["LG-Safety"]] == [
        g.game_id for g in b.profiles["LG-Safety"]
    ]


def test_auto_target():
    index = _index({"LG-Safety": [10, 10], "CE-Wealth": [3, 4], "TN-Speed": [25]})
    # smallest class totals 7, but one game holds 25 windows
    assert auto_target(index) == 25
    index2 = _index({"LG-Safety": [10, 10], "CE-Wealth": [3, 4]})
    assert auto_target(index2) == 10  # largest game outranks the smallest class
    index3 = _index({"LG-Safety": [5, 5], "CE-Wealth": [3, 4]})
    assert auto_target(index3) == 7
    assert balance(index3, auto_target(index3), seed=0).imbalance_ratio() <= 7 / 5


def test_imbalance_ratio():
    index = _index({"LG-Safety": [12], "CE-Wealth": [6]})
    assert index.imbalance_ratio() == 2.0
    balanced = balance(index, 12, seed=0)
    assert balanced.imbalance_ratio() == 2.0  # removal cannot go below one game


def test_build_index_counts_windows():
    safety = Profile.from_code("LG-Safety").index
    # one record per window, as scan_feature_file returns them: a 20-step game
    # cut into 4 windows and a 5-step game kept as one short window
    windows = [(1, safety, 5)] + [(0, safety, 8)] * 4
    index = build_index(windows)
    assert index.total("LG-Safety") == 5
    assert [g.game_id for g in index.profiles["LG-Safety"]] == [0, 1]  # id order
    assert index.total("CE-Wealth") == 0
    assert index.max_game_windows() == 4


def _full_games(games_per_profile=10) -> dict[str, list[int]]:
    """Each profile's game ids: consecutive blocks of `games_per_profile`."""
    return {
        p.code: list(range(k * games_per_profile, (k + 1) * games_per_profile))
        for k, p in enumerate(PROFILES)
    }


def _per_profile_counts(games: dict[str, list[int]], assignment: dict[int, str]) -> dict[str, list[int]]:
    """Per profile, how many of its games each split (train, val, test) got."""
    names = ("train", "val", "test")
    return {code: [sum(assignment[g] == name for g in ids) for name in names] for code, ids in games.items()}


def test_split_fractions_largest_remainder():
    games = _full_games(games_per_profile=10)
    spec = SplitSpec(train=0.8, val=0.1, test=0.1)
    assignment = split_by_game(games, spec, seed=1)
    assert _per_profile_counts(games, assignment) == {code: [8, 1, 1] for code in games}


def test_split_no_game_overlap():
    games = _full_games(games_per_profile=7)
    assignment = split_by_game(games, SplitSpec(), seed=5)
    # a dict maps each game once, so no game can sit in two splits
    assert sorted(assignment) == sorted(g for ids in games.values() for g in ids)
    assert set(assignment.values()) == {"train", "val", "test"}


def test_split_deterministic_and_seed_sensitive():
    games = _full_games(games_per_profile=10)
    a = split_by_game(games, SplitSpec(), seed=9)
    b = split_by_game(games, SplitSpec(), seed=9)
    c = split_by_game(games, SplitSpec(), seed=10)
    assert a == b
    assert a != c


def test_split_empty_raises():
    games = {p.code: [k] for k, p in enumerate(PROFILES)}  # 1 game per class
    with pytest.raises(EmptySplit, match="val split received no games"):
        split_by_game(games, SplitSpec(train=0.8, val=0.1, test=0.1), seed=0)


def test_split_spec_validation():
    with pytest.raises(ConfigInvalid):
        SplitSpec(train=0.9, val=0.1, test=0.1)
    with pytest.raises(ConfigInvalid):
        SplitSpec(train=1.0, val=0.0, test=0.0)
    SplitSpec()


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=4, max_value=12))
def test_split_leakage_property(seed, games_per_profile):
    games = _full_games(games_per_profile=games_per_profile)
    spec = SplitSpec(train=0.5, val=0.25, test=0.25)
    assignment = split_by_game(games, spec, seed)
    assert len(assignment) == 36 * games_per_profile
    assert set(assignment) == {g for ids in games.values() for g in ids}
    # per profile, each split's count is within one game of its share
    for counts in _per_profile_counts(games, assignment).values():
        assert sum(counts) == games_per_profile
        assert all(abs(n - games_per_profile * f) < 1 for n, f in zip(counts, (0.5, 0.25, 0.25)))


def test_index_file_roundtrip(tmp_path):
    index = _index({"LG-Safety": [5, 6], "CE-Wealth": [7]})
    path = tmp_path / "index.json"
    write_index(path, index, seed=77, target=11)
    doc = json.loads(path.read_text())
    assert doc["seed"] == 77 and doc["target"] == 11
    assert doc["profiles"]["LG-Safety"]["windows"] == 11
    assert read_index(path) == {"CE-Wealth": [2], "LG-Safety": [0, 1]}


def test_splits_file_roundtrip(tmp_path):
    assignment = {3: "train", 1: "val", 2: "test"}
    path = tmp_path / "splits.json"
    write_splits(path, assignment)
    assert read_splits(path) == assignment


# damaged balanced indexes: profile code -> its "games" entry. Each must be
# a SchemaMismatch, not a crash in `split` or a bad splits.json.
_DAMAGED_INDEX_GAMES = {
    "unknown_profile": {"XX-Foo": [0, 1]},
    "str_game": {"LG-Safety": [1, "b"]},
    "float_game": {"LG-Safety": [1.5]},
    "bool_game": {"LG-Safety": [True, 2]},
    "negative_game": {"LG-Safety": [-1]},
    "game_beyond_u64": {"LG-Safety": [2**64]},
    "games_string": {"LG-Safety": "12"},
    "game_in_two_profiles": {"LG-Safety": [0, 1], "CE-Wealth": [1]},
    "game_twice_in_a_profile": {"LG-Safety": [0, 0]},
}


# damaged splits.json keys: each is not a key `write_splits` writes, though
# int() parses all but the last two
_DAMAGED_SPLIT_KEYS = {
    "underscore_key": "1_0",
    "spaced_key": " 2",
    "negative_key": "-3",
    "plus_key": "+4",
    "leading_zero_key": "01",
    "non_ascii_digit_key": "\u0663",
    "key_beyond_u64": str(2**64),
    "empty_key": "",
    "float_key": "1.0",
}


@pytest.mark.parametrize(
    "damage", ["truncated", "missing_key", "unknown_split_name", *_DAMAGED_INDEX_GAMES, *_DAMAGED_SPLIT_KEYS]
)
def test_damaged_index_and_splits_name_the_file(tmp_path, damage):
    index_path = tmp_path / "index.json"
    splits_path = tmp_path / "splits.json"
    write_index(index_path, _index({"LG-Safety": [5, 6]}), seed=1, target=11)
    write_splits(splits_path, {3: "train", 1: "val"})
    damaged = [(read_splits, splits_path), (read_index, index_path)]
    if damage == "truncated":
        for path in (index_path, splits_path):
            path.write_bytes(path.read_bytes()[:-20])
    elif damage == "missing_key":
        index_path.write_text(json.dumps({"seed": 1, "target": 11}))
        splits_path.write_text(json.dumps(["train", "val"]))
    elif damage == "unknown_split_name":
        # a damaged upstream artifact, not a configuration error
        splits_path.write_text(json.dumps({"3": "train", "1": "validation"}))
        damaged = damaged[:1]
    elif damage in _DAMAGED_SPLIT_KEYS:
        splits_path.write_text(json.dumps({"3": "train", _DAMAGED_SPLIT_KEYS[damage]: "val"}))
        damaged = damaged[:1]
    else:
        profiles = {code: {"games": games, "windows": 11} for code, games in _DAMAGED_INDEX_GAMES[damage].items()}
        index_path.write_text(json.dumps({"profiles": profiles, "seed": 1, "target": 11}))
        damaged = damaged[1:]
    for read, path in damaged:
        with pytest.raises(SchemaMismatch, match=path.name):
            read(path)
