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
    split_assignment,
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


def _full_index(games_per_profile=10, windows=4) -> CorpusIndex:
    return _index({p.code: [windows] * games_per_profile for p in PROFILES})


def test_split_fractions_largest_remainder():
    index = _full_index(games_per_profile=10)
    spec = SplitSpec(train=0.8, val=0.1, test=0.1, seed=1)
    train, val, test = split_by_game(index, spec)
    for code in index.profiles:
        assert len(train.profiles[code]) == 8
        assert len(val.profiles[code]) == 1
        assert len(test.profiles[code]) == 1


def test_split_no_game_overlap():
    index = _full_index(games_per_profile=7)
    train, val, test = split_by_game(index, SplitSpec(seed=5))
    sets = [train.game_ids(), val.game_ids(), test.game_ids()]
    assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])
    assert sets[0] | sets[1] | sets[2] == index.game_ids()


def test_split_deterministic_and_seed_sensitive():
    index = _full_index(games_per_profile=10)
    a = split_by_game(index, SplitSpec(seed=9))
    b = split_by_game(index, SplitSpec(seed=9))
    c = split_by_game(index, SplitSpec(seed=10))
    assert a[0].game_ids() == b[0].game_ids()
    assert a[0].game_ids() != c[0].game_ids()


def test_split_empty_raises():
    index = _index({p.code: [4] for p in PROFILES})  # 1 game per class
    with pytest.raises(EmptySplit):
        split_by_game(index, SplitSpec(train=0.8, val=0.1, test=0.1, seed=0))


def test_split_spec_validation():
    with pytest.raises(ConfigInvalid):
        SplitSpec(train=0.9, val=0.1, test=0.1).validate()
    with pytest.raises(ConfigInvalid):
        SplitSpec(train=1.0, val=0.0, test=0.0).validate()
    SplitSpec().validate()


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**62), st.integers(min_value=4, max_value=12))
def test_split_leakage_property(seed, games_per_profile):
    index = _full_index(games_per_profile=games_per_profile)
    spec = SplitSpec(train=0.5, val=0.25, test=0.25, seed=seed)
    train, val, test = split_by_game(index, spec)
    assignment = split_assignment(train, val, test)
    assert len(assignment) == 36 * games_per_profile
    assert not train.game_ids() & val.game_ids()
    assert not train.game_ids() & test.game_ids()
    assert not val.game_ids() & test.game_ids()


def test_index_file_roundtrip(tmp_path):
    index = _index({"LG-Safety": [5, 6], "CE-Wealth": [7]})
    path = tmp_path / "index.json"
    write_index(path, index, seed=77, target=11)
    doc = json.loads(path.read_text())
    assert doc["seed"] == 77 and doc["target"] == 11
    assert doc["profiles"]["LG-Safety"]["windows"] == 11
    back = read_index(path)
    assert {code: [g.game_id for g in games] for code, games in back.profiles.items()} == {
        "LG-Safety": [0, 1],
        "CE-Wealth": [2],
    }


def test_splits_file_roundtrip(tmp_path):
    assignment = {3: "train", 1: "val", 2: "test"}
    path = tmp_path / "splits.json"
    write_splits(path, assignment)
    assert read_splits(path) == assignment


@pytest.mark.parametrize("damage", ["truncated", "missing_key", "unknown_split_name"])
def test_damaged_index_and_splits_name_the_file(tmp_path, damage):
    index_path = tmp_path / "index.json"
    splits_path = tmp_path / "splits.json"
    write_index(index_path, _index({"LG-Safety": [5, 6]}), seed=1, target=11)
    write_splits(splits_path, {3: "train", 1: "val"})
    if damage == "truncated":
        for path in (index_path, splits_path):
            path.write_bytes(path.read_bytes()[:-20])
    elif damage == "missing_key":
        index_path.write_text(json.dumps({"seed": 1, "target": 11}))
        splits_path.write_text(json.dumps(["train", "val"]))
    else:
        # a damaged upstream artifact, not a configuration error
        splits_path.write_text(json.dumps({"3": "train", "1": "validation"}))
    damaged = [(read_splits, splits_path)]
    if damage != "unknown_split_name":
        damaged.append((read_index, index_path))
    for read, path in damaged:
        with pytest.raises(SchemaMismatch, match=path.name):
            read(path)
