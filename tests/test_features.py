"""Feature extraction checked against a test-local naive reimplementation.

The oracle here recomputes every prefix from scratch with plain Python
loops and math.log, deliberately sharing no code with the package. If the
two implementations agree to 1e-12 across crafted and simulated sessions,
a shared bug would have to be present in both independently.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from profilebench.errors import IndexOutOfRange, SchemaMismatch
from profilebench.features import (
    BEHAVIORAL_SLOT_NAMES,
    N_BEHAVIORAL,
    N_LEGACY,
    N_TOTAL,
    SCHEMA_VERSION,
    FeatureFileWriter,
    SequenceSample,
    aggregate_features,
    behavioral_matrix,
    embed_text,
    embed_tokens,
    featurize_decision,
    featurize_game,
    featurize_game_legacy,
    featurize_legacy_530,
    movement_features,
    read_aggregate_csv,
    read_feature_file,
    scan_feature_file,
    temporal_features,
    tokenize,
    transition_features,
    write_aggregate_csv,
    write_feature_file,
)
from profilebench.hashing import fnv1a64
from profilebench.simulator import (
    ActionCategory,
    ActionInstance,
    DecisionPoint,
    Outcome,
    Session,
    SimConfig,
    build_dungeon,
    play_game,
)
from profilebench.taxonomy import Motivation, Profile

# --- independent oracle ------------------------------------------------------

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _oracle_fnv(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def _oracle_embed(text: str, n_buckets: int) -> list[float]:
    words = re.findall(r"[a-z0-9]+", text.lower())
    tokens = words + [a + " " + b for a, b in zip(words, words[1:])]
    v = [0.0] * n_buckets
    for tok in tokens:
        raw = tok.encode("utf-8")
        bucket = _oracle_fnv(b"b:" + raw) % n_buckets
        sign = 1.0 - 2.0 * (_oracle_fnv(b"s:" + raw) & 1)
        v[bucket] += sign
    norm = math.sqrt(sum(x * x for x in v))
    return [x / norm for x in v] if norm > 0 else v


def _oracle_behavioral(prefix, rooms: int, dist_norm: float) -> list[float]:
    n = len(prefix)
    cats = [d.available[d.chosen].category.value for d in prefix]
    out: list[float] = []

    pairs = list(zip(cats, cats[1:]))
    self_counts = [0] * 5
    cross = {(i, j): 0 for i in range(5) for j in range(i + 1, 5)}
    for a, b in pairs:
        if a == b:
            self_counts[a] += 1
        else:
            cross[(min(a, b), max(a, b))] += 1
    if pairs:
        out += [c / len(pairs) for c in self_counts]
        out += [cross[k] / len(pairs) for k in sorted(cross)]
    else:
        out += [0.0] * 15

    avail = [0] * 5
    for d in prefix:
        for c in {a.category.value for a in d.available}:
            avail[c] += 1
    sel = [cats.count(c) for c in range(5)]
    out += [avail[c] / n for c in range(5)]
    out += [sel[c] / avail[c] if avail[c] else 0.0 for c in range(5)]
    out.append(sum(len(d.available) for d in prefix) / n / 6.0)
    entropy = -sum(
        (sel[c] / n) * math.log(sel[c] / n) for c in range(5) if sel[c]
    )
    out.append(entropy / math.log(5))

    b, r = divmod(n, 3)
    sizes = [b, b + (1 if r == 2 else 0), b + (1 if r >= 1 else 0)]
    cursor = 0
    for size in sizes:
        segment = cats[cursor : cursor + size]
        cursor += size
        out += [segment.count(c) / size if size else 0.0 for c in range(5)]

    path = [prefix[0].room]
    deltas = []
    for d in prefix:
        a = d.available[d.chosen]
        if a.move_delta is not None:
            x, y = path[-1]
            path.append((x + a.move_delta[0], y + a.move_delta[1]))
            deltas.append(a.move_delta)
    m = len(deltas)
    unique = len(set(path))
    sx, sy = path[0]
    out.append(unique / rooms)
    out.append(1.0 - unique / (m + 1) if m else 0.0)
    out.append(sum(abs(x - sx) + abs(y - sy) for x, y in path) / (m + 1) / dist_norm)
    out.append((abs(path[-1][0] - sx) + abs(path[-1][1] - sy)) / m if m else 0.0)
    turns = sum(1 for p, q in zip(deltas, deltas[1:]) if p != q)
    backs = sum(1 for p, q in zip(deltas, deltas[1:]) if q == (-p[0], -p[1]))
    out.append(turns / (m - 1) if m > 1 else 0.0)
    out.append(backs / (m - 1) if m > 1 else 0.0)
    return out


# --- crafted sessions --------------------------------------------------------


def _action(cat: ActionCategory, move=None, text="do the thing") -> ActionInstance:
    return ActionInstance(
        category=cat,
        moral_valence=0.1,
        order_score=0.0,
        motivation_affinity={m: 0.0 for m in Motivation},
        text=text,
        move_delta=move,
    )


_MOVES = {"east": (1, 0), "west": (-1, 0), "north": (0, -1), "south": (0, 1)}


def _menu() -> list[ActionInstance]:
    return [
        _action(ActionCategory.COMBAT, text="fight it"),
        _action(ActionCategory.SOCIAL, text="say hello"),
        _action(ActionCategory.ACQUISITIVE, text="grab loot"),
        _action(ActionCategory.EXPLORATORY, move=_MOVES["east"], text="go east"),
        _action(ActionCategory.EXPLORATORY, move=_MOVES["west"], text="go west"),
        _action(ActionCategory.CAUTIOUS, text="wait and rest"),
    ]


def _session(choices: list[int], profile="TN-Safety") -> Session:
    """Session walking a fixed 6-action menu; position follows chosen moves."""
    pos = (2, 2)
    decisions = []
    for step, pick in enumerate(choices):
        menu = _menu()
        decisions.append(
            DecisionPoint(
                step=step,
                room=pos,
                available=tuple(menu),
                chosen=pick,
                room_text=f"a dim room numbered {step}",
                action_text=menu[pick].text,
            )
        )
        chosen = menu[pick]
        if chosen.move_delta:
            pos = (pos[0] + chosen.move_delta[0], pos[1] + chosen.move_delta[1])
    return Session(
        game_id=1,
        profile=Profile.from_code(profile),
        seed=0,
        decisions=tuple(decisions),
        outcome=Outcome.STEP_LIMIT,
    )


_DUNGEON = build_dungeon(0, SimConfig())


# --- hashing / embedding -----------------------------------------------------


def test_fnv_known_vectors():
    # published FNV-1a 64-bit test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8
    assert _oracle_fnv(b"foobar") == fnv1a64(b"foobar")


def test_tokenize_unigrams_then_bigrams():
    assert tokenize("The Goblin waits!") == ["the", "goblin", "waits", "the goblin", "goblin waits"]
    assert tokenize("") == []
    assert tokenize("one") == ["one"]


def test_embed_empty_is_zero():
    assert not embed_text("", 128).any()
    assert not embed_text("   \t ", 128).any()


def test_embed_unit_norm_and_determinism():
    v1 = embed_text("a goblin sharpens a rusty knife", 128)
    v2 = embed_text("a goblin sharpens a rusty knife", 128)
    np.testing.assert_array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_buckets", [128, 512])
def test_embed_matches_oracle(n_buckets):
    texts = [
        "the merchant smiles and counts coins",
        "Mossy walls drip. A monster snores in the corner!",
        "go east",
        "x",
    ]
    for text in texts:
        np.testing.assert_allclose(
            embed_text(text, n_buckets), _oracle_embed(text, n_buckets), atol=1e-12
        )


# --- pinned single-group examples ---------------------------------------------


def test_single_decision_transitions_are_zero():
    s = _session([0])
    assert not transition_features(s.decisions).any()


def test_repeated_combat_self_transition():
    s = _session([0, 0, 0])
    v = transition_features(s.decisions)
    assert v[ActionCategory.COMBAT.value] == 1.0
    assert v.sum() == 1.0


def test_alternating_cross_transition():
    s = _session([0, 1, 0, 1])  # combat, social, combat, social
    v = transition_features(s.decisions)
    # unordered pair (combat=0, social=1) is the first cross slot
    assert v[5] == 1.0
    assert v.sum() == 1.0


def test_east_west_backtrack():
    s = _session([3, 4])  # east then west
    v = movement_features(s.decisions, _DUNGEON)
    coverage, revisit, mean_dist, net, turns, backtrack = v
    assert net == 0.0
    assert backtrack == 1.0
    assert turns == 1.0
    assert revisit == pytest.approx(1.0 - 2.0 / 3.0)


def test_three_east_moves():
    s = _session([3, 3, 3])
    v = movement_features(s.decisions, _DUNGEON)
    coverage, revisit, mean_dist, net, turns, backtrack = v
    assert coverage == pytest.approx(4 / 36)
    assert revisit == 0.0
    # path distances 0,1,2,3 from start; mean 1.5 over the max 10
    assert mean_dist == pytest.approx(1.5 / 10)
    assert net == 1.0
    assert turns == 0.0 and backtrack == 0.0


def test_no_movement_row():
    s = _session([0, 1, 5])
    v = movement_features(s.decisions, _DUNGEON)
    np.testing.assert_allclose(v, [1 / 36, 0, 0, 0, 0, 0], atol=1e-15)


def test_temporal_phases_two_then_four():
    s = _session([0, 0, 1, 1, 1, 1])  # 2 combat then 4 social
    v = temporal_features(s.decisions)
    phase = v.reshape(3, 5)
    assert phase[0][ActionCategory.COMBAT.value] == 1.0
    assert phase[1][ActionCategory.SOCIAL.value] == 1.0
    assert phase[2][ActionCategory.SOCIAL.value] == 1.0


def test_temporal_single_decision_lands_in_last_phase():
    s = _session([2])
    phase = temporal_features(s.decisions).reshape(3, 5)
    assert not phase[0].any() and not phase[1].any()
    assert phase[2][ActionCategory.ACQUISITIVE.value] == 1.0


def test_entropy_extremes():
    ent_idx = BEHAVIORAL_SLOT_NAMES.index("selection_entropy")
    same = featurize_decision(_session([0, 0, 0, 0]), 3, _DUNGEON).values
    assert same[ent_idx] == 0.0
    balanced = featurize_decision(_session([0, 1, 2, 3, 5]), 4, _DUNGEON).values
    assert balanced[ent_idx] == pytest.approx(1.0)


# --- oracle agreement ---------------------------------------------------------


def test_crafted_session_matches_oracle_everywhere():
    s = _session([0, 3, 1, 3, 4, 2, 5, 3, 0, 4])
    mat = behavioral_matrix(s, _DUNGEON)
    for t in range(s.length):
        expected = _oracle_behavioral(s.decisions[: t + 1], 36, 10.0)
        np.testing.assert_allclose(mat[t], expected, atol=1e-12)


def test_simulated_sessions_match_oracle():
    cfg = SimConfig()
    for seed in range(4):
        session = play_game(Profile.from_index(seed * 9 + 3), seed=seed, config=cfg)
        dungeon = build_dungeon(session.seed, cfg)
        mat = behavioral_matrix(session, dungeon)
        for t in range(session.length):
            expected = _oracle_behavioral(session.decisions[: t + 1], 36, 10.0)
            np.testing.assert_allclose(mat[t], expected, atol=1e-12)


def test_full_vector_is_behavioral_then_text():
    s = _session([0, 3, 1])
    full = featurize_game(s, _DUNGEON)
    assert full.shape == (3, N_TOTAL)
    behav = behavioral_matrix(s, _DUNGEON)
    np.testing.assert_array_equal(full[:, :N_BEHAVIORAL], behav)
    for t, d in enumerate(s.decisions):
        text = embed_text(d.room_text + " " + d.action_text, 128)
        np.testing.assert_allclose(full[t, N_BEHAVIORAL:], text, atol=1e-12)
        row = featurize_decision(s, t, _DUNGEON).values
        np.testing.assert_array_equal(row, full[t])


def test_prefix_truncation_equivalence():
    long = _session([0, 3, 1, 3, 4, 2])
    short = _session([0, 3, 1])
    np.testing.assert_array_equal(
        featurize_game(long, _DUNGEON)[:3], featurize_game(short, _DUNGEON)
    )


def test_legacy_layout():
    s = _session([0, 3, 1])
    legacy = featurize_legacy_530(s, 2, _DUNGEON)
    assert legacy.shape == (N_LEGACY,)
    text = embed_text(s.decisions[2].room_text + " " + s.decisions[2].action_text, 512)
    np.testing.assert_allclose(legacy[:512], text, atol=1e-12)
    behav = behavioral_matrix(s, _DUNGEON)
    np.testing.assert_array_equal(legacy[512:], behav[2, :18])
    game = featurize_game_legacy(s, _DUNGEON)
    assert game.shape == (3, N_LEGACY)
    np.testing.assert_array_equal(game[2], legacy)


def test_aggregate_features_layout():
    s = _session([0, 3, 1, 4])
    agg = aggregate_features(s, _DUNGEON, max_steps=40)
    assert agg.values.shape == (52,)
    np.testing.assert_allclose(
        agg.values[:48], _oracle_behavioral(s.decisions, 36, 10.0), atol=1e-12
    )
    assert agg.values[48] == pytest.approx(4 / 40)  # length fraction
    assert agg.values[49] == 0.0 and agg.values[50] == 0.0  # no exit, no death
    assert agg.values[51] == pytest.approx(1.0)  # six options every step
    died = Session(
        game_id=2, profile=s.profile, seed=0, decisions=s.decisions, outcome=Outcome.DIED
    )
    assert aggregate_features(died, _DUNGEON, max_steps=40).values[50] == 1.0


def test_empty_prefix_rejected():
    with pytest.raises(IndexOutOfRange):
        transition_features(())
    empty = Session(
        game_id=0,
        profile=Profile.from_index(0),
        seed=0,
        decisions=(),
        outcome=Outcome.STEP_LIMIT,
    )
    with pytest.raises(IndexOutOfRange):
        aggregate_features(empty, _DUNGEON, max_steps=40)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24))
def test_behavioral_features_bounded(choices):
    mat = behavioral_matrix(_session(choices), _DUNGEON)
    assert np.isfinite(mat).all()
    assert (mat >= 0.0).all() and (mat <= 1.0 + 1e-12).all()


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24))
def test_behavioral_matches_oracle_property(choices):
    s = _session(choices)
    mat = behavioral_matrix(s, _DUNGEON)
    expected = _oracle_behavioral(s.decisions, 36, 10.0)
    np.testing.assert_allclose(mat[-1], expected, atol=1e-12)


# --- files --------------------------------------------------------------------


def _samples() -> list[SequenceSample]:
    out = []
    for gid, choices in enumerate([[0, 3, 1], [2, 4], [0, 1, 2, 3, 4, 5]]):
        s = _session(choices, profile=Profile.from_index(gid * 7).code)
        s = Session(
            game_id=gid, profile=s.profile, seed=0, decisions=s.decisions, outcome=s.outcome
        )
        out.append(
            SequenceSample(
                game_id=gid,
                profile=s.profile,
                window=(0, s.length),
                matrix=featurize_game(s, _DUNGEON),
            )
        )
    return out


def test_feature_file_roundtrip(tmp_path):
    path = tmp_path / "x.pbf"
    samples = _samples()
    n = write_feature_file(path, samples, dim=N_TOTAL)
    assert n == 3
    loaded, header = read_feature_file(path)
    assert header["n_samples"] == 3
    assert header["dim"] == N_TOTAL
    assert header["schema_version"] == SCHEMA_VERSION
    assert header["max_T"] == 6
    for orig, back in zip(samples, loaded):
        assert back.game_id == orig.game_id
        assert back.profile == orig.profile
        np.testing.assert_array_equal(back.matrix, orig.matrix.astype(np.float32))
    scanned = scan_feature_file(path)
    assert scanned == [(s.game_id, s.profile.index, s.matrix.shape[0]) for s in samples]


def test_feature_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pbf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(SchemaMismatch):
        read_feature_file(path)
    trunc = tmp_path / "trunc.pbf"
    good = tmp_path / "good.pbf"
    write_feature_file(good, _samples(), dim=N_TOTAL)
    trunc.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(SchemaMismatch):
        read_feature_file(trunc)
    # cut inside a record header, not just inside a payload
    partial = tmp_path / "partial.pbf"
    partial.write_bytes(good.read_bytes()[:25])
    with pytest.raises(SchemaMismatch):
        read_feature_file(partial)
    with pytest.raises(SchemaMismatch):
        scan_feature_file(partial)


def test_feature_file_writer_removes_partial_file_on_error(tmp_path):
    path = tmp_path / "partial.pbf"
    with pytest.raises(RuntimeError):
        with FeatureFileWriter(path, N_TOTAL) as writer:
            writer.add(_samples()[0])
            raise RuntimeError("featurizer failed mid-file")
    assert not path.exists()


def test_feature_file_rejects_trailing_bytes(tmp_path):
    good = tmp_path / "good.pbf"
    write_feature_file(good, _samples(), dim=N_TOTAL)
    # a 0-sample header followed by a record, as an interrupted writer left it
    stale = tmp_path / "stale.pbf"
    write_feature_file(stale, [], dim=N_TOTAL)
    header_size = stale.stat().st_size
    one = tmp_path / "one.pbf"
    write_feature_file(one, _samples()[:1], dim=N_TOTAL)
    for path, extra in ((good, b"\x00"), (stale, one.read_bytes()[header_size:])):
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(SchemaMismatch):
            read_feature_file(path)
        with pytest.raises(SchemaMismatch):
            scan_feature_file(path)


def test_aggregate_csv_roundtrip(tmp_path):
    path = tmp_path / "agg.csv"
    rows = []
    for gid, choices in enumerate([[0, 3], [1, 1, 4], [5, 2, 0, 3]]):
        profile = Profile.from_index(gid * 11)
        s = _session(choices, profile=profile.code)
        s = Session(
            game_id=gid, profile=profile, seed=0, decisions=s.decisions, outcome=s.outcome
        )
        rows.append((gid, profile, aggregate_features(s, _DUNGEON, max_steps=40)))
    write_aggregate_csv(path, rows)
    X, y, ids = read_aggregate_csv(path)
    assert X.shape == (3, 52)
    assert ids == [0, 1, 2]
    assert list(y) == [0, 11, 22]
    for i, (_, _, agg) in enumerate(rows):
        np.testing.assert_allclose(X[i], agg.values, atol=0)  # repr() roundtrips exactly
