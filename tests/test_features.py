"""Feature extraction checked against a test-local naive reimplementation.

The oracle here recomputes every prefix from scratch with plain Python
loops and math.log, deliberately sharing no code with the package. If the
two implementations agree to 1e-12 across crafted and simulated sessions,
a shared bug would have to be present in both independently.
"""

import hashlib
import math
import re
import struct
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from profilebench.dataset import window_starts
from profilebench.errors import DegenerateData, DimensionMismatch, IndexOutOfRange, SchemaMismatch
from profilebench.features import (
    AGGREGATE_SLOT_NAMES,
    BEHAVIORAL_SLOT_NAMES,
    N_AVAIL_SELECT,
    N_BEHAVIORAL,
    N_BEHAVIORAL_LEGACY,
    N_LEGACY,
    N_MOVEMENT,
    N_TEMPORAL,
    N_TEXT,
    N_TEXT_LEGACY,
    N_TOTAL,
    N_TRANSITION,
    SCHEMA_VERSION,
    FeatureFileWriter,
    SequenceSample,
    _fold,
    _unit_rows,
    aggregate_features,
    behavioral_matrix,
    embed_tokens,
    read_feature_file,
    scan_feature_file,
)
from profilebench import features, pipeline, simulator
from profilebench.hashing import fnv1a64
from profilebench.pipeline import Paths, PipelineConfig, stage_featurize, stage_gen
from profilebench.simulator import (
    ActionCategory,
    ActionInstance,
    DecisionPoint,
    Outcome,
    Session,
    SimConfig,
    load_sessions,
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


def tokenize(text: str) -> list[str]:
    """The per-token path: lowercase word unigrams followed by space-joined bigrams."""
    words = re.findall(r"[a-z0-9]+", text.lower())
    return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


def _token_code(token: str) -> int:
    raw = token.encode("utf-8")
    return (fnv1a64(b"b:" + raw) % N_TEXT_LEGACY) << 1 | (fnv1a64(b"s:" + raw) & 1)


def _per_token_counts(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 128) and (T, 512) int64 counts as embed_tokens built them
    from `tokenize` and one code per token, before it cached sentences."""
    token_lists = [tokenize(text) for text in texts]
    codes = np.array([_token_code(t) for tokens in token_lists for t in tokens], dtype=np.intp)
    n = len(texts)
    rows = np.repeat(np.arange(n) * N_TEXT_LEGACY, [len(tokens) for tokens in token_lists])
    counts = np.bincount(rows + (codes >> 1), weights=1 - 2 * (codes & 1), minlength=n * N_TEXT_LEGACY)
    counts = counts.astype(np.int64).reshape(n, N_TEXT_LEGACY)
    return counts.reshape(n, N_TEXT_LEGACY // N_TEXT, N_TEXT).sum(axis=1), counts


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


def _action(cat: ActionCategory, move=None) -> ActionInstance:
    return ActionInstance(
        category=cat,
        moral_valence=0.1,
        order_score=0.0,
        motivation_affinity={m: 0.0 for m in Motivation},
        move_delta=move,
    )


_MOVES = {"east": (1, 0), "west": (-1, 0), "north": (0, -1), "south": (0, 1)}


_MENU_TEXTS = ("fight it", "say hello", "grab loot", "go east", "go west", "wait and rest")


def _menu() -> list[ActionInstance]:
    return [
        _action(ActionCategory.COMBAT),
        _action(ActionCategory.SOCIAL),
        _action(ActionCategory.ACQUISITIVE),
        _action(ActionCategory.EXPLORATORY, move=_MOVES["east"]),
        _action(ActionCategory.EXPLORATORY, move=_MOVES["west"]),
        _action(ActionCategory.CAUTIOUS),
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
                action_text=_MENU_TEXTS[pick],
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


_GRID = (SimConfig().width, SimConfig().height)  # the default dungeon

# feature groups within a behavioral row
_TRANSITION = slice(0, N_TRANSITION)
_TEMPORAL = slice(N_TRANSITION + N_AVAIL_SELECT, N_TRANSITION + N_AVAIL_SELECT + N_TEMPORAL)
_MOVEMENT = slice(N_BEHAVIORAL - N_MOVEMENT, N_BEHAVIORAL)


def _full_prefix(session: Session) -> np.ndarray:
    """Behavioral features over the whole session: the matrix's last row."""
    return behavioral_matrix(session, *_GRID)[-1]


def _counts(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 128) and (T, 512) counts: embed_tokens' counts, folded by
    the feature-file reader's `_fold` and as they are."""
    counts = embed_tokens(texts)
    return _fold(counts), counts


def _embed_rows(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 128) and (T, 512) float64 unit rows the feature-file reader
    makes of embed_tokens' counts, before its float32 cast."""
    return tuple(_unit_rows(counts.astype(np.float64)) for counts in _counts(texts))


def _embed(text: str, n_buckets: int) -> np.ndarray:
    """The n_buckets-wide embedding of `text` from the one-pass hashing."""
    e128, e512 = _embed_rows([text])
    return (e128 if n_buckets == N_TEXT else e512)[0]


def _text(decision: DecisionPoint) -> str:
    return decision.room_text + " " + decision.action_text


def _rows176(session: Session, width: int, height: int) -> np.ndarray:
    """A game's 176 rows as the reader rebuilds them, before its float32
    cast: 48 behavioral columns, then the unit text rows."""
    text = _embed_rows([_text(d) for d in session.decisions])[0]
    return np.hstack([behavioral_matrix(session, width, height), text])


def _rows530(session: Session, width: int, height: int) -> np.ndarray:
    """A game's 530 rows as the reader rebuilds them, before its float32
    cast: the unit text rows, then 18 behavioral columns."""
    text = _embed_rows([_text(d) for d in session.decisions])[1]
    behavioral = behavioral_matrix(session, width, height)[:, :N_BEHAVIORAL_LEGACY]
    return np.hstack([text, behavioral])


def _float_rows(behavioral: np.ndarray, counts: np.ndarray) -> dict[str, np.ndarray]:
    """The float32 rows the float feature files held for a game, by
    layout: its float64 counts as unit rows, stacked with its behavioral
    columns in the layout's column order, cast to <f4."""
    counts = counts.astype(np.float64)
    text128 = _unit_rows(counts.reshape(len(counts), N_TEXT_LEGACY // N_TEXT, N_TEXT).sum(axis=1))
    return {
        "176": np.hstack([behavioral, text128]).astype("<f4"),
        "530": np.hstack([_unit_rows(counts), behavioral[:, :N_BEHAVIORAL_LEGACY]]).astype("<f4"),
    }


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
    for text in ("", "   \t "):
        assert not any(v.any() for v in _counts([text]))
        assert not any(v.any() for v in _embed_rows([text]))


def test_embed_counts_are_the_signed_token_counts():
    texts = ["a goblin sharpens a rusty knife", "x x x", ""]
    for counts, n_buckets in zip(_counts(texts), (N_TEXT, N_TEXT_LEGACY)):
        assert counts.dtype == np.int64
        want = np.zeros((len(texts), n_buckets), dtype=np.int64)
        for t, text in enumerate(texts):
            for token in tokenize(text):
                raw = token.encode("utf-8")
                want[t, _oracle_fnv(b"b:" + raw) % n_buckets] += 1 - 2 * (_oracle_fnv(b"s:" + raw) & 1)
        np.testing.assert_array_equal(counts, want)
        assert abs(counts[1]).max() == 3  # "x" three times


def test_embed_unit_norm_and_determinism():
    text = "a goblin sharpens a rusty knife"
    for v1, v2 in zip(_embed_rows([text]), _embed_rows([text])):
        np.testing.assert_array_equal(v1, v2)
        assert np.linalg.norm(v1[0]) == pytest.approx(1.0, abs=1e-12)


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
            _embed(text, n_buckets), _oracle_embed(text, n_buckets), atol=1e-12
        )


def _per_token_embed(tokens: list[str], n_buckets: int) -> np.ndarray:
    """The per-token accumulation that one-pass hashing replaced."""
    v = np.zeros(n_buckets)
    for token in tokens:
        data = token.encode("utf-8")
        v[fnv1a64(b"b:" + data) % n_buckets] += 1.0 - 2.0 * (fnv1a64(b"s:" + data) & 1)
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def test_one_pass_embedding_is_bitwise_the_per_token_sum(small_corpus):
    texts = ["", "go east", "x x x x"]
    for session in load_sessions(Paths(small_corpus.out_dir).sessions):
        texts += [_text(d) for d in session.decisions]
    assert len(texts) > 300
    for text in texts:
        both = _embed_rows([text])
        for (got,), n_buckets in zip(both, (128, 512)):
            want = _per_token_embed(tokenize(text), n_buckets)
            assert got.tobytes() == want.tobytes(), text
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_game_embedding_is_bitwise_the_per_decision_oracle(small_corpus):
    games = [["go east", "", "x x x x", "   "], [""], []]
    for session in load_sessions(Paths(small_corpus.out_dir).sessions):
        games.append([_text(d) for d in session.decisions])
    for texts in games:
        e128, e512 = _embed_rows(texts)
        assert e128.shape == (len(texts), N_TEXT)
        assert e512.shape == (len(texts), N_TEXT_LEGACY)
        for got, n_buckets in ((e128, N_TEXT), (e512, N_TEXT_LEGACY)):
            want = np.array([_per_token_embed(tokenize(t), n_buckets) for t in texts])
            assert got.tobytes() == want.reshape(got.shape).tobytes()
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want.reshape(got.shape)))


# Texts whose ". " splits reach every case of the sentence cache.
_EDGE_TEXTS = [
    "",
    "no break in this text",
    ". a break first",
    "a break last. ",
    "two.. dots.. here",
    "..",
    ". ",
    ". . . ",
    "a. !?. b",  # a piece with no word characters between two worded ones
    "a. . b",  # an empty piece between two worded ones
    "UPPER Case. digits 42 and 7b. MiXeD9 words",
    "x. x. x",
]


def _assert_counts_are_the_oracle(texts: list[str]) -> None:
    for got, want in zip(_counts(texts), _per_token_counts(texts)):
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), texts


def test_sentence_cached_counts_are_bitwise_the_per_token_oracle(small_corpus, monkeypatch):
    games = [_EDGE_TEXTS, [t for t in _EDGE_TEXTS for _ in range(2)], [], [""]]
    for session in load_sessions(Paths(small_corpus.out_dir).sessions):
        games.append([_text(d) for d in session.decisions])
    for texts in games:
        _assert_counts_are_the_oracle(texts)

    # every piece is cached now: a second pass reads only the cache
    def refuse(piece):
        raise AssertionError(f"piece {piece!r} tokenized twice")

    monkeypatch.setattr(features, "_piece", refuse)
    for texts in games:
        _assert_counts_are_the_oracle(texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="aZ9 .!\u00e9\u0130\u212a", max_size=30), max_size=4))
def test_sentence_cached_counts_match_the_oracle_on_any_text(texts):
    # U+0130 and U+212A (Kelvin) lowercase to ASCII letters
    _assert_counts_are_the_oracle(texts)


# --- pinned single-group examples ---------------------------------------------


def test_single_decision_transitions_are_zero():
    s = _session([0])
    assert not _full_prefix(s)[_TRANSITION].any()


def test_repeated_combat_self_transition():
    s = _session([0, 0, 0])
    v = _full_prefix(s)[_TRANSITION]
    assert v[ActionCategory.COMBAT.value] == 1.0
    assert v.sum() == 1.0


def test_alternating_cross_transition():
    s = _session([0, 1, 0, 1])  # combat, social, combat, social
    v = _full_prefix(s)[_TRANSITION]
    # unordered pair (combat=0, social=1) is the first cross slot
    assert v[5] == 1.0
    assert v.sum() == 1.0


def test_east_west_backtrack():
    s = _session([3, 4])  # east then west
    v = _full_prefix(s)[_MOVEMENT]
    coverage, revisit, mean_dist, net, turns, backtrack = v
    assert net == 0.0
    assert backtrack == 1.0
    assert turns == 1.0
    assert revisit == pytest.approx(1.0 - 2.0 / 3.0)


def test_three_east_moves():
    s = _session([3, 3, 3])
    v = _full_prefix(s)[_MOVEMENT]
    coverage, revisit, mean_dist, net, turns, backtrack = v
    assert coverage == pytest.approx(4 / 36)
    assert revisit == 0.0
    # path distances 0,1,2,3 from start; mean 1.5 over the max 10
    assert mean_dist == pytest.approx(1.5 / 10)
    assert net == 1.0
    assert turns == 0.0 and backtrack == 0.0


def test_no_movement_row():
    s = _session([0, 1, 5])
    v = _full_prefix(s)[_MOVEMENT]
    np.testing.assert_allclose(v, [1 / 36, 0, 0, 0, 0, 0], atol=1e-15)


def test_temporal_phases_two_then_four():
    s = _session([0, 0, 1, 1, 1, 1])  # 2 combat then 4 social
    phase = _full_prefix(s)[_TEMPORAL].reshape(3, 5)
    assert phase[0][ActionCategory.COMBAT.value] == 1.0
    assert phase[1][ActionCategory.SOCIAL.value] == 1.0
    assert phase[2][ActionCategory.SOCIAL.value] == 1.0


def test_temporal_single_decision_lands_in_last_phase():
    s = _session([2])
    phase = _full_prefix(s)[_TEMPORAL].reshape(3, 5)
    assert not phase[0].any() and not phase[1].any()
    assert phase[2][ActionCategory.ACQUISITIVE.value] == 1.0


def test_entropy_extremes():
    ent_idx = BEHAVIORAL_SLOT_NAMES.index("selection_entropy")
    same = _full_prefix(_session([0, 0, 0, 0]))
    assert same[ent_idx] == 0.0
    balanced = _full_prefix(_session([0, 1, 2, 3, 5]))
    assert balanced[ent_idx] == pytest.approx(1.0)


# --- oracle agreement ---------------------------------------------------------


def test_crafted_session_matches_oracle_everywhere():
    s = _session([0, 3, 1, 3, 4, 2, 5, 3, 0, 4])
    mat = behavioral_matrix(s, *_GRID)
    for t in range(s.length):
        expected = _oracle_behavioral(s.decisions[: t + 1], 36, 10.0)
        np.testing.assert_allclose(mat[t], expected, atol=1e-12)


def test_simulated_sessions_match_oracle():
    cfg = SimConfig()
    for seed in range(4):
        session = play_game(Profile.from_index(seed * 9 + 3), seed=seed, config=cfg)
        mat = behavioral_matrix(session, cfg.width, cfg.height)
        for t in range(session.length):
            expected = _oracle_behavioral(session.decisions[: t + 1], 36, 10.0)
            np.testing.assert_allclose(mat[t], expected, atol=1e-12)


# --- per-step reference ---------------------------------------------------------
#
# The per-row featurizer behavioral_matrix replaced: one decision pushed at a
# time, each row read from running counts. behavioral_matrix builds a game's
# rows at once from cumulative sums and must give every row the same bits.

_REF_PAIRS = [(a, b) for a in range(5) for b in range(a + 1, 5)]
_REF_CROSS_SLOT = {pair: 5 + k for k, pair in enumerate(_REF_PAIRS)}


def _ref_phase_bounds(n: int) -> list[tuple[int, int]]:
    b, r = divmod(n, 3)
    sizes = (b, b + (1 if r == 2 else 0), b + (1 if r >= 1 else 0))
    bounds = []
    s = 0
    for size in sizes:
        bounds.append((s, s + size))
        s += size
    return bounds


class _ReferenceState:
    def __init__(self, dungeon_rooms: int, dist_norm: float):
        self.rooms = dungeon_rooms
        self.dist_norm = dist_norm
        self.n = 0
        self.trans_counts = np.zeros(N_TRANSITION)
        self.n_transitions = 0
        self.prev_cat = None
        self.avail_counts = np.zeros(5)
        self.chosen_counts = np.zeros(5)
        self.chosen_by_step = []
        self.choice_set_sum = 0
        self.path_start = None
        self.pos = None
        self.unique = set()
        self.moves = 0
        self.dist_sum = 0.0
        self.prev_delta = None
        self.turns = 0
        self.backtracks = 0

    def push(self, decision: DecisionPoint) -> None:
        chosen = decision.available[decision.chosen]
        cat = chosen.category.value
        if self.prev_cat is not None:
            if self.prev_cat == cat:
                self.trans_counts[cat] += 1
            else:
                a, b = sorted((self.prev_cat, cat))
                self.trans_counts[_REF_CROSS_SLOT[(a, b)]] += 1
            self.n_transitions += 1
        self.prev_cat = cat

        offered = {a.category.value for a in decision.available}
        for c in offered:
            self.avail_counts[c] += 1
        self.chosen_counts[cat] += 1
        self.chosen_by_step.append(cat)
        self.choice_set_sum += len(decision.available)

        if self.path_start is None:
            self.path_start = decision.room
            self.pos = decision.room
            self.unique.add(decision.room)
        if chosen.move_delta is not None:
            dx, dy = chosen.move_delta
            self.pos = (self.pos[0] + dx, self.pos[1] + dy)
            self.unique.add(self.pos)
            self.moves += 1
            self.dist_sum += abs(self.pos[0] - self.path_start[0]) + abs(
                self.pos[1] - self.path_start[1]
            )
            if self.prev_delta is not None:
                if chosen.move_delta != self.prev_delta:
                    self.turns += 1
                if dx == -self.prev_delta[0] and dy == -self.prev_delta[1]:
                    self.backtracks += 1
            self.prev_delta = chosen.move_delta
        self.n += 1

    def row(self) -> np.ndarray:
        out = np.zeros(N_BEHAVIORAL)
        if self.n_transitions > 0:
            out[:N_TRANSITION] = self.trans_counts / self.n_transitions

        base = N_TRANSITION
        out[base : base + 5] = self.avail_counts / self.n
        out[base + 5 : base + 10] = self.chosen_counts / np.maximum(self.avail_counts, 1)
        out[base + 10] = self.choice_set_sum / self.n / 6.0
        p = self.chosen_counts / self.n
        nz = p[p > 0]
        out[base + 11] = float(-(nz * np.log(nz)).sum()) / np.log(5)

        base = N_TRANSITION + N_AVAIL_SELECT
        for phase, (s, e) in enumerate(_ref_phase_bounds(self.n)):
            if e > s:
                counts = np.bincount(self.chosen_by_step[s:e], minlength=5)
                out[base + 5 * phase : base + 5 * (phase + 1)] = counts / (e - s)

        base = N_TRANSITION + N_AVAIL_SELECT + N_TEMPORAL
        out[base] = len(self.unique) / self.rooms
        positions = self.moves + 1
        out[base + 1] = 1.0 - len(self.unique) / positions if self.moves else 0.0
        out[base + 2] = (self.dist_sum / positions) / self.dist_norm
        if self.moves:
            net = abs(self.pos[0] - self.path_start[0]) + abs(self.pos[1] - self.path_start[1])
            out[base + 3] = net / self.moves
        if self.moves > 1:
            out[base + 4] = self.turns / (self.moves - 1)
            out[base + 5] = self.backtracks / (self.moves - 1)
        return out


def _reference_matrix(session: Session, width: int, height: int) -> np.ndarray:
    state = _ReferenceState(width * height, width - 1 + height - 1)
    rows = np.empty((session.length, N_BEHAVIORAL))
    for t, decision in enumerate(session.decisions):
        state.push(decision)
        rows[t] = state.row()
    return rows


def _compass_session(directions: list[str]) -> Session:
    """A walk from (2, 2) choosing one of four moves or a rest at each step."""
    names = ("east", "west", "north", "south", "rest")
    menu = tuple(_action(ActionCategory.EXPLORATORY, move=_MOVES[d]) for d in names[:4]) + (
        _action(ActionCategory.CAUTIOUS),
    )
    pos = (2, 2)
    decisions = []
    for step, name in enumerate(directions):
        decisions.append(DecisionPoint(step, pos, menu, names.index(name), "a room", name))
        if name != "rest":
            pos = (pos[0] + _MOVES[name][0], pos[1] + _MOVES[name][1])
    return Session(1, Profile.from_index(0), 0, tuple(decisions), Outcome.STEP_LIMIT)


_BITWISE_CASES = {
    "T1": _session([0]),
    "T2": _session([0, 3]),
    "T3": _session([0, 3, 1]),
    "T4": _session([0, 3, 1, 5]),
    "no_move": _session([0, 1, 2, 5, 0]),
    "one_move": _session([0, 3, 1, 2]),
    "backtrack": _session([3, 4, 3, 0]),
    "turn": _compass_session(["east", "north", "north", "rest", "west"]),
    "single_category": _session([1, 1, 1, 1, 1]),
    "long_mixed": _session([0, 3, 1, 3, 4, 2, 5, 3, 0, 4, 4, 3, 1]),
}


@pytest.mark.parametrize("name", sorted(_BITWISE_CASES))
def test_crafted_matrix_is_bitwise_the_per_step_reference(name):
    session = _BITWISE_CASES[name]
    mat = behavioral_matrix(session, *_GRID)
    assert mat.shape == (session.length, N_BEHAVIORAL)
    assert mat.tobytes() == _reference_matrix(session, *_GRID).tobytes()


def test_crafted_cases_reach_what_they_name():
    move = slice(N_BEHAVIORAL - N_MOVEMENT, N_BEHAVIORAL)
    assert not behavioral_matrix(_BITWISE_CASES["no_move"], *_GRID)[:, move][:, 1:].any()
    *_, turn, back = behavioral_matrix(_BITWISE_CASES["backtrack"], *_GRID)[-1, move]
    assert back == 1.0 and turn == 1.0
    *_, turn, back = behavioral_matrix(_BITWISE_CASES["turn"], *_GRID)[-1, move]
    assert turn == pytest.approx(2 / 3) and back == 0.0
    ent_idx = BEHAVIORAL_SLOT_NAMES.index("selection_entropy")
    entropy = behavioral_matrix(_BITWISE_CASES["single_category"], *_GRID)[:, ent_idx]
    assert (entropy == 0.0).all()


@pytest.mark.parametrize("seed", range(6))
def test_simulated_matrix_is_bitwise_the_per_step_reference(seed):
    cfg = SimConfig(width=5 + seed % 3, height=6 + seed % 2)
    session = play_game(Profile.from_index(seed * 7 % 36), seed=seed, config=cfg)
    mat = behavioral_matrix(session, cfg.width, cfg.height)
    assert mat.tobytes() == _reference_matrix(session, cfg.width, cfg.height).tobytes()


def test_full_vector_is_behavioral_then_text():
    s = _session([0, 3, 1])
    full = _rows176(s, *_GRID)
    assert full.shape == (3, N_TOTAL)
    np.testing.assert_array_equal(full[:, :N_BEHAVIORAL], behavioral_matrix(s, *_GRID))
    for t, d in enumerate(s.decisions):
        np.testing.assert_allclose(full[t, N_BEHAVIORAL:], _oracle_embed(_text(d), N_TEXT), atol=1e-12)


def test_prefix_truncation_equivalence():
    long = _session([0, 3, 1, 3, 4, 2])
    short = _session([0, 3, 1])
    np.testing.assert_array_equal(
        behavioral_matrix(long, *_GRID)[:3], behavioral_matrix(short, *_GRID)
    )


def test_legacy_layout():
    s = _session([0, 3, 1])
    legacy = _rows530(s, *_GRID)
    assert legacy.shape == (3, N_LEGACY)
    for t, d in enumerate(s.decisions):
        np.testing.assert_allclose(legacy[t, :512], _oracle_embed(_text(d), 512), atol=1e-12)
    np.testing.assert_array_equal(legacy[:, 512:], behavioral_matrix(s, *_GRID)[:, :18])


def test_aggregate_features_layout():
    s = _session([0, 3, 1, 4])
    agg = aggregate_features(s, behavioral_matrix(s, *_GRID), max_steps=40)
    assert agg.shape == (len(AGGREGATE_SLOT_NAMES),) == (52,)
    np.testing.assert_allclose(agg[:48], _oracle_behavioral(s.decisions, 36, 10.0), atol=1e-12)
    assert agg[48] == pytest.approx(4 / 40)  # length fraction
    assert agg[49] == 0.0 and agg[50] == 0.0  # no exit, no death
    assert agg[51] == pytest.approx(1.0)  # six options every step
    died = Session(
        game_id=2, profile=s.profile, seed=0, decisions=s.decisions, outcome=Outcome.DIED
    )
    assert aggregate_features(died, behavioral_matrix(died, *_GRID), max_steps=40)[50] == 1.0


def test_aggregate_is_the_last_behavioral_row(small_corpus):
    cfg = small_corpus
    sessions = list(load_sessions(Paths(cfg.out_dir).sessions))
    assert len(sessions) == 36
    assert AGGREGATE_SLOT_NAMES[25] == "mean_choice_set"
    assert AGGREGATE_SLOT_NAMES[51] == "choice_set_mean"
    for session in sessions:
        behavioral = behavioral_matrix(session, cfg.sim.width, cfg.sim.height)
        agg = aggregate_features(session, behavioral, cfg.sim.max_steps)
        assert agg[:N_BEHAVIORAL].tobytes() == behavioral[-1].tobytes()
        assert agg[51].tobytes() == agg[25].tobytes()


def test_empty_prefix_rejected():
    empty = Session(
        game_id=0,
        profile=Profile.from_index(0),
        seed=0,
        decisions=(),
        outcome=Outcome.STEP_LIMIT,
    )
    behavioral = behavioral_matrix(empty, *_GRID)
    assert behavioral.shape == (0, N_BEHAVIORAL)
    with pytest.raises(IndexOutOfRange):
        aggregate_features(empty, behavioral, max_steps=40)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24))
def test_behavioral_features_bounded(choices):
    mat = behavioral_matrix(_session(choices), *_GRID)
    assert np.isfinite(mat).all()
    assert (mat >= 0.0).all() and (mat <= 1.0 + 1e-12).all()


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24))
def test_behavioral_matches_oracle_property(choices):
    s = _session(choices)
    mat = behavioral_matrix(s, *_GRID)
    expected = _oracle_behavioral(s.decisions, 36, 10.0)
    np.testing.assert_allclose(mat[-1], expected, atol=1e-12)


# --- files --------------------------------------------------------------------

_ALL = ("176", "530", "agg")
_DIMS = {"176": N_TOTAL, "530": N_LEGACY}


def _games() -> list[tuple[SequenceSample, np.ndarray, np.ndarray]]:
    """Three crafted games as stage_featurize hands them to the writer:
    the sample of its T x 48 behavioral rows, its T x 512 counts and its
    52 aggregates."""
    out = []
    for gid, choices in enumerate([[0, 3, 1], [2, 4], [0, 1, 2, 3, 4, 5]]):
        s = _session(choices, profile=Profile.from_index(gid * 7).code)
        s = Session(game_id=gid, profile=s.profile, seed=0, decisions=s.decisions, outcome=s.outcome)
        behavioral = behavioral_matrix(s, *_GRID)
        sample = SequenceSample(game_id=gid, profile=s.profile, window=(0, s.length), game=behavioral)
        out.append((sample, embed_tokens([_text(d) for d in s.decisions]), aggregate_features(s, behavioral, 40)))
    return out


def _write(path, games, window_len=8, stride=4) -> int:
    """Whole games into a PBF5 file; returns the record count."""
    with FeatureFileWriter(path, window_len, stride) as writer:
        for game in games:
            writer.add(*game)
    return writer.n


_PBF5_HEADER_BYTES = 24  # <4sIIIII
_RECORD_HEADER_BYTES = 17  # <QBII
_AGGREGATE_BYTES = 8 * 52


def _pbf5_size(games) -> int:
    """Header, then per (T, nnz) game its record header, 48 float32 columns
    and one <u2 non-zero count per decision, a <u2 bucket and an int8 count
    per non-zero count, and 52 float64 aggregates."""
    return _PBF5_HEADER_BYTES + sum(
        _RECORD_HEADER_BYTES + (4 * N_BEHAVIORAL + 2) * t + 3 * nnz + _AGGREGATE_BYTES for t, nnz in games
    )


def _text_block(data: bytes, at: int = _PBF5_HEADER_BYTES) -> tuple[int, int, int, int]:
    """Offsets of the per-row counts, buckets and values of the record at
    byte `at`, and its nnz."""
    _, _, t, nnz = struct.unpack_from("<QBII", data, at)
    rows = at + _RECORD_HEADER_BYTES + 4 * N_BEHAVIORAL * t
    return rows, rows + 2 * t, rows + 2 * t + 2 * nnz, nnz


def test_feature_file_roundtrip(tmp_path):
    path = tmp_path / "x.pbf"
    games = _games()
    n = _write(path, games)  # every game shorter than window_len: one window each
    assert n == 3
    loaded, _, header = read_feature_file(path, _ALL)
    sha = hashlib.sha256(path.read_bytes()).hexdigest()
    assert header == {
        "schema_version": SCHEMA_VERSION,
        "n_games": 3,
        "max_T": 6,
        "window_len": 8,
        "stride": 4,
        "sha256": sha,
    }
    assert path.stat().st_size == _pbf5_size((s.game.shape[0], np.count_nonzero(c)) for s, c, _ in games)
    for layout, dim in _DIMS.items():
        for (orig, counts, _), back in zip(games, loaded[layout], strict=True):
            assert back.game_id == orig.game_id
            assert back.profile == orig.profile
            assert back.window == (0, orig.matrix.shape[0])
            assert back.matrix.dtype == np.float32
            assert back.matrix.shape == (orig.matrix.shape[0], dim)
            assert back.matrix.tobytes() == _float_rows(orig.game, counts)[layout].tobytes()
            assert not back.matrix.flags.writeable
    scanned = scan_feature_file(path)
    assert scanned == [(s.game_id, s.profile.index, s.matrix.shape[0]) for s, _, _ in games]


_NONZERO_COUNT = st.integers(min_value=-128, max_value=127).filter(bool)


@st.composite
def _count_rows(draw) -> np.ndarray:
    """One game's (T, 512) int8 counts: each row all zero, sparse, or with
    every bucket non-zero."""
    t = draw(st.integers(min_value=1, max_value=4))
    counts = np.zeros((t, N_TEXT_LEGACY), dtype=np.int8)
    for row in counts:
        kind = draw(st.sampled_from(["zero", "sparse", "full"]))
        if kind == "full":
            row[:] = draw(_NONZERO_COUNT)
        if kind != "zero":
            overrides = draw(st.dictionaries(st.integers(0, N_TEXT_LEGACY - 1), _NONZERO_COUNT))
            row[list(overrides)] = list(overrides.values())
    return counts


_EXTREMES = np.zeros((3, N_TEXT_LEGACY), dtype=np.int8)
_EXTREMES[0, [0, 7, 511]] = (-128, 127, 1)  # row 1 stays all zero
_EXTREMES[2] = np.where(np.arange(N_TEXT_LEGACY) % 2, 127, -128)


@settings(deadline=None, max_examples=60)
@given(st.lists(_count_rows(), min_size=1, max_size=4))
@example([np.full((1, N_TEXT_LEGACY), 127, dtype=np.int8), _EXTREMES, np.zeros((1, N_TEXT_LEGACY), dtype=np.int8)])
def test_sparse_text_counts_roundtrip_bit_equal(tmp_path_factory, games):
    """Whatever int8 counts a game holds, the reader hands the layout
    builder those dense counts, and the file holds 3 bytes per non-zero."""
    path = tmp_path_factory.mktemp("sparse") / "x.pbf"
    rng = np.random.default_rng(len(games))
    written = []
    for gid, counts in enumerate(games):
        t = len(counts)
        sample = SequenceSample(gid, Profile.from_index(gid), (0, t), rng.random((t, N_BEHAVIORAL)))
        written.append((sample, counts, rng.random(52)))
    _write(path, written)
    assert path.stat().st_size == _pbf5_size((len(c), np.count_nonzero(c)) for c in games)
    with mock.patch.object(features, "_layout_rows", wraps=features._layout_rows) as layout_rows:
        loaded, (X, _, _), _ = read_feature_file(path, ("530", "agg"))
    calls = layout_rows.call_args_list
    assert len(calls) == len(games)
    for (sample, counts, _), call, back in zip(written, calls, loaded["530"], strict=True):
        decoded = call.args[2]
        assert decoded.dtype == np.int8 and decoded.tobytes() == counts.tobytes()
        assert back.game.tobytes() == _float_rows(sample.game, counts)["530"].tobytes()
    assert X.tobytes() == np.stack([agg for _, _, agg in written]).tobytes()


def test_aggregate_block_roundtrip(tmp_path):
    path = tmp_path / "x.pbf"
    games = _games()
    _write(path, games)
    samples, (X, y, ids), header = read_feature_file(path, {"agg"})
    assert samples == {}
    assert header["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert X.dtype == np.float64 and X.shape == (3, 52)
    assert ids == [0, 1, 2]
    assert y.dtype == np.int64 and list(y) == [0, 7, 14]
    assert X.tobytes() == np.stack([agg for _, _, agg in games]).tobytes()


def test_only_the_requested_layouts_are_read(tmp_path):
    path = tmp_path / "x.pbf"
    _write(path, _games())
    for layouts in ((), ("176",), ("530", "agg"), _ALL):
        samples, aggregates, _ = read_feature_file(path, layouts)
        assert set(samples) == {layout for layout in layouts if layout in _DIMS}
        assert (aggregates is None) == ("agg" not in layouts)
    default, _, _ = read_feature_file(path)
    assert set(default) == {"176"}


def test_feature_file_windows_are_views_of_game_rows(tmp_path):
    path = tmp_path / "x.pbf"
    games = _games()
    _write(path, games, window_len=2, stride=1)
    loaded, _, _ = read_feature_file(path, _ALL)
    want = [(g.game_id, (a, 2)) for g, _, _ in games for a in range(g.matrix.shape[0] - 1)]
    assert len(want) == 2 + 1 + 5
    for layout in _DIMS:
        assert [(s.game_id, s.window) for s in loaded[layout]] == want
        rows = {g.game_id: _float_rows(g.game, counts)[layout] for g, counts, _ in games}
        for s in loaded[layout]:
            start, length = s.window
            np.testing.assert_array_equal(s.matrix, rows[s.game_id][start : start + length])
    assert scan_feature_file(path) == [(gid, games[gid][0].profile.index, 2) for gid, _ in want]


@pytest.mark.parametrize("window_len, stride", [(2, 1), (3, 2), (8, 4)])
def test_loaded_windows_are_read_only_views_of_their_game(tmp_path, window_len, stride):
    path = tmp_path / "x.pbf"
    games = _games()
    _write(path, games, window_len, stride)
    loaded, _, _ = read_feature_file(path, _ALL)
    for layout, dim in _DIMS.items():
        by_game = {}
        for s in loaded[layout]:
            assert s.matrix.shape == (s.window[1], dim)
            assert not s.matrix.flags.writeable
            assert np.shares_memory(s.matrix, s.game)
            assert s.game.shape == (games[s.game_id][0].game.shape[0], dim)
            assert by_game.setdefault(s.game_id, s.game) is s.game  # one array per game


def _oracle_pbf1_windows(sessions_path, cfg, layout):
    """What a per-window writer stored, in file order: (game_id, profile
    index, (start, length), the window's float32 bytes) per window."""
    out = []
    w, stride = cfg.window_len, cfg.stride
    for session in load_sessions(sessions_path):
        behavioral = behavioral_matrix(session, cfg.sim.width, cfg.sim.height)
        tokens = [tokenize(_text(d)) for d in session.decisions]
        if layout == "176":
            text = np.array([_per_token_embed(t, N_TEXT) for t in tokens])
            game = np.hstack([behavioral, text])
        else:
            text = np.array([_per_token_embed(t, N_TEXT_LEGACY) for t in tokens])
            game = np.hstack([text, behavioral[:, :N_BEHAVIORAL_LEGACY]])
        t = session.length
        starts = [(0, t)] if t < w else [(a, w) for a in range(0, t - w + 1, stride)]
        for a, n in starts:
            window = game[a : a + n].astype("<f4").tobytes()
            out.append((session.game_id, session.profile.index, (a, n), window))
    return out


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("pbf2_corpus")
    # deadly fights end some games before window_len, so both window cases occur
    sim = SimConfig(max_steps=12, fight_death_chance=0.4, taunt_death_chance=0.4)
    cfg = PipelineConfig(master_seed=17, games_per_profile=1, sim=sim, out_dir=str(out))
    stage_gen(cfg)
    return cfg


def test_featurize_builds_no_dungeon(small_corpus, tmp_path, monkeypatch):
    for name in ("sessions.jsonl", "manifest.json"):
        (tmp_path / name).write_bytes((Paths(small_corpus.out_dir).root / name).read_bytes())

    def refuse(*args, **kwargs):
        raise AssertionError("featurize built a dungeon")

    monkeypatch.setattr(simulator, "build_dungeon", refuse)
    monkeypatch.setattr(pipeline, "build_dungeon", refuse)
    assert stage_featurize(replace(small_corpus, out_dir=str(tmp_path)))["games"] == 36


@pytest.mark.parametrize("stride", [1, 3, 4])
def test_pipeline_windows_match_per_window_oracle(small_corpus, stride):
    cfg = replace(small_corpus, stride=stride)
    stage_featurize(cfg)
    paths = Paths(cfg.out_dir)
    lengths = {s.game_id: s.length for s in load_sessions(paths.sessions)}
    assert min(lengths.values()) < cfg.window_len <= max(lengths.values())  # both cases occur
    loaded, _, _ = read_feature_file(paths.features, _ALL)
    for layout in _DIMS:
        want = _oracle_pbf1_windows(paths.sessions, cfg, layout)
        got = [(s.game_id, s.profile.index, s.window, s.matrix.tobytes()) for s in loaded[layout]]
        assert got == want
    scanned = scan_feature_file(paths.features)
    assert scanned == [(g, p, n) for g, p, (_, n), _ in want]
    assert Counter(g for g, _, _ in scanned) == {
        g: len(window_starts(t, cfg.window_len, stride)) for g, t in lengths.items()
    }


def test_feature_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pbf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(SchemaMismatch):
        read_feature_file(path)
    trunc = tmp_path / "trunc.pbf"
    good = tmp_path / "good.pbf"
    _write(good, _games())
    trunc.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(SchemaMismatch):
        read_feature_file(trunc)
    # cut inside a record header, not just inside a payload
    partial = tmp_path / "partial.pbf"
    partial.write_bytes(good.read_bytes()[: _PBF5_HEADER_BYTES + 5])
    with pytest.raises(SchemaMismatch):
        read_feature_file(partial)
    with pytest.raises(SchemaMismatch):
        scan_feature_file(partial)


# Damage inside a record's text block: only read_feature_file reads it,
# scan_feature_file reads record headers alone.
_TEXT_DAMAGE = ("row_counts_off", "bucket_out_of_range", "bucket_not_increasing", "stored_zero")


@pytest.mark.parametrize(
    "damage",
    [
        "pbf1",
        "cut_header",
        "cut_record",
        "trailing_byte",
        "cut_text_row",
        "float_text_row",
        "cut_aggregate",
        "profile_out_of_range",
        *_TEXT_DAMAGE,
    ],
)
def test_damaged_feature_file_names_the_file(tmp_path, damage):
    good = tmp_path / "good.pbf"
    games = _games()
    _write(good, games)
    data = bytearray(good.read_bytes())
    last_nnz = np.count_nonzero(games[-1][1])
    rows, buckets, values, nnz = _text_block(data)  # the first record's text block
    assert nnz >= 2 and data[rows] >= 2  # row 0 holds two buckets or more
    where = f"{damage}.pbf"
    if damage == "pbf1":  # a per-window file: 20-byte header, no window fields
        data = struct.pack("<4sIIII", b"PBF1", SCHEMA_VERSION, 3, 6, N_TOTAL) + data[_PBF5_HEADER_BYTES:]
    elif damage == "cut_header":
        data = data[: _PBF5_HEADER_BYTES - 1]
    elif damage == "cut_record":
        data = data[:-1]
        where += ": record 2 .*cut short"
    elif damage == "cut_text_row":  # into the last game's int8 values, and the aggregates after them
        data = data[: -_AGGREGATE_BYTES - last_nnz // 2]
        where += ": record 2 .*cut short"
    elif damage == "float_text_row":  # the bytes a row of float32 counts would add
        data = data + bytes(3 * N_TEXT_LEGACY)
        where += rf": {3 * N_TEXT_LEGACY} trailing byte\(s\) after its 3 records"
    elif damage == "cut_aggregate":  # inside the last record's aggregate block
        data = data[: -_AGGREGATE_BYTES // 2]
        where += ": record 2 .*cut short"
    elif damage == "profile_out_of_range":  # the first record's profile index byte
        data = data[: _PBF5_HEADER_BYTES + 8] + bytes([200]) + data[_PBF5_HEADER_BYTES + 9 :]
        where += ": record 0 .*profile index 200"
    elif damage == "row_counts_off":  # row 0 claims one more bucket than the record's nnz holds
        data[rows] += 1
        where += f": record 0 .*sum to {nnz + 1}, not its {nnz}"
    elif damage == "bucket_out_of_range":  # row 0's last bucket
        struct.pack_into("<H", data, buckets + 2 * (data[rows] - 1), N_TEXT_LEGACY)
        where += f": record 0 .*text bucket {N_TEXT_LEGACY} outside"
    elif damage == "bucket_not_increasing":  # row 0's second bucket repeats its first
        data[buckets + 2 : buckets + 4] = data[buckets : buckets + 2]
        where += ": record 0 .*not strictly increasing"
    elif damage == "stored_zero":
        data[values] = 0
        where += ": record 0 .*zero"
    else:
        data = data + b"\x00"
        where += r": 1 trailing byte\(s\) after its 3 records"
    path = tmp_path / f"{damage}.pbf"
    path.write_bytes(data)
    for layouts in (("176",), ()):  # the text block is checked whichever layouts are decoded
        with pytest.raises(SchemaMismatch, match=where):
            read_feature_file(path, layouts)
    if damage in _TEXT_DAMAGE:
        assert len(scan_feature_file(path)) == 3
    else:
        with pytest.raises(SchemaMismatch, match=where):
            scan_feature_file(path)


@pytest.mark.parametrize("damage", ["sparse_block", "length"])
def test_damage_in_a_record_keep_leaves_out_names_the_record(tmp_path, damage):
    """Records `keep` leaves out are not decoded, but still read and checked."""
    good = tmp_path / "good.pbf"
    games = _games()
    _write(good, games)
    data = bytearray(good.read_bytes())
    if damage == "sparse_block":  # record 0's row 0 claims one more bucket than its nnz holds
        data[_text_block(data)[0]] += 1
        where = r"record 0 \(game 0\).*sum to"
    else:  # record 2 loses its last aggregate byte
        data = data[:-1]
        where = r"record 2 \(game 2\).*cut short"
    path = tmp_path / f"{damage}.pbf"
    path.write_bytes(data)
    for layouts in (_ALL, ("530",), ()):
        with pytest.raises(SchemaMismatch, match=f"{damage}.pbf: {where}"):
            read_feature_file(path, layouts, keep={1: "train"})
    loaded, _, _ = read_feature_file(good, _ALL, keep={1: "train"})  # the undamaged file reads
    assert {s.game_id for s in loaded["176"]} == {1}


def test_keep_decodes_its_games_into_one_block_per_group(tmp_path):
    path = tmp_path / "x.pbf"
    games = _games() + [(replace(s, game_id=s.game_id + 3), c, a) for s, c, a in _games()]
    _write(path, games, window_len=2, stride=1)
    keep = {0: "train", 2: "test", 3: "train", 5: "train", 99: "test"}  # game 99 is not in the file
    everything, (X_all, y_all, ids_all), header = read_feature_file(path, _ALL)
    kept, (X, y, ids), kept_header = read_feature_file(path, _ALL, keep)
    assert kept_header == header  # the sha256 covers every record
    assert ids == [0, 2, 3, 5]
    rows = [ids_all.index(g) for g in ids]
    assert X.tobytes() == X_all[rows].tobytes() and y.tolist() == y_all[rows].tolist()
    for layout in _DIMS:
        want = {s.game_id: s.game for s in everything[layout]}
        assert len({id(g.base) for g in want.values()}) == 1  # keep=None: one block per layout
        assert [(s.game_id, s.window) for s in kept[layout]] == [
            (s.game_id, s.window) for s in everything[layout] if s.game_id in keep
        ]
        games_of = {}
        for s in kept[layout]:
            games_of.setdefault(keep[s.game_id], {})[s.game_id] = s.game
            assert not s.game.flags.writeable
            assert s.game.view(np.uint32).tobytes() == want[s.game_id].view(np.uint32).tobytes()
        for by_id in games_of.values():
            block = next(iter(by_id.values())).base
            assert not block.flags.writeable
            assert all(g.base is block for g in by_id.values())  # one block per group
            assert block.view(np.uint32).tobytes() == np.concatenate(list(by_id.values())).view(np.uint32).tobytes()
        assert games_of["train"][0].base is not games_of["test"][2].base


def test_feature_file_writer_removes_partial_file_on_error(tmp_path):
    path = tmp_path / "partial.pbf"
    with pytest.raises(RuntimeError):
        with FeatureFileWriter(path, 8, 4) as writer:
            writer.add(*_games()[0])
            raise RuntimeError("featurizer failed mid-file")
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_the_older_file_unchanged(tmp_path):
    path = tmp_path / "features.pbf"
    _write(path, _games())
    before = path.read_bytes()
    with pytest.raises(RuntimeError):
        with FeatureFileWriter(path, 2, 1) as writer:
            writer.add(*_games()[2])
            assert path.read_bytes() == before  # the new rows go to a temp file
            assert (tmp_path / "features.pbf.tmp").exists()
            raise RuntimeError("featurizer failed mid-file")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["features.pbf"]
    _write(path, _games()[:1])  # a finished write replaces it
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["features.pbf"]


@pytest.mark.parametrize("count", [128, -129, 0.5, np.nan])
def test_writer_rejects_a_count_outside_int8(tmp_path, count):
    path = tmp_path / "x.pbf"
    sample, counts, aggregate = _games()[0]
    counts = counts.astype(np.float64)
    counts[1, 3] = count
    with pytest.raises(DegenerateData, match="int8"):
        with FeatureFileWriter(path, 8, 4) as writer:
            writer.add(sample, counts, aggregate)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("part", ["behavioral", "counts", "aggregate"])
def test_writer_rejects_a_part_of_the_wrong_shape(tmp_path, part):
    sample, counts, aggregate = _games()[0]
    if part == "behavioral":
        sample = replace(sample, game=sample.game[:, :-1])
    elif part == "counts":
        counts = counts[:-1]
    else:
        aggregate = aggregate[:-1]
    with pytest.raises(DimensionMismatch, match=f"game {sample.game_id}"):
        with FeatureFileWriter(tmp_path / "x.pbf", 8, 4) as writer:
            writer.add(sample, counts, aggregate)
    assert list(tmp_path.iterdir()) == []


def test_writer_keeps_the_int8_extremes(tmp_path):
    path = tmp_path / "x.pbf"
    sample, counts, aggregate = _games()[0]
    counts = counts.copy()
    counts[0] = 0
    counts[0, 0] = 127
    counts[0, 1] = -128
    _write(path, [(sample, counts, aggregate)])
    loaded, _, _ = read_feature_file(path, _ALL)
    want = _float_rows(sample.game, counts)
    for layout, text in (("176", N_BEHAVIORAL), ("530", 0)):
        (back,) = loaded[layout]
        assert back.game.tobytes() == want[layout].tobytes()
        # buckets 0 and 1 fold onto themselves
        assert back.game[0, text] == np.float32(127 / math.hypot(127, 128))


@pytest.mark.parametrize(
    "magic, header",
    [(b"PBF1", "<4sIIII"), (b"PBF2", "<4sIIIIII"), (b"PBF3", "<4sIIIIIIII"), (b"PBF4", "<4sIIIII")],
)
def test_older_feature_file_asks_for_featurize(tmp_path, magic, header):
    path = tmp_path / "old.pbf"
    fields = (magic, SCHEMA_VERSION, 0, 0, N_TOTAL, 8, 4, N_BEHAVIORAL, N_TEXT)[: header.count("I") + 1]
    path.write_bytes(struct.pack(header, *fields))  # a whole file with no records
    for reader in (read_feature_file, scan_feature_file):
        with pytest.raises(SchemaMismatch, match=f"{magic!r}.*rerun featurize"):
            reader(path)


def test_decoded_rows_are_bitwise_the_float_path(small_corpus):
    """Each game's decoded rows are what featurize wrote when the files held
    float32 text: `_unit_rows` on the game's float64 counts, stacked in
    column order and cast to <f4. Its aggregate block is aggregate_features'
    float64 vector."""
    cfg = small_corpus
    stage_featurize(cfg)
    paths = Paths(cfg.out_dir)
    want = {"176": {}, "530": {}}
    aggregates = []
    lengths, nnz = {}, {}
    for session in load_sessions(paths.sessions):
        behavioral = behavioral_matrix(session, cfg.sim.width, cfg.sim.height)
        text128, text512 = _embed_rows([_text(d) for d in session.decisions])
        nnz[session.game_id] = np.count_nonzero(text512)
        want["176"][session.game_id] = np.hstack([behavioral, text128]).astype("<f4")
        want["530"][session.game_id] = np.hstack([text512, behavioral[:, :N_BEHAVIORAL_LEGACY]]).astype("<f4")
        aggregate = aggregate_features(session, behavioral, cfg.sim.max_steps)
        aggregates.append((session.game_id, session.profile.index, aggregate))
        lengths[session.game_id] = session.length
    loaded, (X, y, ids), _ = read_feature_file(paths.features, _ALL)
    for layout in _DIMS:
        games = {s.game_id: s.game for s in loaded[layout]}
        assert games.keys() == want[layout].keys()
        for game_id, game in games.items():
            assert game.tobytes() == want[layout][game_id].tobytes()
            assert not game.flags.writeable
            with pytest.raises(ValueError):
                game[0, 0] = 1.0
        scanned = scan_feature_file(paths.features)
        assert scanned == [(s.game_id, s.profile.index, s.window[1]) for s in loaded[layout]]
    assert ids == [game_id for game_id, _, _ in aggregates]
    assert list(y) == [profile for _, profile, _ in aggregates]
    assert X.tobytes() == np.stack([agg for _, _, agg in aggregates]).tobytes()
    assert paths.features.stat().st_size == _pbf5_size((lengths[g], nnz[g]) for g in lengths)
    assert Counter(g for g, _, _ in scan_feature_file(paths.features)) == {
        g: len(window_starts(t, cfg.window_len, cfg.stride)) for g, t in lengths.items()
    }


def test_feature_file_rejects_trailing_bytes(tmp_path):
    good = tmp_path / "good.pbf"
    _write(good, _games())
    # a 0-record header followed by a record, as an interrupted writer left it
    stale = tmp_path / "stale.pbf"
    _write(stale, [])
    header_size = stale.stat().st_size
    one = tmp_path / "one.pbf"
    _write(one, _games()[:1])
    for path, extra in ((good, b"\x00"), (stale, one.read_bytes()[header_size:])):
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(SchemaMismatch):
            read_feature_file(path)
        with pytest.raises(SchemaMismatch):
            scan_feature_file(path)
