"""Per-decision feature extraction.

Three layouts come out of this module:
  * 176 = 48 behavioral + 128 hashed-text, the balanced representation
  * 530 = 512 hashed-text + 18 behavioral, the text-heavy legacy layout
  * 52 per-game aggregates (48 behavioral at full prefix + 4 completion
    metrics) consumed by the non-sequential baseline

Behavioral features are prefix statistics: the vector at step t depends
only on decisions 0..t, so truncating a session never changes earlier
rows. Dimension audit: 15+12+15+6 = 48, 48+128 = 176, 512+18 = 530.
"""

from __future__ import annotations

import csv
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from profilebench.errors import DimensionMismatch, IndexOutOfRange, IoFailure, SchemaMismatch
from profilebench.hashing import fnv1a64
from profilebench.simulator import CATEGORIES, DecisionPoint, Dungeon, Outcome, Session
from profilebench.taxonomy import Profile

SCHEMA_VERSION = 1

N_CATEGORIES = 5
N_TRANSITION = 15
N_AVAIL_SELECT = 12
N_TEMPORAL = 15
N_MOVEMENT = 6
N_BEHAVIORAL = N_TRANSITION + N_AVAIL_SELECT + N_TEMPORAL + N_MOVEMENT
N_TEXT = 128
N_TOTAL = N_BEHAVIORAL + N_TEXT
N_TEXT_LEGACY = 512
N_BEHAVIORAL_LEGACY = 18
N_LEGACY = N_TEXT_LEGACY + N_BEHAVIORAL_LEGACY
N_AGGREGATE = N_BEHAVIORAL + 4

_CAT_NAMES = tuple(c.name.lower() for c in CATEGORIES)

# Unordered category pairs in canonical order; slot index for (a, b), a < b.
_CROSS_PAIRS = [(a, b) for a in range(N_CATEGORIES) for b in range(a + 1, N_CATEGORIES)]
_CROSS_SLOT = {pair: N_CATEGORIES + k for k, pair in enumerate(_CROSS_PAIRS)}


def _slot_names() -> list[tuple[str, str]]:
    slots: list[tuple[str, str]] = []
    for c in _CAT_NAMES:
        slots.append((f"trans_self_{c}", "Transition"))
    for a, b in _CROSS_PAIRS:
        slots.append((f"trans_cross_{_CAT_NAMES[a]}_{_CAT_NAMES[b]}", "Transition"))
    for c in _CAT_NAMES:
        slots.append((f"avail_{c}", "AvailSelect"))
    for c in _CAT_NAMES:
        slots.append((f"sel_given_avail_{c}", "AvailSelect"))
    slots.append(("mean_choice_set", "AvailSelect"))
    slots.append(("selection_entropy", "AvailSelect"))
    for phase in (1, 2, 3):
        for c in _CAT_NAMES:
            slots.append((f"phase{phase}_{c}", "Temporal"))
    slots.append(("move_coverage", "Movement"))
    slots.append(("move_revisit", "Movement"))
    slots.append(("move_mean_dist", "Movement"))
    slots.append(("move_net_ratio", "Movement"))
    slots.append(("move_turn_rate", "Movement"))
    slots.append(("move_backtrack", "Movement"))
    for i in range(N_TEXT):
        slots.append((f"text_{i:03d}", "Text"))
    return slots


@dataclass(frozen=True)
class FeatureSchema:
    version: int
    slots: tuple[tuple[str, str, int], ...]  # (name, group, index)

    @property
    def groups(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, group, _ in self.slots:
            out[group] = out.get(group, 0) + 1
        return out

    @property
    def dim(self) -> int:
        return len(self.slots)


SCHEMA = FeatureSchema(
    version=SCHEMA_VERSION,
    slots=tuple((name, group, i) for i, (name, group) in enumerate(_slot_names())),
)

BEHAVIORAL_SLOT_NAMES = tuple(name for name, _, i in SCHEMA.slots[:N_BEHAVIORAL])
AGGREGATE_SLOT_NAMES = BEHAVIORAL_SLOT_NAMES + (
    "length_norm",
    "exit_flag",
    "death_flag",
    "choice_set_mean",
)


@dataclass(frozen=True)
class FeatureVector:
    values: np.ndarray
    schema_version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class SequenceSample:
    game_id: int
    profile: Profile
    window: tuple[int, int]  # (start, length)
    matrix: np.ndarray


@dataclass(frozen=True)
class AggregateVector:
    values: np.ndarray


_WORD_RE = re.compile(r"[a-z0-9]+")

# token -> (bucket, signed unit) cache, keyed by bucket count
_TOKEN_CACHE: dict[int, dict[str, tuple[int, float]]] = {}


def _hash_token(token: str, n_buckets: int) -> tuple[int, float]:
    cache = _TOKEN_CACHE.setdefault(n_buckets, {})
    hit = cache.get(token)
    if hit is None:
        data = token.encode("utf-8")
        bucket = fnv1a64(b"b:" + data) % n_buckets
        sign = 1.0 - 2.0 * (fnv1a64(b"s:" + data) & 1)
        hit = (bucket, sign)
        cache[token] = hit
    return hit


def tokenize(text: str) -> list[str]:
    """Lowercase word unigrams followed by space-joined bigrams."""
    words = _WORD_RE.findall(text.lower())
    return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


def embed_tokens(tokens: list[str], n_buckets: int) -> np.ndarray:
    v = np.zeros(n_buckets)
    for token in tokens:
        bucket, sign = _hash_token(token, n_buckets)
        v[bucket] += sign
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def embed_text(text: str, n_buckets: int = N_TEXT) -> np.ndarray:
    """Signed feature hashing of text into n_buckets, L2 normalized.

    Bucket and sign come from independent FNV-1a hashes (prefixes "b:"
    and "s:"), so the embedding is identical on every platform. Empty
    or whitespace-only text maps to the zero vector.
    """
    return embed_tokens(tokenize(text), n_buckets)


def _decision_text(decision: DecisionPoint) -> str:
    return decision.room_text + " " + decision.action_text


class _BehavioralState:
    """O(1)-per-step accumulators for the 48 behavioral features.

    Feeding decisions one at a time and reading `row()` after each gives
    exactly the prefix statistics of the decisions seen so far.
    """

    def __init__(self, dungeon_rooms: int, dist_norm: float):
        self.rooms = dungeon_rooms
        self.dist_norm = dist_norm
        self.n = 0
        self.trans_counts = np.zeros(N_TRANSITION)
        self.n_transitions = 0
        self.prev_cat: int | None = None
        self.avail_counts = np.zeros(N_CATEGORIES)
        self.chosen_counts = np.zeros(N_CATEGORIES)
        self.chosen_by_step: list[int] = []
        self.choice_set_sum = 0
        # movement path; start room enters on the first decision
        self.path_start: tuple[int, int] | None = None
        self.pos: tuple[int, int] | None = None
        self.unique: set[tuple[int, int]] = set()
        self.moves = 0
        self.dist_sum = 0.0
        self.prev_delta: tuple[int, int] | None = None
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
                self.trans_counts[_CROSS_SLOT[(a, b)]] += 1
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
        # chosen implies available, so the 0/0 case is exactly "never offered"
        out[base + 5 : base + 10] = self.chosen_counts / np.maximum(self.avail_counts, 1)
        out[base + 10] = self.choice_set_sum / self.n / 6.0
        p = self.chosen_counts / self.n
        nz = p[p > 0]
        out[base + 11] = float(-(nz * np.log(nz)).sum()) / np.log(N_CATEGORIES)

        base = N_TRANSITION + N_AVAIL_SELECT
        for phase, (s, e) in enumerate(_phase_bounds(self.n)):
            if e > s:
                counts = np.bincount(self.chosen_by_step[s:e], minlength=N_CATEGORIES)
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


def _phase_bounds(n: int) -> list[tuple[int, int]]:
    """Contiguous thirds of range(n); remainder goes to the later phases."""
    b, r = divmod(n, 3)
    sizes = (b, b + (1 if r == 2 else 0), b + (1 if r >= 1 else 0))
    bounds = []
    s = 0
    for size in sizes:
        bounds.append((s, s + size))
        s += size
    return bounds


def transition_features(prefix: Sequence[DecisionPoint]) -> np.ndarray:
    return _behavioral_prefix(prefix)[:N_TRANSITION]


def avail_select_features(prefix: Sequence[DecisionPoint]) -> np.ndarray:
    return _behavioral_prefix(prefix)[N_TRANSITION : N_TRANSITION + N_AVAIL_SELECT]


def temporal_features(prefix: Sequence[DecisionPoint]) -> np.ndarray:
    s = N_TRANSITION + N_AVAIL_SELECT
    return _behavioral_prefix(prefix)[s : s + N_TEMPORAL]


def movement_features(prefix: Sequence[DecisionPoint], dungeon: Dungeon) -> np.ndarray:
    state = _BehavioralState(dungeon.room_count, dungeon.width - 1 + dungeon.height - 1)
    for d in prefix:
        state.push(d)
    return state.row()[N_TRANSITION + N_AVAIL_SELECT + N_TEMPORAL :]


def _behavioral_prefix(prefix: Sequence[DecisionPoint]) -> np.ndarray:
    if not prefix:
        raise IndexOutOfRange("empty decision prefix")
    # room geometry is irrelevant to the non-movement groups
    state = _BehavioralState(1, 1.0)
    for d in prefix:
        state.push(d)
    return state.row()


def behavioral_matrix(session: Session, dungeon: Dungeon) -> np.ndarray:
    """T x 48 matrix of prefix features, one row per decision."""
    state = _BehavioralState(dungeon.room_count, dungeon.width - 1 + dungeon.height - 1)
    rows = np.empty((session.length, N_BEHAVIORAL))
    for t, decision in enumerate(session.decisions):
        state.push(decision)
        rows[t] = state.row()
    return rows


def text_matrix(session: Session, n_buckets: int = N_TEXT) -> np.ndarray:
    rows = np.empty((session.length, n_buckets))
    for t, decision in enumerate(session.decisions):
        rows[t] = embed_text(_decision_text(decision), n_buckets)
    return rows


def featurize_game(session: Session, dungeon: Dungeon) -> np.ndarray:
    """T x 176 matrix for a whole session; rows are per-decision vectors."""
    return np.hstack([behavioral_matrix(session, dungeon), text_matrix(session)])


def featurize_decision(session: Session, step_index: int, dungeon: Dungeon) -> FeatureVector:
    if not 0 <= step_index < session.length:
        raise IndexOutOfRange(f"step {step_index} outside session of length {session.length}")
    prefix = session.decisions[: step_index + 1]
    state = _BehavioralState(dungeon.room_count, dungeon.width - 1 + dungeon.height - 1)
    for d in prefix:
        state.push(d)
    values = np.concatenate([state.row(), embed_text(_decision_text(prefix[-1]))])
    return FeatureVector(values=values)


def featurize_sequence(
    session: Session, window_start: int, window_len: int, dungeon: Dungeon
) -> SequenceSample:
    if window_start < 0 or window_len < 1 or window_start + window_len > session.length:
        raise IndexOutOfRange(
            f"window ({window_start},{window_len}) outside session of length {session.length}"
        )
    full = featurize_game(session, dungeon)
    return SequenceSample(
        game_id=session.game_id,
        profile=session.profile,
        window=(window_start, window_len),
        matrix=full[window_start : window_start + window_len],
    )


def aggregate_features(session: Session, dungeon: Dungeon, max_steps: int) -> AggregateVector:
    """48 full-prefix behavioral features + 4 completion metrics."""
    if session.length == 0:
        raise IndexOutOfRange("cannot aggregate an empty session")
    state = _BehavioralState(dungeon.room_count, dungeon.width - 1 + dungeon.height - 1)
    for d in session.decisions:
        state.push(d)
    behavioral = state.row()
    mean_choice = state.choice_set_sum / session.length / 6.0
    metrics = np.array(
        [
            session.length / max_steps,
            1.0 if session.outcome is Outcome.EXIT_REACHED else 0.0,
            1.0 if session.outcome is Outcome.DIED else 0.0,
            mean_choice,
        ]
    )
    return AggregateVector(values=np.concatenate([behavioral, metrics]))


def featurize_legacy_530(session: Session, step_index: int, dungeon: Dungeon) -> np.ndarray:
    """512 hashed-text buckets + the first 18 behavioral slots."""
    vec = featurize_decision(session, step_index, dungeon).values
    text = embed_text(_decision_text(session.decisions[step_index]), N_TEXT_LEGACY)
    return np.concatenate([text, vec[:N_BEHAVIORAL_LEGACY]])


def featurize_game_legacy(session: Session, dungeon: Dungeon) -> np.ndarray:
    """T x 530 matrix; text block first, then 18 behavioral slots."""
    behavioral = behavioral_matrix(session, dungeon)[:, :N_BEHAVIORAL_LEGACY]
    return np.hstack([text_matrix(session, N_TEXT_LEGACY), behavioral])


# ---------------------------------------------------------------------------
# Feature tensor file ("PBF1"): sequence samples with variable T.

_MAGIC = b"PBF1"
_HEADER = struct.Struct("<4sIIII")
_RECORD = struct.Struct("<QBI")


class FeatureFileWriter:
    """Streams samples into the PBF1 format without holding them all.

    The header's sample count and max_T are patched on close, so the
    resulting bytes are identical to a one-shot write. If the `with` body
    raises, the file is deleted instead of left with a 0-sample header.
    """

    def __init__(self, path: str | Path, dim: int, schema_version: int = SCHEMA_VERSION):
        self.dim = dim
        self.schema_version = schema_version
        self.n = 0
        self.max_t = 0
        try:
            self._fh = open(path, "wb")
            self._fh.write(_HEADER.pack(_MAGIC, schema_version, 0, 0, dim))
        except OSError as exc:
            raise IoFailure(f"feature file open failed: {exc}") from exc

    def add(self, sample: SequenceSample) -> None:
        t, d = sample.matrix.shape
        if d != self.dim:
            raise DimensionMismatch(f"sample dim {d} != file dim {self.dim}")
        try:
            self._fh.write(_RECORD.pack(sample.game_id, sample.profile.index, t))
            self._fh.write(np.ascontiguousarray(sample.matrix, dtype="<f4").tobytes())
        except OSError as exc:
            raise IoFailure(f"feature file write failed: {exc}") from exc
        self.n += 1
        self.max_t = max(self.max_t, t)

    def close(self) -> int:
        try:
            self._fh.seek(0)
            self._fh.write(_HEADER.pack(_MAGIC, self.schema_version, self.n, self.max_t, self.dim))
            self._fh.close()
        except OSError as exc:
            raise IoFailure(f"feature file close failed: {exc}") from exc
        return self.n

    def __enter__(self) -> "FeatureFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._fh.close()
            Path(self._fh.name).unlink(missing_ok=True)


def write_feature_file(
    path: str | Path,
    samples: Iterable[SequenceSample],
    dim: int,
    schema_version: int = SCHEMA_VERSION,
) -> int:
    """Write samples to the binary tensor format; returns sample count."""
    with FeatureFileWriter(path, dim, schema_version) as writer:
        for s in samples:
            writer.add(s)
    return writer.n


def _parse_feature_file(path: str | Path, payloads: bool) -> tuple[dict, list[tuple]]:
    """Header dict and (game_id, profile_index, T, matrix or None) per record;
    a file that does not end exactly after its last record is rejected."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
            if len(raw) < _HEADER.size:
                raise SchemaMismatch(f"{path}: truncated header")
            magic, version, n_samples, max_t, dim = _HEADER.unpack(raw)
            if magic != _MAGIC:
                raise SchemaMismatch(f"{path}: bad magic {magic!r}")
            if version != SCHEMA_VERSION:
                raise SchemaMismatch(f"{path}: schema version {version}, expected {SCHEMA_VERSION}")
            records = []
            for _ in range(n_samples):
                raw = fh.read(_RECORD.size)
                if len(raw) < _RECORD.size:
                    raise SchemaMismatch(f"{path}: truncated record header")
                game_id, profile_idx, t = _RECORD.unpack(raw)
                matrix = None
                if payloads:
                    buf = fh.read(4 * t * dim)
                    if len(buf) < 4 * t * dim:
                        raise SchemaMismatch(f"{path}: truncated record")
                    matrix = np.frombuffer(buf, dtype="<f4").reshape(t, dim).astype(np.float32)
                else:
                    fh.seek(4 * t * dim, 1)
                records.append((game_id, profile_idx, t, matrix))
            end = fh.tell()
            if fh.seek(0, 2) != end:  # trailing bytes, or a payload cut short
                raise SchemaMismatch(f"{path}: file size does not match its {n_samples} records")
    except OSError as exc:
        raise IoFailure(f"feature file read failed: {exc}") from exc
    header = {"schema_version": version, "n_samples": n_samples, "max_T": max_t, "dim": dim}
    return header, records


def scan_feature_file(path: str | Path) -> list[tuple[int, int, int]]:
    """(game_id, profile_index, T) per record, skipping matrix payloads."""
    _, records = _parse_feature_file(path, payloads=False)
    return [r[:3] for r in records]


def read_feature_file(path: str | Path) -> tuple[list[SequenceSample], dict]:
    """Read a PBF1 file; returns (samples, header dict)."""
    header, records = _parse_feature_file(path, payloads=True)
    samples = [
        SequenceSample(
            game_id=game_id, profile=Profile.from_index(profile_idx), window=(0, t), matrix=matrix
        )
        for game_id, profile_idx, t, matrix in records
    ]
    return samples, header


def write_aggregate_csv(path: str | Path, rows: Iterable[tuple[int, Profile, AggregateVector]]) -> int:
    """CSV of per-game aggregate vectors, one row per game."""
    n = 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("game_id", "profile") + AGGREGATE_SLOT_NAMES)
            for game_id, profile, agg in rows:
                writer.writerow([game_id, profile.code] + [repr(float(v)) for v in agg.values])
                n += 1
    except OSError as exc:
        raise IoFailure(f"aggregate csv write failed: {exc}") from exc
    return n


def read_aggregate_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Returns (X of shape n x 52, profile indices, game_ids)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if tuple(header[2:]) != AGGREGATE_SLOT_NAMES:
                raise SchemaMismatch(f"{path}: unexpected aggregate columns")
            xs, ys, ids = [], [], []
            for row in reader:
                ids.append(int(row[0]))
                ys.append(Profile.from_code(row[1]).index)
                xs.append([float(v) for v in row[2:]])
    except OSError as exc:
        raise IoFailure(f"aggregate csv read failed: {exc}") from exc
    return np.asarray(xs), np.asarray(ys, dtype=np.int64), ids
