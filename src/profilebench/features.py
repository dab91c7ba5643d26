"""Per-decision feature extraction and the PBF2 feature file.

Three layouts come out of this module:
  * 176 = 48 behavioral + 128 hashed-text, the balanced representation
  * 530 = 512 hashed-text + 18 behavioral, the text-heavy legacy layout
  * 52 per-game aggregates (48 behavioral at full prefix + 4 completion
    metrics) consumed by the non-sequential baseline

Behavioral features are prefix statistics: the vector at step t depends
only on decisions 0..t, so truncating a session never changes earlier
rows. Dimension audit: 15+12+15+6 = 48, 48+128 = 176, 512+18 = 530.

Text is hashed once per decision. Each token's bucket hash and sign are
cached; the 512 signed counts are one bincount, and because 128 divides
512 the 128-bucket counts are those 512 counts folded (bucket b adds into
b % 128). The sums are small integers, exact in float64, so the fold
gives the same bits as hashing into 128 buckets directly (Weinberger et
al., arXiv:0902.2206).

The bucket comes from FNV-1a over b"b:" + token and the sign from the low
bit of FNV-1a over b"s:" + token, but the two are not independent:
FNV-1a's low bit is the parity of the input bytes' low bits, and the two
prefixes differ in exactly that bit. So a token's sign is fixed by its
bucket's parity (odd buckets add +1, even buckets -1, at 128 and 512
alike), and colliding tokens never cancel. Fixing that changes every
hashed-text bit (ROADMAP item 5).

PBF2 layout, little-endian. Header `<4sIIIIII`: magic b"PBF2", schema
version, record count, max T, dim, window_len, stride. Then one record
per game: `<QBI` (game_id, profile index, T) and the whole T x dim
session as float32, row-major. Windows overlap whenever stride <
window_len, so the file stores each decision once and the reader derives
the windows from the header's window_len and stride (`window_starts`),
as read-only views into the game's rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from profilebench.dataset import window_starts
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

_CAT_NAMES = tuple(c.name.lower() for c in CATEGORIES)

# Unordered category pairs in canonical order; slot index for (a, b), a < b.
_CROSS_PAIRS = [(a, b) for a in range(N_CATEGORIES) for b in range(a + 1, N_CATEGORIES)]
_CROSS_SLOT = {pair: N_CATEGORIES + k for k, pair in enumerate(_CROSS_PAIRS)}

BEHAVIORAL_SLOT_NAMES = (
    *(f"trans_self_{c}" for c in _CAT_NAMES),
    *(f"trans_cross_{_CAT_NAMES[a]}_{_CAT_NAMES[b]}" for a, b in _CROSS_PAIRS),
    *(f"avail_{c}" for c in _CAT_NAMES),
    *(f"sel_given_avail_{c}" for c in _CAT_NAMES),
    "mean_choice_set",
    "selection_entropy",
    *(f"phase{phase}_{c}" for phase in (1, 2, 3) for c in _CAT_NAMES),
    "move_coverage",
    "move_revisit",
    "move_mean_dist",
    "move_net_ratio",
    "move_turn_rate",
    "move_backtrack",
)
# Two slots carry no information of their own: 18 (avail_exploratory) is
# always 1.0, since every menu offers a move; and 51 (choice_set_mean)
# equals slot 25 (mean_choice_set) bit for bit. Both stay: dropping either
# changes baseline_agg's inputs and metrics, so that waits for the
# multi-seed sweep (ROADMAP item 1).
AGGREGATE_SLOT_NAMES = BEHAVIORAL_SLOT_NAMES + (
    "length_norm",
    "exit_flag",
    "death_flag",
    "choice_set_mean",
)


@dataclass(frozen=True)
class SequenceSample:
    """One window of a game: rows window[0] : window[0] + window[1] of
    `game`, the game's whole T x D feature matrix, shared by its windows."""

    game_id: int
    profile: Profile
    window: tuple[int, int]  # (start, length)
    game: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        """The window's rows, a view of `game`."""
        start, length = self.window
        return self.game[start : start + length]


_WORD_RE = re.compile(r"[a-z0-9]+")

# token -> (bucket hash, sign)
_TOKEN_CACHE: dict[str, tuple[int, float]] = {}


def _hash_token(token: str) -> tuple[int, float]:
    data = token.encode("utf-8")
    hit = (fnv1a64(b"b:" + data), 1.0 - 2.0 * (fnv1a64(b"s:" + data) & 1))
    _TOKEN_CACHE[token] = hit
    return hit


def tokenize(text: str) -> list[str]:
    """Lowercase word unigrams followed by space-joined bigrams."""
    words = _WORD_RE.findall(text.lower())
    return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


def _signed_counts(tokens: list[str]) -> np.ndarray:
    """Sum of each token's sign in its bucket of 512: exact small integers."""
    hits = [_TOKEN_CACHE.get(t) or _hash_token(t) for t in tokens]
    hashes = np.array([h for h, _ in hits], dtype=np.uint64)
    signs = np.array([s for _, s in hits], dtype=np.float64)
    buckets = (hashes % np.uint64(N_TEXT_LEGACY)).astype(np.intp)
    return np.bincount(buckets, weights=signs, minlength=N_TEXT_LEGACY)


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def embed_tokens(tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The 128- and 512-bucket embeddings of one decision's tokens from one
    hashing pass; the 128 counts are the 512 counts folded."""
    counts = _signed_counts(tokens)
    return _unit(counts.reshape(-1, N_TEXT).sum(axis=0)), _unit(counts)


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


def behavioral_matrix(session: Session, dungeon: Dungeon) -> np.ndarray:
    """T x 48 matrix of prefix features, one row per decision."""
    state = _BehavioralState(dungeon.room_count, dungeon.width - 1 + dungeon.height - 1)
    rows = np.empty((session.length, N_BEHAVIORAL))
    for t, decision in enumerate(session.decisions):
        state.push(decision)
        rows[t] = state.row()
    return rows


def aggregate_features(session: Session, behavioral: np.ndarray, max_steps: int) -> np.ndarray:
    """The 52 aggregate slots: the last row of the session's behavioral
    matrix (its full-prefix statistics) + 4 completion metrics."""
    if session.length == 0:
        raise IndexOutOfRange("cannot aggregate an empty session")
    last = behavioral[-1]
    metrics = (
        session.length / max_steps,
        1.0 if session.outcome is Outcome.EXIT_REACHED else 0.0,
        1.0 if session.outcome is Outcome.DIED else 0.0,
        last[N_TRANSITION + 10],  # mean choice-set size, slot 25
    )
    return np.concatenate([last, metrics])


# ---------------------------------------------------------------------------
# Feature tensor file ("PBF2"): one record per game, windows derived at load.

_MAGIC = b"PBF2"
_HEADER = struct.Struct("<4sIIIIII")  # magic, schema, games, max_T, dim, window_len, stride
_RECORD = struct.Struct("<QBI")  # game_id, profile index, T


class FeatureFileWriter:
    """Streams whole-game samples into the PBF2 format without holding them all.

    The header's record count and max_T are patched on close, so the
    resulting bytes are identical to a one-shot write. If the `with` body
    raises, the file is deleted instead of left with a 0-record header.
    """

    def __init__(self, path: str | Path, dim: int, window_len: int, stride: int):
        self.dim = dim
        self.window_len = window_len
        self.stride = stride
        self.n = 0
        self.max_t = 0
        try:
            self._fh = open(path, "wb")
            self._fh.write(self._header())
        except OSError as exc:
            raise IoFailure(f"feature file open failed: {exc}") from exc

    def _header(self) -> bytes:
        return _HEADER.pack(
            _MAGIC, SCHEMA_VERSION, self.n, self.max_t, self.dim, self.window_len, self.stride
        )

    def add(self, sample: SequenceSample) -> None:
        """Append one game: `sample.game`, its whole T x dim session."""
        t, d = sample.game.shape
        if d != self.dim:
            raise DimensionMismatch(f"sample dim {d} != file dim {self.dim}")
        try:
            self._fh.write(_RECORD.pack(sample.game_id, sample.profile.index, t))
            self._fh.write(np.ascontiguousarray(sample.game, dtype="<f4").tobytes())
        except OSError as exc:
            raise IoFailure(f"feature file write failed: {exc}") from exc
        self.n += 1
        self.max_t = max(self.max_t, t)

    def close(self) -> int:
        try:
            self._fh.seek(0)
            self._fh.write(self._header())
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


def _parse_feature_file(path: str | Path, fh: BinaryIO) -> tuple[dict, list[tuple[int, ...]]]:
    """Header dict and (game_id, profile_index, T, payload offset) per record,
    skipping the payloads; anything but a whole PBF2 file, ending right after
    its last record, is rejected with SchemaMismatch."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise SchemaMismatch(f"{path}: truncated header")
    magic, version, n_games, max_t, dim, window_len, stride = _HEADER.unpack(raw)
    if magic != _MAGIC:
        hint = " (per-window records from an older featurize; rerun featurize)"
        raise SchemaMismatch(f"{path}: bad magic {magic!r}{hint if magic == b'PBF1' else ''}")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(f"{path}: schema version {version}, expected {SCHEMA_VERSION}")
    if window_len < 1 or stride < 1:
        raise SchemaMismatch(f"{path}: window_len {window_len}, stride {stride}")
    records = []
    for _ in range(n_games):
        raw = fh.read(_RECORD.size)
        if len(raw) < _RECORD.size:
            raise SchemaMismatch(f"{path}: truncated record header")
        game_id, profile_idx, t = _RECORD.unpack(raw)
        records.append((game_id, profile_idx, t, fh.tell()))
        fh.seek(4 * t * dim, 1)
    end = fh.tell()
    if fh.seek(0, 2) != end:  # trailing bytes, or a payload cut short
        raise SchemaMismatch(f"{path}: file size does not match its {n_games} records")
    header = {
        "schema_version": version,
        "n_games": n_games,
        "max_T": max_t,
        "dim": dim,
        "window_len": window_len,
        "stride": stride,
    }
    return header, records


def scan_feature_file(path: str | Path) -> list[tuple[int, int, int]]:
    """(game_id, profile_index, window length) per window, in load order,
    reading only the file's headers."""
    try:
        with open(path, "rb") as fh:
            header, records = _parse_feature_file(path, fh)
    except OSError as exc:
        raise IoFailure(f"feature file read failed: {exc}") from exc
    return [
        (game_id, profile_idx, length)
        for game_id, profile_idx, t, _ in records
        for _, length in window_starts(t, header["window_len"], header["stride"])
    ]


def read_feature_file(path: str | Path) -> tuple[list[SequenceSample], dict]:
    """Read a PBF2 file once; returns (per-window samples, header dict).

    Samples come in game order, then window order. A game's windows share
    one `game`, a read-only float32 view of its rows in the bytes read, so
    each `matrix` is a view of it. The header carries the file's sha256 and
    its window count as "n_samples".
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"feature file read failed: {exc}") from exc
    header, records = _parse_feature_file(path, io.BytesIO(data))
    dim = header["dim"]
    samples = []
    for game_id, profile_idx, t, offset in records:
        game = np.frombuffer(data, dtype="<f4", count=t * dim, offset=offset).reshape(t, dim)
        profile = Profile.from_index(profile_idx)
        for start, length in window_starts(t, header["window_len"], header["stride"]):
            samples.append(SequenceSample(game_id, profile, (start, length), game))
    header["n_samples"] = len(samples)
    header["sha256"] = hashlib.sha256(data).hexdigest()
    return samples, header


def write_aggregate_csv(path: str | Path, rows: Iterable[tuple[int, Profile, np.ndarray]]) -> int:
    """CSV of per-game aggregate vectors, one row per game."""
    n = 0
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("game_id", "profile") + AGGREGATE_SLOT_NAMES)
            for game_id, profile, agg in rows:
                writer.writerow([game_id, profile.code] + [repr(float(v)) for v in agg])
                n += 1
    except OSError as exc:
        raise IoFailure(f"aggregate csv write failed: {exc}") from exc
    return n


def read_aggregate_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Returns (X of shape n x 52, profile indices, game_ids).

    A file that does not end in a line end, or a row with the wrong number of
    fields, a non-numeric value or an unknown profile code (e.g. a cut file),
    raises SchemaMismatch naming the file and the line.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoFailure(f"aggregate csv read failed: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{path}: not UTF-8 text: {exc}") from exc
    if not text.endswith("\n"):
        raise SchemaMismatch(f"{path}: truncated, no line end after its last row")
    reader = csv.reader(text.splitlines())
    width = 2 + len(AGGREGATE_SLOT_NAMES)
    xs, ys, ids = [], [], []
    try:
        if tuple(next(reader)[2:]) != AGGREGATE_SLOT_NAMES:
            raise SchemaMismatch(f"{path}: unexpected aggregate columns")
        for row in reader:
            if len(row) != width:
                raise ValueError(f"{len(row)} fields, expected {width}")
            ids.append(int(row[0]))
            ys.append(Profile.from_code(row[1]).index)
            xs.append([float(v) for v in row[2:]])
    except (ValueError, csv.Error) as exc:
        raise SchemaMismatch(f"{path} line {reader.line_num}: malformed row: {exc}") from exc
    return np.asarray(xs), np.asarray(ys, dtype=np.int64), ids
