"""Per-decision feature extraction and the PBF2 feature file.

Three layouts come out of this module:
  * 176 = 48 behavioral + 128 hashed-text, the balanced representation
  * 530 = 512 hashed-text + 18 behavioral, the text-heavy legacy layout
  * 52 per-game aggregates (48 behavioral at full prefix + 4 completion
    metrics) consumed by the non-sequential baseline

Behavioral features are prefix statistics: the vector at step t depends
only on decisions 0..t, so truncating a session never changes earlier
rows. Dimension audit: 15+12+15+6 = 48, 48+128 = 176, 512+18 = 530.

A game's behavioral rows are built at once. One Python pass over the
decisions records small integers per step (chosen category, menu size,
offered categories, and the movement path's running counts); cumulative
sums of one-hot counts then give every prefix's statistics, and one
vectorized division per slot group fills all T rows (prefix sums,
Blelloch 1990). The bits are those of computing each row on its own: the
counts are integers, exact in float64, each division keeps its operands
and order, a phase's counts are the difference of two cumulative rows,
and the entropy terms are summed in category order with +0.0 for unseen
categories, which is exact.

Text is counted once per game. Each token's bucket and sign are cached;
a game's T x 512 signed counts are one bincount over t * 512 + bucket, and
because 128 divides 512 the 128-bucket counts are those 512 counts folded
(bucket b adds into b % 128). The sums and squared norms are small
integers, exact in float64, so every row has the same bits as hashing its
decision into 128 or 512 buckets on its own (Weinberger et al.,
arXiv:0902.2206).

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
from profilebench.simulator import CATEGORIES, Outcome, Session
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

# Unordered category pairs in canonical order. _TRANSITION_SLOT[a, b] is the
# slot of a transition between categories a and b, in either order: a for a
# repeat, then one slot per pair.
_CROSS_PAIRS = [(a, b) for a in range(N_CATEGORIES) for b in range(a + 1, N_CATEGORIES)]
_TRANSITION_SLOT = np.diag(np.arange(N_CATEGORIES))
_TRANSITION_SLOT[tuple(zip(*_CROSS_PAIRS))] = N_CATEGORIES + np.arange(len(_CROSS_PAIRS))
_TRANSITION_SLOT = np.maximum(_TRANSITION_SLOT, _TRANSITION_SLOT.T)

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

# token -> (bucket of 512, sign)
_TOKEN_CACHE: dict[str, tuple[int, float]] = {}


def _hash_token(token: str) -> tuple[int, float]:
    data = token.encode("utf-8")
    hit = (fnv1a64(b"b:" + data) % N_TEXT_LEGACY, 1.0 - 2.0 * (fnv1a64(b"s:" + data) & 1))
    _TOKEN_CACHE[token] = hit
    return hit


def tokenize(text: str) -> list[str]:
    """Lowercase word unigrams followed by space-joined bigrams."""
    words = _WORD_RE.findall(text.lower())
    return words + [f"{a} {b}" for a, b in zip(words, words[1:])]


def _unit_rows(counts: np.ndarray) -> np.ndarray:
    """Each row over its norm; an all-zero row stays zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    norms[norms == 0] = 1.0
    return counts / norms[:, None]


def embed_tokens(token_lists: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The (T, 128) and (T, 512) embeddings of a game's T decisions, one
    token list each, from one bincount; the 128 counts are the 512 counts
    folded."""
    hits = [_TOKEN_CACHE.get(t) or _hash_token(t) for tokens in token_lists for t in tokens]
    n = len(token_lists)
    rows = np.repeat(np.arange(n) * N_TEXT_LEGACY, [len(tokens) for tokens in token_lists])
    buckets = np.array([b for b, _ in hits], dtype=np.intp)
    signs = np.array([s for _, s in hits], dtype=np.float64)
    counts = np.bincount(rows + buckets, weights=signs, minlength=n * N_TEXT_LEGACY)
    counts = counts.reshape(n, N_TEXT_LEGACY)
    folded = counts.reshape(n, N_TEXT_LEGACY // N_TEXT, N_TEXT).sum(axis=1)
    return _unit_rows(folded), _unit_rows(counts)


def _phase_bounds(n: np.ndarray) -> list[tuple]:
    """(start, end) of the three contiguous thirds of range(n), elementwise
    over an array of n; the remainder goes to the later phases."""
    b, r = np.divmod(n, 3)
    e1 = 2 * b + (r == 2)
    return [(0, b), (b, e1), (e1, n)]


def behavioral_matrix(session: Session, width: int, height: int) -> np.ndarray:
    """T x 48 matrix of prefix features, one row per decision, for a game
    played on a width x height dungeon."""
    decisions = session.decisions
    n_steps = len(decisions)
    rows = np.zeros((n_steps, N_BEHAVIORAL))
    if n_steps == 0:
        return rows
    cats, sizes, offered, path = [], [], [], []
    # movement path; start room enters on the first decision
    x0, y0 = x, y = decisions[0].room
    unique = {(x, y)}
    moves = dist_sum = turns = backtracks = 0
    prev_delta = None
    for decision in decisions:
        options = decision.available
        action = options[decision.chosen]
        cats.append(action.category.value)
        sizes.append(len(options))
        offered += [a.category.value for a in options]
        delta = action.move_delta
        if delta is not None:
            dx, dy = delta
            x += dx
            y += dy
            unique.add((x, y))
            moves += 1
            dist_sum += abs(x - x0) + abs(y - y0)
            if prev_delta is not None:
                turns += delta != prev_delta
                backtracks += dx == -prev_delta[0] and dy == -prev_delta[1]
            prev_delta = delta
        path.append((len(unique), moves, dist_sum, abs(x - x0) + abs(y - y0), turns, backtracks))

    steps = np.arange(n_steps)
    n = steps + 1.0
    cat = np.array(cats)
    # chosen[k]: per-category choice counts over decisions 0..k-1
    chosen = np.zeros((n_steps + 1, N_CATEGORIES))
    chosen[steps + 1, cat] = 1.0
    chosen = chosen.cumsum(axis=0)
    # decision t > 0 adds the transition from decision t - 1; row 0 has none
    trans = np.zeros((n_steps, N_TRANSITION))
    trans[steps[1:], _TRANSITION_SLOT[cat[:-1], cat[1:]]] = 1.0
    rows[1:, :N_TRANSITION] = trans.cumsum(axis=0)[1:] / steps[1:, None]

    base = N_TRANSITION
    avail = np.zeros((n_steps, N_CATEGORIES))
    avail[np.repeat(steps, sizes), offered] = 1.0
    avail = avail.cumsum(axis=0)
    rows[:, base : base + 5] = avail / n[:, None]
    # chosen implies available, so the 0/0 case is exactly "never offered"
    rows[:, base + 5 : base + 10] = chosen[1:] / np.maximum(avail, 1)
    rows[:, base + 10] = np.cumsum(sizes) / n / 6.0
    p = chosen[1:] / n[:, None]
    terms = np.zeros_like(p)
    seen = p > 0
    terms[seen] = p[seen] * np.log(p[seen])
    # summed in index order as a 1-D sum would; the +0.0 of unseen categories is exact
    entropy = terms[:, 0]
    for c in range(1, N_CATEGORIES):
        entropy = entropy + terms[:, c]
    rows[:, base + 11] = -entropy / np.log(N_CATEGORIES)

    base = N_TRANSITION + N_AVAIL_SELECT
    for phase, (s, e) in enumerate(_phase_bounds(steps + 1)):
        size = np.maximum(e - s, 1)[:, None]  # an empty phase counts zeros: 0 / 1
        rows[:, base + 5 * phase : base + 5 * (phase + 1)] = (chosen[e] - chosen[s]) / size

    base = N_TRANSITION + N_AVAIL_SELECT + N_TEMPORAL
    unique_n, moves, dist_sum, net, turns, backtracks = np.array(path, dtype=np.float64).T
    positions = moves + 1
    moved = moves > 0
    rows[:, base] = unique_n / (width * height)
    rows[moved, base + 1] = 1.0 - unique_n[moved] / positions[moved]
    rows[:, base + 2] = (dist_sum / positions) / (width - 1 + height - 1)
    rows[moved, base + 3] = net[moved] / moves[moved]
    turning = moves > 1
    rows[turning, base + 4] = turns[turning] / (moves[turning] - 1)
    rows[turning, base + 5] = backtracks[turning] / (moves[turning] - 1)
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
