"""Per-decision feature extraction and the PBF5 feature file.

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

Text is counted once per game. Each token's bucket and sign are cached
as one int (bucket << 1 | sign bit), and each sentence's token codes are
cached too: a decision's text is split at ". ", and its codes are its
pieces' cached codes plus the bigram joining each piece to the next one
with words. A game's T x 512 signed counts are one bincount over
t * 512 + bucket, and because 128 divides 512 the 128-bucket counts are
those 512 counts folded (bucket b adds into b % 128). These integer
counts are the hashed representation (Weinberger et al.,
arXiv:0902.2206): the file stores the 512 counts, and both sequence
layouts are views of them.

The bucket comes from FNV-1a over b"b:" + token and the sign from the low
bit of FNV-1a over b"s:" + token, but the two are not independent:
FNV-1a's low bit is the parity of the input bytes' low bits, and the two
prefixes differ in exactly that bit. So a token's sign is fixed by its
bucket's parity (odd buckets add +1, even buckets -1, at 128 and 512
alike), and colliding tokens never cancel. Fixing that changes every
hashed-text bit (ROADMAP item 5).

PBF5 layout, little-endian: one file per corpus. Header `<4sIIIII`:
magic b"PBF5", schema version, record count, max T, window_len, stride.
Then one record per game: `<QBII` (game_id, profile index, T, nnz), the
T x 48 behavioral columns as float32, row-major; the game's T x 512 signed
text counts stored sparse, as T `<u2` per-row non-zero counts, then nnz
`<u2` bucket indices, strictly increasing within each row, then the nnz
non-zero counts as int8; then the game's 52 `aggregate_features` as
float64: 17 + 194 T + 3 nnz + 416 bytes. Hashed counts are sparse by
construction (a decision fills ~41 of the 512 buckets), so this halves
the dense 704 T of PBF4, and the reader scatters the values back into
the dense (T, 512) int8 counts, byte for byte those the writer was given.
The reader builds each requested layout with the ops featurize ran when
the files held float rows: the 176 layout is the behavioral columns, then
the counts folded to 128 as unit rows; the 530 layout is the 512 counts
as unit rows, then behavioral columns 0-17. Each text row is divided by
its norm in float64 (the squared norms are small integers, exact) and
cast to float32, so the rows are bit for bit the float32 rows. The
baseline's inputs are the float64 aggregate blocks. Windows overlap
whenever stride < window_len, so the file stores each decision once and
the reader derives the windows from the header's window_len and stride
(`window_starts`), as read-only views into the game's rows.

A caller decodes only the games it uses: `keep` maps each of them to a
group (the pipeline's split), and each group's rows in each layout fill
one preallocated read-only block, game by game in file order, so a
game's rows are a row slice of its group's block. Every record is still
read, hashed and checked, whether it is decoded or not.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Hashable, Iterable, Iterator, Mapping

import numpy as np

from profilebench.dataset import window_starts
from profilebench.errors import DegenerateData, DimensionMismatch, IndexOutOfRange, IoFailure, SchemaMismatch
from profilebench.hashing import fnv1a64
from profilebench.simulator import CATEGORIES, Outcome, Session
from profilebench.taxonomy import PROFILES, Profile

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
    `game`, the game's whole T x D feature matrix, shared by its windows.
    A read game's `game` is a row slice of its group's block (see
    `read_feature_file`)."""

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

# token -> (its bucket of 512) << 1 | (1 if it counts -1). No code is 0
# (bucket 0 is even, so its tokens count -1), so `.get(token) or` never
# hashes a cached token again.
_TOKEN_CODES: dict[str, int] = {}

# piece of text -> (the codes of its unigrams and bigrams, its first word,
# its last word); the words are None when it has none. Decision texts are
# sentences from a fixed template bank, so the pieces are few and repeat.
_PIECES: dict[str, tuple[list[int], str | None, str | None]] = {}


def _hash_token(token: str) -> int:
    data = token.encode("utf-8")
    code = (fnv1a64(b"b:" + data) % N_TEXT_LEGACY) << 1 | (fnv1a64(b"s:" + data) & 1)
    _TOKEN_CODES[token] = code
    return code


def _code(token: str) -> int:
    return _TOKEN_CODES.get(token) or _hash_token(token)


def _piece(piece: str) -> tuple[list[int], str | None, str | None]:
    words = _WORD_RE.findall(piece.lower())
    codes = [_code(w) for w in words] + [_code(f"{a} {b}") for a, b in zip(words, words[1:])]
    entry = _PIECES[piece] = (codes, words[0], words[-1]) if words else (codes, None, None)
    return entry


def _unit_rows(counts: np.ndarray) -> np.ndarray:
    """Each row over its norm; an all-zero row stays zero."""
    norms = np.sqrt(np.einsum("ij,ij->i", counts, counts))
    norms[norms == 0] = 1.0
    return counts / norms[:, None]


def embed_tokens(texts: list[str]) -> np.ndarray:
    """The (T, 512) signed integer counts of a game's T decision texts,
    from one bincount.

    A text's tokens are its lowercase words ([a-z0-9]+) and the bigrams of
    consecutive words. Each text is split at ". ", which no word crosses, so
    its tokens are the tokens of its pieces (cached per piece) plus one
    bigram at each join of a piece's last word with the next worded piece's
    first word. The counts are integer sums, so their order changes nothing.
    """
    codes = []
    lengths = []
    for text in texts:
        start = len(codes)
        last = None
        for piece in text.split(". "):
            piece_codes, first, end = _PIECES.get(piece) or _piece(piece)
            if first is not None:
                if last is not None:
                    codes.append(_code(f"{last} {first}"))
                last = end
            codes += piece_codes
        lengths.append(len(codes) - start)
    codes = np.array(codes, dtype=np.intp)
    n = len(texts)
    rows = np.repeat(np.arange(n) * N_TEXT_LEGACY, lengths)
    counts = np.bincount(rows + (codes >> 1), weights=1 - 2 * (codes & 1), minlength=n * N_TEXT_LEGACY)
    return counts.astype(np.int64).reshape(n, N_TEXT_LEGACY)


def _fold(counts: np.ndarray) -> np.ndarray:
    """The (T, 128) counts of (T, 512) counts: bucket b adds into b % 128."""
    return counts.reshape(len(counts), N_TEXT_LEGACY // N_TEXT, N_TEXT).sum(axis=1)


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
        cats.append(action.category_id)
        sizes.append(len(options))
        offered += [a.category_id for a in options]
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
# Feature file ("PBF5"): one record per game, layouts and windows derived at load.

_MAGIC = b"PBF5"
_OLD_MAGICS = {
    b"PBF1": "per-window records",
    b"PBF2": "float32 text rows",
    b"PBF3": "one file per layout",
    b"PBF4": "dense int8 text counts",
}
_HEADER = struct.Struct("<4sIIIII")  # magic, schema, games, max_T, window_len, stride
_RECORD = struct.Struct("<QBII")  # game_id, profile index, T, nnz
N_AGGREGATE = len(AGGREGATE_SLOT_NAMES)
_ROW_BYTES = 4 * N_BEHAVIORAL + 2  # float32 behavioral columns, then the row's <u2 non-zero count
_NONZERO_BYTES = 3  # a <u2 bucket index and an int8 count
_AGGREGATE_BYTES = 8 * N_AGGREGATE
_INT8 = np.iinfo(np.int8)
SEQUENCE_DIMS = {"176": N_TOTAL, "530": N_LEGACY}  # sequence layout -> row width


class FeatureFileWriter:
    """Streams games into the PBF5 format without holding them all.

    The file is written as `<path>.tmp` and renamed onto `path` on close,
    after the header's record count and max_T are patched, so the bytes are
    identical to a one-shot write. If the `with` body raises, the temp file
    is deleted and an earlier file at `path` is left as it was.
    """

    def __init__(self, path: str | Path, window_len: int, stride: int):
        self.path = Path(path)
        self.window_len = window_len
        self.stride = stride
        self.n = 0
        self.max_t = 0
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            self._fh = open(self._tmp, "wb")
            self._fh.write(self._header())
        except OSError as exc:
            raise IoFailure(f"feature file open failed: {exc}") from exc

    def _header(self) -> bytes:
        return _HEADER.pack(_MAGIC, SCHEMA_VERSION, self.n, self.max_t, self.window_len, self.stride)

    def add(self, sample: SequenceSample, counts: np.ndarray, aggregate: np.ndarray) -> None:
        """Append one game: `sample.game`, its T x 48 behavioral rows;
        `counts`, its T x 512 signed text counts, integers in [-128, 127]
        (any other count raises DegenerateData), stored as their non-zero
        entries in row-major order; and `aggregate`, its 52
        `aggregate_features`."""
        t = sample.game.shape[0]
        shapes = (sample.game.shape, counts.shape, aggregate.shape)
        if shapes != ((t, N_BEHAVIORAL), (t, N_TEXT_LEGACY), (N_AGGREGATE,)):
            raise DimensionMismatch(
                f"game {sample.game_id}: shapes {shapes}, expected "
                f"(T, {N_BEHAVIORAL}), (T, {N_TEXT_LEGACY}), ({N_AGGREGATE},)"
            )
        in_range = counts.size == 0 or (_INT8.min <= counts.min() and counts.max() <= _INT8.max)
        int8 = counts.astype(np.int8) if in_range else None  # NaN is out of range
        if int8 is None or not np.array_equal(int8, counts):
            raise DegenerateData(
                f"game {sample.game_id}: text counts must be integers in "
                f"[{_INT8.min}, {_INT8.max}] to be stored as int8"
            )
        flat = int8.reshape(-1)
        # t * 512 + bucket, increasing; nonzero scans a bool mask ~3x faster than int8
        nonzero = np.flatnonzero(flat != 0)
        row_nnz = np.bincount(nonzero // N_TEXT_LEGACY, minlength=t)
        try:
            self._fh.write(_RECORD.pack(sample.game_id, sample.profile.index, t, len(nonzero)))
            self._fh.write(sample.game.astype("<f4").tobytes())
            self._fh.write(row_nnz.astype("<u2").tobytes())
            self._fh.write((nonzero % N_TEXT_LEGACY).astype("<u2").tobytes())
            self._fh.write(flat[nonzero].tobytes())
            self._fh.write(aggregate.astype("<f8").tobytes())
        except OSError as exc:
            raise IoFailure(f"feature file write failed: {exc}") from exc
        self.n += 1
        self.max_t = max(self.max_t, t)

    def close(self) -> int:
        try:
            self._fh.seek(0)
            self._fh.write(self._header())
            self._fh.close()
            os.replace(self._tmp, self.path)
        except OSError as exc:
            self._discard()
            raise IoFailure(f"feature file close failed: {exc}") from exc
        return self.n

    def _discard(self) -> None:
        self._fh.close()
        self._tmp.unlink(missing_ok=True)

    def __enter__(self) -> "FeatureFileWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._discard()


def _read_header(path: str | Path, fh: BinaryIO, sha=None) -> dict:
    """The header of a PBF5 file; another format raises SchemaMismatch."""
    raw = fh.read(_HEADER.size)
    if raw[:4] in _OLD_MAGICS:
        raise SchemaMismatch(
            f"{path}: bad magic {raw[:4]!r} ({_OLD_MAGICS[raw[:4]]} from an older featurize; rerun featurize)"
        )
    if len(raw) < _HEADER.size:
        raise SchemaMismatch(f"{path}: truncated header")
    if sha is not None:
        sha.update(raw)
    magic, version, n_games, max_t, window_len, stride = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise SchemaMismatch(f"{path}: bad magic {magic!r}")
    if version != SCHEMA_VERSION:
        raise SchemaMismatch(f"{path}: schema version {version}, expected {SCHEMA_VERSION}")
    if window_len < 1 or stride < 1:
        raise SchemaMismatch(f"{path}: window_len {window_len}, stride {stride}")
    return {"schema_version": version, "n_games": n_games, "max_T": max_t, "window_len": window_len, "stride": stride}


def _records(path: str | Path, fh: BinaryIO, header: dict, sha=None) -> Iterator[tuple]:
    """(game_id, profile_index, T, nnz, payload) per record after the
    header. With `sha`, each payload is read and every byte hashed into
    `sha`; without, payloads are skipped by seeking (None). A record cut
    short, bytes after the last record, or a profile index outside the
    profiles raises SchemaMismatch naming the record."""
    n_games = header["n_games"]
    file_size = os.fstat(fh.fileno()).st_size
    for i in range(n_games):
        raw = fh.read(_RECORD.size)
        if len(raw) < _RECORD.size:
            raise SchemaMismatch(f"{path}: record {i} of {n_games} cut short in its header")
        game_id, profile_idx, t, nnz = _RECORD.unpack(raw)
        if profile_idx >= len(PROFILES):
            raise SchemaMismatch(
                f"{path}: record {i} (game {game_id}) has profile index {profile_idx}, "
                f"outside the {len(PROFILES)} profiles"
            )
        size = t * _ROW_BYTES + nnz * _NONZERO_BYTES + _AGGREGATE_BYTES
        if fh.tell() + size > file_size:
            raise SchemaMismatch(f"{path}: record {i} (game {game_id}) of {n_games} cut short")
        payload = None
        if sha is None:
            fh.seek(size, 1)
        else:
            payload = fh.read(size)
            sha.update(raw)
            sha.update(payload)
        yield game_id, profile_idx, t, nnz, payload
    if fh.tell() != file_size:
        raise SchemaMismatch(f"{path}: {file_size - fh.tell()} trailing byte(s) after its {n_games} records")


def _text_counts(where: str, t: int, nnz: int, payload: bytes) -> np.ndarray:
    """A record's dense (T, 512) int8 text counts, scattered from its
    sparse block; a block the writer cannot have written (row counts not
    summing to nnz, a bucket outside 0-511, buckets not strictly
    increasing within a row, a stored zero) raises SchemaMismatch."""
    at = 4 * N_BEHAVIORAL * t
    row_nnz = np.frombuffer(payload, "<u2", t, at)
    buckets = np.frombuffer(payload, "<u2", nnz, at + 2 * t)
    values = np.frombuffer(payload, np.int8, nnz, at + 2 * t + 2 * nnz)
    if row_nnz.sum() != nnz:
        raise SchemaMismatch(f"{where}: its rows' non-zero counts sum to {row_nnz.sum()}, not its {nnz}")
    if nnz and buckets.max() >= N_TEXT_LEGACY:
        raise SchemaMismatch(f"{where}: text bucket {buckets.max()} outside 0-{N_TEXT_LEGACY - 1}")
    flat = np.repeat(np.arange(t) * N_TEXT_LEGACY, row_nnz) + buckets
    if (flat[1:] <= flat[:-1]).any():
        raise SchemaMismatch(f"{where}: text buckets not strictly increasing within a row")
    if np.count_nonzero(values) != nnz:
        raise SchemaMismatch(f"{where}: a stored text count is zero")
    counts = np.zeros(t * N_TEXT_LEGACY, np.int8)
    counts[flat] = values
    return counts.reshape(t, N_TEXT_LEGACY)


def _layout_rows(layout: str, behavioral: np.ndarray, counts: np.ndarray, out: np.ndarray) -> None:
    """A game's float32 rows in a sequence layout, written into `out`,
    from its float32 behavioral rows and int8 counts: each text row over
    its norm in float64 (the squared norms are small integers, exact),
    cast to float32, in the layout's column order."""
    if layout == "176":
        parts = (behavioral, _unit_rows(_fold(counts).astype(np.float64)))
    else:
        parts = (_unit_rows(counts.astype(np.float64)), behavioral[:, :N_BEHAVIORAL_LEGACY])
    np.concatenate(parts, axis=1, out=out, casting="same_kind")


def scan_feature_file(path: str | Path) -> list[tuple[int, int, int]]:
    """(game_id, profile_index, window length) per window, in load order,
    reading only the file's headers."""
    try:
        with open(path, "rb") as fh:
            header = _read_header(path, fh)
            records = list(_records(path, fh, header))
    except OSError as exc:
        raise IoFailure(f"feature file read failed: {exc}") from exc
    return [
        (game_id, profile_idx, length)
        for game_id, profile_idx, t, _, _ in records
        for _, length in window_starts(t, header["window_len"], header["stride"])
    ]


def read_feature_file(
    path: str | Path, layouts: Iterable[str] = ("176",), keep: Mapping[int, Hashable] | None = None
) -> tuple[dict[str, list[SequenceSample]], tuple[np.ndarray, np.ndarray, list[int]] | None, dict]:
    """Read a PBF5 file, decoding only `layouts` of the games in `keep`;
    returns (samples, aggregates, header). Every record is read, hashed
    and has its text block checked, whether it is decoded or not.

    `keep` maps a game id to its group (an id the file lacks decodes
    nothing); None keeps every game in one group. A first pass over the
    record headers sizes each group, then each group's rows in each
    sequence layout fill one preallocated read-only float32 block, game
    by game in file order.

    `samples` maps each sequence layout in `layouts` ("176", "530") to the
    kept games' per-window samples, in file order, then window order. A
    game's `game` is its row slice of its group's block, shared by its
    windows, so each `matrix` is a view of it. With "agg" in `layouts`,
    `aggregates` is (X, profile indices, game_ids) of the kept games, X
    their n x 52 float64 `aggregate_features` rows; otherwise it is None.
    The header carries the file's sha256.
    """
    layouts = set(layouts)
    sha = hashlib.sha256()
    samples: dict[str, list[SequenceSample]] = {layout: [] for layout in SEQUENCE_DIMS if layout in layouts}
    aggregate_bytes, ys, ids = [], [], []
    try:
        with open(path, "rb") as fh:
            header = _read_header(path, fh, sha)
            records = list(_records(path, fh, header))
            if keep is None:
                keep = dict.fromkeys(game_id for game_id, *_ in records)
            sizes = dict.fromkeys(keep.values(), 0)
            for game_id, _, t, _, _ in records:
                if game_id in keep:
                    sizes[keep[game_id]] += t
            blocks = {
                layout: {group: np.empty((n, SEQUENCE_DIMS[layout]), "<f4") for group, n in sizes.items()}
                for layout in samples
            }
            filled = dict.fromkeys(sizes, 0)
            fh.seek(_HEADER.size)
            for i, (game_id, profile_idx, t, nnz, payload) in enumerate(_records(path, fh, header, sha)):
                counts = _text_counts(f"{path}: record {i} (game {game_id})", t, nnz, payload)
                if game_id not in keep:
                    continue
                group = keep[game_id]
                at = filled[group]
                filled[group] += t
                if samples:
                    behavioral = np.frombuffer(payload, "<f4", t * N_BEHAVIORAL).reshape(t, N_BEHAVIORAL)
                    windows = window_starts(t, header["window_len"], header["stride"])
                for layout, loaded in samples.items():
                    game = blocks[layout][group][at : at + t]
                    _layout_rows(layout, behavioral, counts, game)
                    game.flags.writeable = False
                    loaded += [SequenceSample(game_id, PROFILES[profile_idx], w, game) for w in windows]
                if "agg" in layouts:
                    aggregate_bytes.append(payload[-_AGGREGATE_BYTES:])
                    ys.append(profile_idx)
                    ids.append(game_id)
    except OSError as exc:
        raise IoFailure(f"feature file read failed: {exc}") from exc
    for by_group in blocks.values():
        for block in by_group.values():
            block.flags.writeable = False
    aggregates = None
    if "agg" in layouts:
        X = np.frombuffer(b"".join(aggregate_bytes), dtype="<f8").reshape(len(ids), N_AGGREGATE)
        aggregates = (X, np.array(ys, dtype=np.int64), ids)
    header["sha256"] = sha.hexdigest()
    return samples, aggregates, header
