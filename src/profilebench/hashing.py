"""Deterministic hashing and seed-derivation helpers, the JSON codec, and
the one atomic writer every pipeline artifact goes through.

The hashing is fixed-width integer arithmetic so results are identical
across platforms, Python versions, and process counts.

`fold_seed_array` runs the `fold_seed` round over `np.uint64` arrays, one
chain per element: xor a part in, then one SplitMix64 round whose
multiplies wrap at 2**64. Every constant and shift count is an explicit
`np.uint64`, so no result depends on how numpy promotes Python ints.

`atomic_output` is how every artifact reaches disk: its bytes go to
`<path>.tmp`, renamed onto `path` once complete, so a write that fails
part-way leaves the earlier file and no temp file for a later stage to read.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator

import numpy as np

from profilebench.errors import IoFailure, SchemaMismatch

_MASK64 = 0xFFFFFFFFFFFFFFFF

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x00000100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling round; the standard 64-bit finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


# fnv1a64 of each string part seen by fold_seed. The string parts are tags
# and template/row ids, a small fixed set, so the dict stays small.
_STR_HASH: dict[str, int] = {}


def fold_seed(h: int, *parts: int | str) -> int:
    """Fold more parts into a seed that `mix_seed` (or `fold_seed`) returned:
    fold_seed(mix_seed(*a), *b) == mix_seed(*a, *b).

    Each part is xored in (a string as its fnv1a64, an int as its low 64
    bits) and followed by one splitmix64 round, run inline. A caller that
    derives many seeds from one prefix folds the prefix once and reuses it.
    """
    for part in parts:
        if isinstance(part, str):
            s = _STR_HASH.get(part)
            if s is None:
                s = _STR_HASH[part] = fnv1a64(part.encode("utf-8"))
            h ^= s
        else:
            h ^= part & _MASK64
        h = (h + 0x9E3779B97F4A7C15) & _MASK64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_U27, _U30, _U31 = np.uint64(27), np.uint64(30), np.uint64(31)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """`splitmix64` of every element of a 1-D uint64 array, as a new array.

    Array ufuncs wrap on overflow without a warning (numpy scalar maths
    would warn), so `x` must be an array, not a numpy scalar.
    """
    z = x + _GAMMA
    z ^= z >> _U30
    z *= _MUL1
    z ^= z >> _U27
    z *= _MUL2
    z ^= z >> _U31
    return z


def fold_seed_array(h: np.ndarray, *parts: np.ndarray) -> np.ndarray:
    """`fold_seed` of every element of the 1-D uint64 array `h`. A part is a
    uint64 array of the same length (one part per chain) or an `np.uint64`
    folded into every chain; a string part is passed as its fnv1a64."""
    for part in parts:
        h = splitmix64_array(h ^ part)
    return h


def mix_seed(*parts: int | str) -> int:
    """Fold integers and strings into one well-mixed 64-bit seed.

    The derived seed depends only on the argument values, never on call
    order or on draws made elsewhere, so every game, balance class and
    training row gets its own stream that no other one can shift.
    """
    return fold_seed(FNV64_OFFSET, *parts)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def stable_json_dumps(obj) -> str:
    """Canonical JSON used for digests and on-disk reports.

    Sorted keys and fixed separators make re-serialization byte-stable.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def read_json(path: str | Path, what: str, parse: Callable[[Any], Any] = lambda doc: doc):
    """A JSON artifact decoded and passed through `parse`. A failed read raises
    IoFailure; malformed JSON (say, a truncated file) or a missing or mistyped
    field met by `parse` raises SchemaMismatch naming the file."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"{what} read failed: {exc}") from exc
    try:
        return parse(json.loads(data))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SchemaMismatch(f"{path}: malformed {what}: {type(exc).__name__}: {exc}") from exc


@contextmanager
def atomic_output(path: str | Path, what: str) -> Iterator[BinaryIO]:
    """A binary handle on `<path>.tmp`, renamed onto `path` when the `with`
    body exits cleanly. On any error the temp file is deleted; an OSError
    is raised as IoFailure, anything else as it is."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise IoFailure(f"{what} write failed: {exc}") from exc
        raise


def write_text_atomic(path: str | Path, text: str, what: str) -> None:
    """`text` as UTF-8 through `atomic_output`. Text that UTF-8 cannot
    encode raises before the temp file is opened."""
    data = text.encode("utf-8")
    with atomic_output(path, what) as fh:
        fh.write(data)


def digest_config(obj) -> str:
    return hashlib.sha256(stable_json_dumps(obj).encode("utf-8")).hexdigest()
