"""Model parameter container, seeded initialization, and checkpoint files.

A checkpoint keeps every parameter in one contiguous vector, `flat`, laid
out by `param_layout` (names and shapes in a fixed order). `params` is a
read-only mapping of reshaped views into it, so Adam, gradient clipping and
copies each run as one array operation, and rebinding a name raises instead
of silently detaching it from the vector the optimizer updates. The Adam
moments are not part of it: `training.train` keeps them, two vectors of
the same layout, for the length of one run.

The binary layout ("PBCK" version 2) is a header and then the parameter
vector as one little-endian f32 block, and nothing after it. It holds no
Adam state: training cannot resume from a .pbck, and never could, because
every training run starts from `init_checkpoint`. A JSON sidecar carries
the config digest and training history.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from profilebench.errors import ConfigInvalid, IoFailure, SchemaMismatch
from profilebench.hashing import atomic_output, mix_seed, read_json, write_text_atomic

POOL_MULTI = "multipool"
POOL_ATTENTION = "attention"
POOL_LAST = "last"
_POOLINGS = (POOL_MULTI, POOL_ATTENTION, POOL_LAST)

CHECKPOINT_VERSION = 2
_MAGIC = b"PBCK"
# header fields after magic and version: two u16-prefixed UTF-8 strings, five u32
_TEXT_FIELDS = ("label_space_tag", "pooling")
_DIM_FIELDS = ("schema_version", "input_dim", "hidden", "n_classes", "attention_size")
_LAYOUT_FIELDS = ("pooling", "input_dim", "hidden", "n_classes", "attention_size")


def readout_dim(pooling: str, hidden: int) -> int:
    if pooling == POOL_MULTI:
        return 4 * hidden
    if pooling in (POOL_ATTENTION, POOL_LAST):
        return 2 * hidden
    raise ConfigInvalid(f"unknown pooling {pooling!r}")


def param_layout(
    pooling: str, input_dim: int, hidden: int, n_classes: int, attention_size: int
) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in the order of the flat vector."""
    h, d, r = hidden, input_dim, readout_dim(pooling, hidden)
    layout: dict[str, tuple[int, ...]] = {}
    for prefix in ("fwd", "bwd"):
        layout |= {f"{prefix}_W": (4 * h, d), f"{prefix}_R": (4 * h, h), f"{prefix}_b": (4 * h,)}
    for head, rows in (("profile", n_classes), ("align", 9), ("motiv", 4)):
        layout |= {f"head_{head}_W": (rows, r), f"head_{head}_b": (rows,)}
    if pooling == POOL_ATTENTION:
        layout |= {"attn_proj": (attention_size, 2 * h), "attn_ctx": (attention_size,)}
    return layout


def _size(layout: dict[str, tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in layout.values())


@dataclass(eq=False)
class Checkpoint:
    pooling: str
    label_space_tag: str
    schema_version: int
    input_dim: int
    hidden: int
    n_classes: int
    attention_size: int
    flat: np.ndarray
    config_digest: str = ""
    history: list = field(default_factory=list)
    layout: dict[str, tuple[int, ...]] = field(init=False, repr=False)
    params: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.layout = param_layout(*(getattr(self, name) for name in _LAYOUT_FIELDS))
        self.params = self.views(self.flat)

    def views(self, flat: np.ndarray) -> MappingProxyType:
        """Read-only {name: view} over a vector laid out like `flat`."""
        out, start = {}, 0
        for name, shape in self.layout.items():
            stop = start + math.prod(shape)
            out[name] = flat[start:stop].reshape(shape)
            start = stop
        return MappingProxyType(out)

    def copy(self) -> "Checkpoint":
        return replace(self, flat=self.flat.copy(), history=list(self.history))


def init_checkpoint(
    input_dim: int,
    hidden: int,
    n_classes: int,
    pooling: str,
    seed: int,
    label_space_tag: str,
    schema_version: int,
    attention_size: int = 64,
    dtype=np.float32,
) -> Checkpoint:
    """Seeded init: uniform(+-1/sqrt(D)) input blocks, uniform(+-1/sqrt(H))
    recurrent blocks, forget-gate bias +1, zero heads."""
    if pooling not in _POOLINGS:
        raise ConfigInvalid(f"unknown pooling {pooling!r}")
    rng = np.random.Generator(np.random.PCG64(mix_seed(seed, "init", pooling, input_dim, hidden)))
    attention_size = attention_size if pooling == POOL_ATTENTION else 0
    layout = param_layout(pooling, input_dim, hidden, n_classes, attention_size)
    ckpt = Checkpoint(
        pooling=pooling,
        label_space_tag=label_space_tag,
        schema_version=schema_version,
        input_dim=input_dim,
        hidden=hidden,
        n_classes=n_classes,
        attention_size=attention_size,
        flat=np.zeros(_size(layout), dtype),
    )
    p = ckpt.params

    def uniform(name: str, fan_in: int) -> None:
        scale = 1.0 / np.sqrt(fan_in)
        p[name][...] = rng.uniform(-scale, scale, p[name].shape)

    for prefix in ("fwd", "bwd"):
        uniform(f"{prefix}_W", input_dim)
        uniform(f"{prefix}_R", hidden)
        p[f"{prefix}_b"][hidden : 2 * hidden] = 1.0
    if pooling == POOL_ATTENTION:
        uniform("attn_proj", 2 * hidden)
        uniform("attn_ctx", attention_size)
    return ckpt


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    path = Path(path)
    header = [_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for name in _TEXT_FIELDS:
        text = getattr(ckpt, name).encode("utf-8")
        header += [struct.pack("<H", len(text)), text]
    header.append(struct.pack("<5I", *(getattr(ckpt, name) for name in _DIM_FIELDS)))
    sidecar = {
        "config_digest": ckpt.config_digest,
        "label_space": ckpt.label_space_tag,
        "pooling": ckpt.pooling,
        "schema_version": ckpt.schema_version,
        "dims": {
            "input": ckpt.input_dim,
            "hidden": ckpt.hidden,
            "classes": ckpt.n_classes,
            "attention": ckpt.attention_size,
        },
        "history": ckpt.history,
    }
    with atomic_output(path, "checkpoint") as fh:
        fh.write(b"".join(header))
        fh.write(ckpt.flat.astype("<f4", copy=False).tobytes())
    sidecar_path = path.with_suffix(path.suffix + ".json")
    write_text_atomic(sidecar_path, json.dumps(sidecar, indent=2, sort_keys=True) + "\n", "checkpoint")


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"checkpoint read failed: {exc}") from exc
    fields: dict = {}
    try:
        magic, version = struct.unpack_from("<4sI", data)
        if magic != _MAGIC:
            raise struct.error(f"bad magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise SchemaMismatch(
                f"{path}: checkpoint version {version}, expected {CHECKPOINT_VERSION}"
            )
        pos = 8
        for name in _TEXT_FIELDS:
            (n,) = struct.unpack_from("<H", data, pos)
            if pos + 2 + n > len(data):
                raise struct.error(f"{name} cut short")
            fields[name] = data[pos + 2 : pos + 2 + n].decode("utf-8")
            pos += 2 + n
        fields |= zip(_DIM_FIELDS, struct.unpack_from("<5I", data, pos))
        pos += 20
    except (struct.error, UnicodeDecodeError) as exc:
        raise SchemaMismatch(f"{path}: damaged checkpoint header: {exc}") from exc
    if fields["pooling"] not in _POOLINGS:
        raise SchemaMismatch(f"{path}: unknown pooling {fields['pooling']!r}")
    size = _size(param_layout(*(fields[name] for name in _LAYOUT_FIELDS)))
    if len(data) != pos + 4 * size:
        raise SchemaMismatch(
            f"{path}: {len(data)} bytes, expected {pos + 4 * size} for {size} parameters"
        )
    ckpt = Checkpoint(**fields, flat=np.frombuffer(data, "<f4", size, pos).astype(np.float32))
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if sidecar_path.exists():
        ckpt.config_digest, ckpt.history = read_json(
            sidecar_path,
            "checkpoint sidecar",
            lambda doc: (doc.get("config_digest", ""), doc.get("history", [])),
        )
    return ckpt
