"""Model parameter container, seeded initialization, and checkpoint files.

The binary layout ("PBCK") stores parameter blocks as little-endian f32 in
one fixed declared order so files round-trip bit-identically; a JSON
sidecar carries the config digest and training history.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from profilebench.errors import ConfigInvalid, IoFailure, SchemaMismatch
from profilebench.hashing import mix_seed, read_json

POOL_MULTI = "multipool"
POOL_ATTENTION = "attention"
POOL_LAST = "last"
_POOLINGS = (POOL_MULTI, POOL_ATTENTION, POOL_LAST)

CHECKPOINT_VERSION = 1
_MAGIC = b"PBCK"


def readout_dim(pooling: str, hidden: int) -> int:
    if pooling == POOL_MULTI:
        return 4 * hidden
    if pooling in (POOL_ATTENTION, POOL_LAST):
        return 2 * hidden
    raise ConfigInvalid(f"unknown pooling {pooling!r}")


@dataclass
class Checkpoint:
    pooling: str
    label_space_tag: str
    schema_version: int
    input_dim: int
    hidden: int
    n_classes: int
    attention_size: int
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    adam_step: int = 0
    config_digest: str = ""
    history: list = field(default_factory=list)

    def param_order(self) -> list[str]:
        names = [
            "fwd_W", "fwd_R", "fwd_b",
            "bwd_W", "bwd_R", "bwd_b",
            "head_profile_W", "head_profile_b",
            "head_align_W", "head_align_b",
            "head_motiv_W", "head_motiv_b",
        ]
        if self.pooling == POOL_ATTENTION:
            names += ["attn_proj", "attn_ctx"]
        return names

    def copy(self) -> "Checkpoint":
        return Checkpoint(
            pooling=self.pooling,
            label_space_tag=self.label_space_tag,
            schema_version=self.schema_version,
            input_dim=self.input_dim,
            hidden=self.hidden,
            n_classes=self.n_classes,
            attention_size=self.attention_size,
            params={k: v.copy() for k, v in self.params.items()},
            adam_m={k: v.copy() for k, v in self.adam_m.items()},
            adam_v={k: v.copy() for k, v in self.adam_v.items()},
            adam_step=self.adam_step,
            config_digest=self.config_digest,
            history=list(self.history),
        )


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
    d_scale = 1.0 / np.sqrt(input_dim)
    h_scale = 1.0 / np.sqrt(hidden)
    r_dim = readout_dim(pooling, hidden)

    def bias() -> np.ndarray:
        b = np.zeros(4 * hidden, dtype)
        b[hidden : 2 * hidden] = 1.0
        return b

    params: dict[str, np.ndarray] = {}
    for prefix in ("fwd", "bwd"):
        params[f"{prefix}_W"] = rng.uniform(-d_scale, d_scale, (4 * hidden, input_dim)).astype(dtype)
        params[f"{prefix}_R"] = rng.uniform(-h_scale, h_scale, (4 * hidden, hidden)).astype(dtype)
        params[f"{prefix}_b"] = bias()
    for name, rows in (("profile", n_classes), ("align", 9), ("motiv", 4)):
        params[f"head_{name}_W"] = np.zeros((rows, r_dim), dtype)
        params[f"head_{name}_b"] = np.zeros(rows, dtype)
    if pooling == POOL_ATTENTION:
        s_scale = 1.0 / np.sqrt(2 * hidden)
        a_scale = 1.0 / np.sqrt(attention_size)
        params["attn_proj"] = rng.uniform(-s_scale, s_scale, (attention_size, 2 * hidden)).astype(dtype)
        params["attn_ctx"] = rng.uniform(-a_scale, a_scale, attention_size).astype(dtype)

    ckpt = Checkpoint(
        pooling=pooling,
        label_space_tag=label_space_tag,
        schema_version=schema_version,
        input_dim=input_dim,
        hidden=hidden,
        n_classes=n_classes,
        attention_size=attention_size if pooling == POOL_ATTENTION else 0,
        params=params,
    )
    ckpt.adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    ckpt.adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    return ckpt


def _write_str(fh, s: str) -> None:
    data = s.encode("utf-8")
    fh.write(struct.pack("<H", len(data)))
    fh.write(data)


def _read_str(fh) -> str:
    (n,) = struct.unpack("<H", fh.read(2))
    return fh.read(n).decode("utf-8")


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    path = Path(path)
    try:
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            _write_str(fh, ckpt.label_space_tag)
            _write_str(fh, ckpt.pooling)
            fh.write(
                struct.pack(
                    "<IIIII",
                    ckpt.schema_version,
                    ckpt.input_dim,
                    ckpt.hidden,
                    ckpt.n_classes,
                    ckpt.attention_size,
                )
            )
            for name in ckpt.param_order():
                fh.write(np.ascontiguousarray(ckpt.params[name], dtype="<f4").tobytes())
            fh.write(struct.pack("<Q", ckpt.adam_step))
            for moments in (ckpt.adam_m, ckpt.adam_v):
                for name in ckpt.param_order():
                    fh.write(np.ascontiguousarray(moments[name], dtype="<f4").tobytes())
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
        with open(path.with_suffix(path.suffix + ".json"), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"checkpoint write failed: {exc}") from exc


def _param_shapes(ckpt: Checkpoint) -> dict[str, tuple]:
    h, d, p = ckpt.hidden, ckpt.input_dim, ckpt.n_classes
    r = readout_dim(ckpt.pooling, h)
    shapes = {
        "fwd_W": (4 * h, d), "fwd_R": (4 * h, h), "fwd_b": (4 * h,),
        "bwd_W": (4 * h, d), "bwd_R": (4 * h, h), "bwd_b": (4 * h,),
        "head_profile_W": (p, r), "head_profile_b": (p,),
        "head_align_W": (9, r), "head_align_b": (9,),
        "head_motiv_W": (4, r), "head_motiv_b": (4,),
    }
    if ckpt.pooling == POOL_ATTENTION:
        a = ckpt.attention_size
        shapes["attn_proj"] = (a, 2 * h)
        shapes["attn_ctx"] = (a,)
    return shapes


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise SchemaMismatch(f"{path}: bad magic {magic!r}")
            (version,) = struct.unpack("<I", fh.read(4))
            if version != CHECKPOINT_VERSION:
                raise SchemaMismatch(f"{path}: checkpoint version {version}")
            label_space_tag = _read_str(fh)
            pooling = _read_str(fh)
            schema_version, input_dim, hidden, n_classes, attention_size = struct.unpack(
                "<IIIII", fh.read(20)
            )
            ckpt = Checkpoint(
                pooling=pooling,
                label_space_tag=label_space_tag,
                schema_version=schema_version,
                input_dim=input_dim,
                hidden=hidden,
                n_classes=n_classes,
                attention_size=attention_size,
                params={},
            )
            shapes = _param_shapes(ckpt)

            def read_block(shape) -> np.ndarray:
                count = int(np.prod(shape))
                buf = fh.read(4 * count)
                if len(buf) < 4 * count:
                    raise SchemaMismatch(f"{path}: truncated parameter block")
                return np.frombuffer(buf, dtype="<f4").reshape(shape).astype(np.float32)

            for name in ckpt.param_order():
                ckpt.params[name] = read_block(shapes[name])
            (ckpt.adam_step,) = struct.unpack("<Q", fh.read(8))
            ckpt.adam_m = {n: read_block(shapes[n]) for n in ckpt.param_order()}
            ckpt.adam_v = {n: read_block(shapes[n]) for n in ckpt.param_order()}
    except OSError as exc:
        raise IoFailure(f"checkpoint read failed: {exc}") from exc
    sidecar_path = path.with_suffix(path.suffix + ".json")
    if sidecar_path.exists():
        ckpt.config_digest, ckpt.history = read_json(
            sidecar_path,
            "checkpoint sidecar",
            lambda doc: (doc.get("config_digest", ""), doc.get("history", [])),
        )
    return ckpt
