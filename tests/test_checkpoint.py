"""The flat parameter container and the .pbck v2 file format."""

import struct

import numpy as np
import pytest

from profilebench.errors import SchemaMismatch
from profilebench.models.checkpoint import (
    CHECKPOINT_VERSION,
    POOL_ATTENTION,
    POOL_LAST,
    POOL_MULTI,
    init_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

POOLINGS = [POOL_MULTI, POOL_ATTENTION, POOL_LAST]


def _ckpt(pooling, seed=4):
    ckpt = init_checkpoint(
        input_dim=7, hidden=5, n_classes=6, pooling=pooling, seed=seed,
        label_space_tag="profile36", schema_version=3, attention_size=4,
    )
    # non-trivial values everywhere, heads included
    ckpt.flat[...] = np.random.default_rng(seed).normal(0, 1, ckpt.flat.size)
    return ckpt


def _header_bytes(ckpt):
    tag, pooling = ckpt.label_space_tag.encode(), ckpt.pooling.encode()
    return 4 + 4 + 2 + len(tag) + 2 + len(pooling) + 20


@pytest.mark.parametrize("pooling", POOLINGS)
class TestRoundTrip:
    def test_params_come_back_bitwise_equal(self, tmp_path, pooling):
        ckpt = _ckpt(pooling)
        ckpt.config_digest = "abc"
        ckpt.history = [{"epoch": 0, "train_loss": 1.5, "val_accuracy": 0.25}]
        path = tmp_path / "m.pbck"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert list(back.layout) == list(ckpt.layout)
        for name in ckpt.layout:
            assert back.params[name].dtype == np.float32
            np.testing.assert_array_equal(back.params[name], ckpt.params[name])
        for attr in ("pooling", "label_space_tag", "schema_version", "input_dim", "hidden",
                     "n_classes", "attention_size", "config_digest", "history"):
            assert getattr(back, attr) == getattr(ckpt, attr), attr

    def test_file_is_header_plus_four_bytes_per_parameter(self, tmp_path, pooling):
        ckpt = _ckpt(pooling)
        path = tmp_path / "m.pbck"
        save_checkpoint(path, ckpt)
        n_params = sum(v.size for v in ckpt.params.values())
        assert n_params == ckpt.flat.size
        assert path.stat().st_size == _header_bytes(ckpt) + 4 * n_params


class TestDamagedFiles:
    def _saved(self, tmp_path):
        path = tmp_path / "m.pbck"
        save_checkpoint(path, _ckpt(POOL_MULTI))
        return path, path.read_bytes()

    def test_v1_header_names_the_version(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:4] + struct.pack("<I", 1) + data[8:])
        with pytest.raises(SchemaMismatch, match="version 1") as err:
            load_checkpoint(path)
        assert path.name in str(err.value)
        assert CHECKPOINT_VERSION == 2

    @pytest.mark.parametrize("size", [0, 3, 6, 11, 30, 45])
    def test_cut_header_is_schema_mismatch(self, tmp_path, size):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:size])
        with pytest.raises(SchemaMismatch, match=path.name):
            load_checkpoint(path)

    def test_cut_parameter_block_is_schema_mismatch(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:-4])
        with pytest.raises(SchemaMismatch, match="expected"):
            load_checkpoint(path)

    def test_trailing_byte_is_schema_mismatch(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data + b"\0")
        with pytest.raises(SchemaMismatch, match=path.name):
            load_checkpoint(path)

    def test_invalid_utf8_is_schema_mismatch(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(data[:10] + b"\xff" + data[11:])  # first byte of the tag
        with pytest.raises(SchemaMismatch, match=path.name):
            load_checkpoint(path)

    def test_bad_magic_is_schema_mismatch(self, tmp_path):
        path, data = self._saved(tmp_path)
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(SchemaMismatch, match="magic"):
            load_checkpoint(path)


class TestFlatBuffer:
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_params_are_views_of_the_flat_vector(self, pooling):
        ckpt = _ckpt(pooling)
        start = 0
        for name in ckpt.layout:
            view = ckpt.params[name]
            assert np.shares_memory(view, ckpt.flat), name
            np.testing.assert_array_equal(view.reshape(-1), ckpt.flat[start : start + view.size])
            start += view.size
        assert start == ckpt.flat.size
        ckpt.params["fwd_W"][0, 0] = 123.0
        assert ckpt.flat[0] == 123.0

    def test_rebinding_a_parameter_raises(self):
        ckpt = _ckpt(POOL_MULTI)
        with pytest.raises(TypeError):
            ckpt.params["fwd_W"] = np.zeros_like(ckpt.params["fwd_W"])

    def test_copy_is_independent_of_its_source(self):
        ckpt = _ckpt(POOL_ATTENTION)
        ckpt.history = [{"epoch": 0}]
        dup = ckpt.copy()
        assert not np.shares_memory(dup.flat, ckpt.flat)
        np.testing.assert_array_equal(dup.flat, ckpt.flat)
        assert np.shares_memory(dup.params["attn_ctx"], dup.flat)
        before = ckpt.flat.copy()
        dup.params["attn_ctx"][...] = -7.0
        dup.history.append({"epoch": 1})
        np.testing.assert_array_equal(ckpt.flat, before)
        assert ckpt.history == [{"epoch": 0}]
