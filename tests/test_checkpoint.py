from collections import OrderedDict

import numpy as np
import pytest

from fusecast.checkpoint import load_checkpoint, replacing, save_checkpoint
from fusecast.errors import IngestionError
from fusecast.tensor import Tensor


def _sample_params():
    return OrderedDict([
        ("pattern0.spatial_emb.e1", np.arange(12.0, dtype=np.float32).reshape(3, 4)),
        ("gru.bz", np.array([1.5, -2.5], dtype=np.float64)),
        ("head.out.weight", np.ones((2, 2), dtype=np.float32)),
    ])


def test_roundtrip_preserves_values_dtypes_and_order(tmp_path):
    path = tmp_path / "model.bin"
    params = _sample_params()
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)
    assert loaded["pattern0.spatial_emb.e1"].dtype == np.float32
    assert loaded["gru.bz"].dtype == np.float64
    assert np.array_equal(loaded["gru.bz"], np.array([1.5, -2.5]))
    assert np.array_equal(loaded["head.out.weight"], np.ones((2, 2)))


def test_saving_twice_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, _sample_params())
    save_checkpoint(b, _sample_params())
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)
    with pytest.raises(IngestionError, match="junk.bin"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _sample_params())
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_bytes_after_the_last_record_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _sample_params())
    path.write_bytes(path.read_bytes() + b"\x00" * 29)
    with pytest.raises(IngestionError, match=r"model\.bin: 29 bytes after the records"):
        load_checkpoint(path)


def test_repeated_record_name_rejected(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32), "x": np.ones(2, dtype=np.float32)})
    blob = path.read_bytes()
    assert blob.count(b"\x01\x00x") == 1  # the second record's name length and name
    path.write_bytes(blob.replace(b"\x01\x00x", b"\x01\x00w"))
    with pytest.raises(IngestionError, match=r"model\.bin: record 'w' appears twice"):
        load_checkpoint(path)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(ValueError, match="dtype"):
        save_checkpoint(tmp_path / "x.bin", {"w": np.zeros(3, dtype=np.int64)})
    # a Tensor is not an array: pass its .data
    with pytest.raises(ValueError, match="unsupported dtype object for 'w'"):
        save_checkpoint(tmp_path / "x.bin", {"w": Tensor(np.zeros(3, dtype=np.float32))})
    assert not (tmp_path / "x.bin").exists()


def test_truncation_at_every_offset_raises_ingestion_error(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _sample_params())
    blob = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(IngestionError, match="cut.bin"):
            load_checkpoint(cut)


def test_malformed_fields_raise_ingestion_error(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.zeros((2, 3), dtype=np.float32)})
    blob = path.read_bytes()
    name_end = 16 + 2 + 1  # header, name length, name "w"
    cases = {
        "version": (8, b"\x07\x00\x00\x00"),
        "dtype tag": (name_end, b"\x09"),
        "utf-8": (18, b"\xff"),
        "truncated": (name_end + 2, b"\xff\xff\xff\xff"),  # a dimension past the file end
    }
    for match, (offset, patch) in cases.items():
        bad = bytearray(blob)
        bad[offset:offset + len(patch)] = patch
        path.write_bytes(bytes(bad))
        with pytest.raises(IngestionError, match=match):
            load_checkpoint(path)


def test_failed_save_leaves_earlier_checkpoint_untouched(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, _sample_params())
    before = path.read_bytes()
    bad = OrderedDict([("ok", np.zeros(2, dtype=np.float32)),
                       ("bad", np.zeros(2, dtype=np.int64))])
    with pytest.raises(ValueError, match="dtype"):
        save_checkpoint(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_failed_text_write_leaves_earlier_file_intact(tmp_path):
    path = tmp_path / "history.jsonl"
    with replacing(path) as fh:
        fh.write('{"epoch": 1}\n')
    with pytest.raises(RuntimeError, match="disk"):
        with replacing(path) as fh:
            fh.write('{"epoch": 1}\n{"epoch": 2}\n')
            raise RuntimeError("disk gone mid-write")
    assert path.read_text() == '{"epoch": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["history.jsonl"]
