import hashlib
import struct

import numpy as np
import pytest

from sparsekit.checkpoint import (DENSE_F32, MAGIC, Q8, SPARSE, Checkpoint,
                                  FormatError, checkpoint_from_model,
                                  dense_record, deserialize, load_checkpoint,
                                  model_from_checkpoint, q8_record,
                                  save_checkpoint, serialize, sparse_record)
from sparsekit.model import ModelConfig, build_model
from sparsekit.pruning import prune_step


def small_model(seed=0, **kw):
    cfg = ModelConfig(num_layers=1, hidden=8, heads=2, ffn_dim=16, vocab=16,
                      max_seq=8, has_pooler=False, head_kind="mlm", **kw)
    return build_model(cfg, seed=seed)


def test_header_layout():
    ckpt = checkpoint_from_model(small_model(), "teacher")
    raw = serialize(ckpt)
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<H", raw, 4)[0] == 1
    slen = struct.unpack_from("<H", raw, 6)[0]
    assert raw[8:8 + slen] == b"teacher"


def test_dense_roundtrip_bit_exact():
    model = small_model(seed=5)
    ckpt = checkpoint_from_model(model, "teacher", metrics={"loss": 1.25})
    back = deserialize(serialize(ckpt))
    assert back.stage == "teacher"
    assert back.metrics == {"loss": 1.25}
    assert back.model_config == model.config
    for name, p in model.parameters.items():
        assert back.tensors[name].to_dense().tobytes() == p.values.tobytes()


def test_sparse_record_roundtrip():
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.standard_normal((16, 8)).astype(np.float32)
    w[np.abs(w) < 1.0] = 0.0
    rec = sparse_record("w", w)
    assert rec.storage == SPARSE
    np.testing.assert_array_equal(rec.to_dense(), w)
    ckpt = Checkpoint("sparse-student", small_model().config, {"w": rec})
    back = deserialize(serialize(ckpt))
    assert back.tensors["w"].to_dense().tobytes() == w.tobytes()


def test_sparse_chosen_automatically():
    model = small_model()
    prune_step(model, None, 0.9)
    ckpt = checkpoint_from_model(model, "sparse-student")
    for name in model.prunable_parameters():
        assert ckpt.tensors[name].storage == SPARSE
    assert ckpt.tensors["embeddings.token"].storage == DENSE_F32


def test_sparse_payload_size():
    w = np.zeros(100, dtype=np.float32)
    w[:10] = 1.5
    rec = sparse_record("w", w.reshape(10, 10))
    assert rec.payload_bytes() == 40
    assert rec.bitmap_bytes() == 13


def test_q8_record_roundtrip_with_bitmap():
    w = np.array([[0.0, 0.5], [-1.0, 0.0]], dtype=np.float32)
    rec = q8_record("w", w, scale=1.0 / 127, with_bitmap=True)
    assert rec.storage == Q8
    assert rec.payload.size == 2
    np.testing.assert_allclose(rec.to_dense(), w, atol=1.0 / 254)
    ckpt = Checkpoint("quantized", small_model().config, {"w": rec})
    back = deserialize(serialize(ckpt))
    np.testing.assert_array_equal(back.tensors["w"].to_dense(), rec.to_dense())


def test_model_from_checkpoint_rejects_unknown_tensor():
    raw = serialize(checkpoint_from_model(small_model(), "teacher"))
    renamed = deserialize(raw.replace(b"layer.0.q.weight", b"layer.0.q.wfight", 1))
    with pytest.raises(FormatError, match="'layer.0.q.wfight' is not a parameter"):
        model_from_checkpoint(renamed)


def test_model_from_checkpoint_rejects_wrong_shape():
    ckpt = checkpoint_from_model(small_model(), "teacher")
    assert ckpt.tensors["layer.0.q.weight"].shape == (8, 8)
    ckpt.tensors["layer.0.q.weight"] = dense_record("layer.0.q.weight",
                                                    np.ones((4, 16), dtype=np.float32))
    with pytest.raises(FormatError, match=r"has shape \(4, 16\), the model's is \(8, 8\)"):
        model_from_checkpoint(deserialize(serialize(ckpt)))


def test_model_from_checkpoint_rejects_missing_tensor():
    ckpt = checkpoint_from_model(small_model(), "teacher")
    del ckpt.tensors["layer.0.q.weight"]
    with pytest.raises(FormatError, match="checkpoint has no tensor 'layer.0.q.weight'"):
        model_from_checkpoint(deserialize(serialize(ckpt)))


def test_model_from_checkpoint_skips_only_the_dropped_head():
    ckpt = checkpoint_from_model(small_model(), "teacher")
    # loading as classify drops the MLM head: its records are skipped
    assert "mlm_head.weight" not in model_from_checkpoint(ckpt, head_kind="classify").parameters
    # a head record that the checkpoint's own config does not describe is an error
    ckpt.tensors["classify_head.bias"] = dense_record("classify_head.bias",
                                                      np.zeros(2, dtype=np.float32))
    with pytest.raises(FormatError, match="classify_head.bias"):
        model_from_checkpoint(ckpt)


def test_q8_record_dense_payload():
    w = np.linspace(-1, 1, 8, dtype=np.float32).reshape(2, 4)
    rec = q8_record("w", w, scale=1.0 / 127, with_bitmap=False)
    assert rec.bitmap is None
    assert rec.payload_bytes() == 8
    back = deserialize(serialize(Checkpoint("quantized", small_model().config, {"w": rec})))
    np.testing.assert_array_equal(back.tensors["w"].to_dense(), rec.to_dense())


def test_model_from_checkpoint_head_swap():
    model = small_model(seed=2)
    ckpt = checkpoint_from_model(model, "teacher")
    rebuilt = model_from_checkpoint(ckpt, head_kind="classify", num_labels=3, seed=9)
    assert rebuilt.config.head_kind == "classify"
    # encoder weights carried over, new head freshly seeded
    np.testing.assert_array_equal(rebuilt.parameters["layer.0.q.weight"].values,
                                  model.parameters["layer.0.q.weight"].values)
    assert "classify_head.weight" in rebuilt.parameters


def test_save_load_file(tmp_path):
    model = small_model(seed=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(checkpoint_from_model(model, "teacher"), path)
    back = load_checkpoint(path)
    for name, p in model.parameters.items():
        assert back.tensors[name].to_dense().tobytes() == p.values.tobytes()


def test_serialize_deterministic():
    a = serialize(checkpoint_from_model(small_model(seed=4), "teacher"))
    b = serialize(checkpoint_from_model(small_model(seed=4), "teacher"))
    assert a == b


def test_bad_magic():
    with pytest.raises(FormatError, match="offset 0"):
        deserialize(b"NOPE" + b"\x00" * 40)


def test_bad_version():
    raw = bytearray(serialize(checkpoint_from_model(small_model(), "teacher")))
    raw[4] = 99
    with pytest.raises(FormatError, match="version"):
        deserialize(bytes(raw))


def test_truncated_reports_offset():
    raw = serialize(checkpoint_from_model(small_model(), "teacher"))
    with pytest.raises(FormatError, match="offset"):
        deserialize(raw[: len(raw) // 2])


def test_popcount_mismatch_detected():
    w = np.zeros(16, dtype=np.float32)
    w[:3] = 1.0
    rec = sparse_record("w", w.reshape(4, 4))
    raw = bytearray(serialize(Checkpoint("sparse-student", small_model().config, {"w": rec})))
    # flip a bitmap bit: the bitmap is the first 2 bytes after the storage tag
    idx = raw.index(b"\x01", 60)  # storage byte for the only tensor
    raw[idx + 1] ^= 0x08
    with pytest.raises(FormatError):
        deserialize(bytes(raw))


# sha256 of serialize() for one fixed checkpoint per record shape, taken from
# the version-1 writer: a change to the wire bytes of any record shows here.
_GOLDEN = {
    "dense-f32": (lambda w: dense_record("w", w),
                  "2cb1e5c74af7635ef52f7584e996a21f8676ea500e34b2c7b81c4e72fe08ba06"),
    "sparse": (lambda w: sparse_record("w", w),
               "0be4689bb1fe189b29f512e1adf5c0ed41dbf6c318288b4d101c6243c3c89f8e"),
    "q8-bitmap": (lambda w: q8_record("w", w, scale=1.0 / 127, with_bitmap=True),
                  "7555042f9ec5733e4b83406fc80cc3096d8b5fdda7f8519a3dfc26b874e63421"),
    "q8-dense": (lambda w: q8_record("w", w, scale=1.0 / 127, with_bitmap=False),
                 "6312ab894ae7906b0d95b7d968721ae45e6c1a936bc2aae658165c73d5fe84fc"),
}


def _golden_tensor():
    w = np.linspace(-1.0, 1.0, 15, dtype=np.float32).reshape(3, 5)
    w[:, 1:4] = 0.0
    return w


def _golden_raw(shape, **extra_records):
    records = {"w": _GOLDEN[shape][0](_golden_tensor()), **extra_records}
    return serialize(Checkpoint("golden", small_model().config, records, {"loss": 0.5},
                                bytes(range(32))))


@pytest.mark.parametrize("shape", sorted(_GOLDEN))
def test_serialize_golden(shape):
    raw = _golden_raw(shape)
    assert hashlib.sha256(raw).hexdigest() == _GOLDEN[shape][1]
    assert serialize(deserialize(raw)) == raw


def _mixed_checkpoint():
    """Every record shape: int8 with and without a bitmap, sparse and dense f32."""
    model = small_model()
    prune_step(model, None, 0.9)
    q8_names = model.prunable_parameters()[:6] + ["embeddings.token"]
    ckpt = checkpoint_from_model(model, "qat", {"val_loss": 0.25, "ranges": {"a": [-1.0, 2.5]}},
                                 bytes(range(32)), q8_names=q8_names)
    assert {(r.storage, r.bitmap is None) for r in ckpt.tensors.values()} == {
        (DENSE_F32, True), (SPARSE, False), (Q8, False), (Q8, True)}
    return ckpt


def test_every_truncation_is_format_error():
    raw = serialize(_mixed_checkpoint())
    for n in range(len(raw)):
        with pytest.raises(FormatError, match="offset"):
            deserialize(raw[:n])


def test_trailing_bytes_rejected():
    raw = serialize(_mixed_checkpoint())
    with pytest.raises(FormatError, match=f"trailing bytes at offset {len(raw)}"):
        deserialize(raw + b"\x00")


def test_corruptions_load_exactly_or_raise_format_error():
    """Seeded 3-byte corruptions: each raises FormatError, or loads a
    checkpoint that serializes back to exactly the corrupted bytes."""
    raw = serialize(_mixed_checkpoint())
    rng = np.random.Generator(np.random.PCG64(0))
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(3000):
        bad = bytearray(raw)
        for pos in rng.integers(0, len(raw), 3):
            bad[pos] = int(rng.integers(0, 256))
        try:
            back = deserialize(bytes(bad))
        except FormatError as exc:
            assert "offset" in str(exc)
            outcomes["rejected"] += 1
            continue
        assert serialize(back) == bytes(bad)
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["rejected"]


_TAG = b"\x01\x00w\x02" + struct.pack("<2I", 3, 5)  # name, ndim and dims of "w"
_SCALE = struct.pack("<f", 1.0 / 127)
_BITMAP = np.packbits(_golden_tensor().reshape(-1) != 0).tobytes()


@pytest.mark.parametrize("shape,old,new,error", [
    ("dense-f32", b"golden", b"gold\xffn", "bad UTF-8 string"),
    ("dense-f32", b"has_pooler=False", b"has_pooler=false", "bad model config"),
    ("dense-f32", b"heads=2", b"heads=0", "bad model config"),
    ("dense-f32", b"vocab=16", b"vocab=1x", "bad model config"),
    ("dense-f32", b'{"loss": 0.5}', b'["loss", 0.5]', "bad metrics"),
    ("dense-f32", b'{"loss": 0.5}', b'{"loss":0.50}', "bad metrics"),
    ("dense-f32", b'{"loss": 0.5}', b'{"loss": 0.5,', "bad metrics"),
    ("dense-f32", struct.pack("<I", 13) + b'{"loss": 0.5}',
     struct.pack("<I", 100_000) + b"[" * 100_000, "bad metrics"),
    ("dense-f32", _TAG + b"\x00", _TAG + b"\x03", "unknown storage kind 3"),
    ("q8-bitmap", _SCALE + bytes(4) + b"\x01", _SCALE + bytes(4) + b"\x02", "bad int8 header"),
    ("q8-dense", _SCALE, struct.pack("<f", float("nan")), "bad int8 header"),
    ("q8-dense", _SCALE, struct.pack("<f", 0.0), "bad int8 header"),
    ("sparse", _BITMAP, _BITMAP[:1] + bytes([_BITMAP[1] | 1]), "bitmap popcount mismatch"),
], ids=["stage-utf8", "config-bool", "config-heads-0", "config-int", "metrics-array",
        "metrics-noncanonical", "metrics-bad-json", "metrics-deep-nesting", "storage-kind",
        "int8-bitmap-flag", "int8-scale-nan", "int8-scale-zero", "bitmap-padding"])
def test_corrupt_field_is_format_error(shape, old, new, error):
    raw = _golden_raw(shape)
    assert raw.count(old) == 1
    with pytest.raises(FormatError, match=f"{error} at offset"):
        deserialize(raw.replace(old, new))


# Weight grids are symmetric and serialize writes zero point 0; any other
# value used to load, dequantized about it.
@pytest.mark.parametrize("shape", ["q8-dense", "q8-bitmap"])
@pytest.mark.parametrize("zp", [5, -1])
def test_nonzero_int8_zero_point_is_format_error(shape, zp):
    raw = _golden_raw(shape)
    at = raw.index(_SCALE + bytes(4)) + len(_SCALE)
    bad = raw[:at] + struct.pack("<i", zp) + raw[at + 4:]
    with pytest.raises(FormatError, match=f"^int8 zero point {zp} is not 0 at offset {at}$"):
        deserialize(bad)


def test_duplicate_tensor_name_rejected():
    raw = _golden_raw("dense-f32", v=dense_record("v", _golden_tensor()))
    with pytest.raises(FormatError, match="duplicate tensor 'w' at offset"):
        deserialize(raw.replace(b"\x01\x00v", b"\x01\x00w"))
