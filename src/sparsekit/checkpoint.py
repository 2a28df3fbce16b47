"""Binary checkpoint format: f32 or int8 tensor records, dense or bitmap-sparse.

Layout (little endian throughout):
  magic "POFA" | u16 version | stage string | model config blob |
  u32 tensor count | tensor records | metrics JSON blob | 32-byte config hash

Tensor record: name | u8 ndim | u32 dims | u8 storage kind |
               [int8 header] | [bitmap | u32 nnz] | payload
  kind 0 dense-f32: f32 payload of every value
  kind 1 sparse:    bitmap (ceil(n/8) bytes, bit = nonzero) | u32 nnz | f32 nonzero payload
  kind 2 q8:        int8 header (f32 scale | i32 zero point, always 0 |
                    u8 has_bitmap), then bitmap | u32 nnz when has_bitmap is 1,
                    then the int8 payload
Strings are u16 length-prefixed UTF-8; blobs are u32 length-prefixed.
deserialize reads back only what serialize writes: anything else, trailing
bytes after the config hash included, raises FormatError with its offset.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, fields, replace
from typing import Collection, Dict, Optional

import numpy as np

from .model import EncoderModel, ModelConfig, init_parameter, parameter_specs
from .quant import dequantize, quantize_ints, weight_grid, weight_qparams
from .tensor import SparsekitError, Tensor

MAGIC = b"POFA"
VERSION = 1
DENSE_F32, SPARSE, Q8 = 0, 1, 2


class FormatError(SparsekitError):
    pass


@dataclass
class TensorRecord:
    """One stored tensor. `payload` holds every value in flat order, or only
    the nonzeros when there is a bitmap. It is int8, dequantized on the
    symmetric grid of `scale`, exactly when `scale` is set; f32 otherwise.
    Its name is its key in `Checkpoint.tensors`."""
    shape: tuple
    payload: np.ndarray
    bitmap: Optional[np.ndarray] = None  # bool, flat, True = nonzero
    scale: Optional[float] = None

    @property
    def storage(self) -> int:
        """The wire tag, derived from the record's shape."""
        if self.scale is not None:
            return Q8
        return DENSE_F32 if self.bitmap is None else SPARSE

    @property
    def size(self) -> int:
        return int(math.prod(self.shape))

    def to_dense(self, copy: bool = True) -> np.ndarray:
        """The values in `shape`. With `copy` False, a dense f32 record gives
        a view of its payload; every other kind builds a new array anyway."""
        values = self.payload
        if self.scale is not None:
            values = dequantize(values, weight_grid(self.scale))
        if self.bitmap is None:
            values = values.reshape(self.shape)
            return values.copy() if copy else values
        flat = np.zeros(self.size, dtype=np.float32)
        flat[self.bitmap] = values
        return flat.reshape(self.shape)


@dataclass
class Checkpoint:
    stage: str
    model_config: ModelConfig
    tensors: Dict[str, TensorRecord]
    metrics: dict = field(default_factory=dict)
    config_hash: bytes = b"\x00" * 32


def build_record(values: np.ndarray, scale: Optional[float] = None,
                 bitmap: bool = False) -> TensorRecord:
    """`values` as f32, or as int8 on the symmetric grid of `scale`; every
    value in flat order, or with `bitmap` only the nonzeros (after rounding)."""
    flat = values.astype(np.float32).reshape(-1)
    if scale is not None:
        flat = quantize_ints(flat, weight_grid(scale)).astype(np.int8)
    mask = flat != 0 if bitmap else None
    return TensorRecord(values.shape, flat if mask is None else flat[mask], mask, scale)


def checkpoint_from_model(model: EncoderModel, stage: str, metrics: Optional[dict] = None,
                          config_hash: bytes = b"\x00" * 32,
                          q8_names: Collection[str] = ()) -> Checkpoint:
    """f32 by default, int8 for the names in `q8_names`, each with its own
    symmetric per-tensor scale; bitmapped when more than half zeros."""
    tensors: Dict[str, TensorRecord] = {}
    for name, p in model.parameters.items():
        vals = p.values
        scale = weight_qparams(vals).scale if name in q8_names else None
        tensors[name] = build_record(vals, scale, bitmap=float((vals == 0).mean()) > 0.5)
    return Checkpoint(stage, model.config, tensors, metrics or {}, config_hash)


def model_from_checkpoint(ckpt: Checkpoint, head_kind: Optional[str] = None,
                          num_labels: Optional[int] = None, seed: int = 0,
                          frozen: bool = False) -> EncoderModel:
    """Rebuild a dense float32 model; head params that the checkpoint's
    config does not describe (a head `head_kind` swaps in) are freshly seeded,
    with the draws `build_model(cfg, seed)` makes for them.

    Each parameter gets its own writable copy of its record's values, unless
    `frozen`: then every parameter is read-only and a dense f32 record's
    parameter is a view of its payload, so a frozen model costs no memory of
    its own beyond sparse and int8 records.

    Records of a head that `head_kind` drops are skipped. Every other record
    must name a parameter of the model and have its shape, and every
    parameter the checkpoint's config describes must have a record, else
    FormatError.
    """
    cfg = ckpt.model_config
    if head_kind is not None or num_labels is not None:
        cfg = replace(cfg, head_kind=head_kind or cfg.head_kind,
                      num_labels=num_labels or cfg.num_labels)
    specs = parameter_specs(cfg)
    shapes = {name: shape for name, shape, _ in specs}
    described = {name for name, _, _ in parameter_specs(ckpt.model_config)}
    for name, rec in ckpt.tensors.items():
        if name not in shapes:
            if name in described:  # a dropped head
                continue
            raise FormatError(f"tensor {name!r} is not a parameter of the model")
        if tuple(rec.shape) != shapes[name]:
            raise FormatError(f"tensor {name!r} has shape {tuple(rec.shape)}, "
                              f"the model's is {shapes[name]}")
    params: Dict[str, Tensor] = {}
    for idx, (name, shape, scheme) in enumerate(specs):
        rec = ckpt.tensors.get(name)
        if rec is None:
            if name in described:
                raise FormatError(f"checkpoint has no tensor {name!r}")
            params[name] = init_parameter(shape, scheme, seed, idx)
            continue
        values = rec.to_dense(copy=not frozen)
        if frozen:  # a view is read-only even when the payload is not
            values.flags.writeable = False
        params[name] = Tensor(values, requires_grad=not frozen)
    return EncoderModel(cfg, params)


# -- wire format ------------------------------------------------------------

def _pack_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return struct.pack("<H", len(b)) + b


def _pack_blob(b: bytes) -> bytes:
    return struct.pack("<I", len(b)) + b


# ModelConfig field annotation -> parser of the value's text in the config blob
_PARSE_FIELD = {"int": int, "bool": lambda v: v == "True", "str": str}


def _config_blob(cfg: ModelConfig) -> bytes:
    text = "\n".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields(ModelConfig))
    return text.encode("utf-8")


def _config_from_blob(blob: bytes) -> ModelConfig:
    kv = dict(line.split("=", 1) for line in blob.decode("utf-8").splitlines())
    return ModelConfig(**{f.name: _PARSE_FIELD[f.type](kv[f.name]) for f in fields(ModelConfig)})


def _metrics_blob(metrics: dict) -> bytes:
    return json.dumps(metrics, sort_keys=True).encode("utf-8")


def _metrics_from_blob(blob: bytes) -> dict:
    metrics = json.loads(blob.decode("utf-8"))
    if not isinstance(metrics, dict):
        raise ValueError("metrics are not a JSON object")
    return metrics


def record_body(rec: TensorRecord) -> bytes:
    """The bytes `serialize` writes for `rec` after its name, dims and storage kind."""
    out = []
    if rec.scale is not None:
        out.append(struct.pack("<fiB", rec.scale, 0, rec.bitmap is not None))
    if rec.bitmap is not None:
        out += [np.packbits(rec.bitmap).tobytes(), struct.pack("<I", rec.payload.size)]
    out.append(rec.payload.astype("<f4" if rec.scale is None else "i1").tobytes())
    return b"".join(out)


def serialize(ckpt: Checkpoint) -> bytes:
    out = [MAGIC, struct.pack("<H", VERSION), _pack_str(ckpt.stage),
           _pack_blob(_config_blob(ckpt.model_config)),
           struct.pack("<I", len(ckpt.tensors))]
    for name, rec in ckpt.tensors.items():
        out.append(_pack_str(name))
        out.append(struct.pack(f"<B{len(rec.shape)}IB", len(rec.shape), *rec.shape, rec.storage))
        out.append(record_body(rec))
    out.append(_pack_blob(_metrics_blob(ckpt.metrics)))
    out.append(ckpt.config_hash)
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated checkpoint at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<H")
        at = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"bad UTF-8 string at offset {at}") from None

    def read_blob(self, what: str, parse, encode):
        """A u32-length blob that `parse` reads and `encode` writes back unchanged."""
        (n,) = self.unpack("<I")
        at = self.pos
        blob = self.take(n)
        try:
            value = parse(blob)
            if encode(value) == blob:
                return value
        except (ArithmeticError, LookupError, RecursionError, ValueError):
            pass
        raise FormatError(f"bad {what} at offset {at}")


def _read_record(r: _Reader) -> TensorRecord:
    (ndim,) = r.unpack("<B")
    shape = tuple(r.unpack(f"<{ndim}I"))
    at = r.pos
    (storage,) = r.unpack("<B")
    if storage not in (DENSE_F32, SPARSE, Q8):
        raise FormatError(f"unknown storage kind {storage} at offset {at}")
    scale, has_bitmap = None, storage == SPARSE
    if storage == Q8:
        scale, zp, has_bitmap = r.unpack("<fiB")
        if not scale > 0 or has_bitmap > 1:
            raise FormatError(f"bad int8 header at offset {at + 1}")
        if zp != 0:  # weight grids are symmetric
            raise FormatError(f"int8 zero point {zp} is not 0 at offset {at + 5}")
    n = math.prod(shape)
    bitmap, count = None, n
    if has_bitmap:
        at = r.pos
        bits = np.unpackbits(np.frombuffer(r.take((n + 7) // 8), dtype=np.uint8))
        (count,) = r.unpack("<I")
        if count != int(bits.sum()) or bits[n:].any():
            raise FormatError(f"bitmap popcount mismatch at offset {at}")
        bitmap = bits[:n].astype(bool)
    dtype = np.dtype("<f4" if scale is None else "i1")
    payload = np.frombuffer(r.take(count * dtype.itemsize), dtype=dtype).copy()
    return TensorRecord(shape, payload, bitmap, scale)


def deserialize(data: bytes) -> Checkpoint:
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic at offset 0")
    (version,) = r.unpack("<H")
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    stage = r.read_str()
    cfg = r.read_blob("model config", _config_from_blob, _config_blob)
    (count,) = r.unpack("<I")
    tensors: Dict[str, TensorRecord] = {}
    for _ in range(count):
        at = r.pos
        name = r.read_str()
        if name in tensors:
            raise FormatError(f"duplicate tensor {name!r} at offset {at}")
        tensors[name] = _read_record(r)
    metrics = r.read_blob("metrics", _metrics_from_blob, _metrics_blob)
    config_hash = r.take(32)
    if r.pos != len(data):
        raise FormatError(f"trailing bytes at offset {r.pos}")
    return Checkpoint(stage, cfg, tensors, metrics, config_hash)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(ckpt))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
