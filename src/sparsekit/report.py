"""Compression accounting and schedule CSV export."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .checkpoint import Checkpoint, FormatError, TensorRecord, record_body
from .config import StageConfig
from .model import ConfigError, prunable_parameter_names
from .pruning import target_sparsity
from .schedule import lr_base, lr_rewound
from .tensor import ContractError


@dataclass
class ReportRow:
    """One prunable weight, read off its record."""
    name: str
    size: int
    payload_bytes: int
    disk_bytes: int  # what `serialize` writes after the name, dims and storage kind
    nonzero: int
    bits: int

    @property
    def dense_bytes(self) -> int:
        return 4 * self.size

    @property
    def sparsity(self) -> float:
        return 1.0 - self.nonzero / self.size


@dataclass
class CompressionReport:
    rows: List[ReportRow]
    parameter_only_ratio: float
    on_disk_ratio: float
    nonzero_count: int

    def as_text(self) -> str:
        lines = [f"{'tensor':34s} {'dense_B':>10s} {'payload_B':>10s} {'disk_B':>10s} {'sparsity':>9s} {'bits':>5s}"]
        for r in self.rows:
            lines.append(f"{r.name:34s} {r.dense_bytes:10d} {r.payload_bytes:10d} "
                         f"{r.disk_bytes:10d} {r.sparsity:9.4f} {r.bits:5d}")
        lines.append(f"parameter-only compression ratio: {self.parameter_only_ratio:.4f}")
        lines.append(f"on-disk compression ratio:        {self.on_disk_ratio:.4f}")
        lines.append(f"nonzero encoder parameters:       {self.nonzero_count}")
        return "\n".join(lines)


def _encoder_records(ckpt: Checkpoint) -> Iterator[Tuple[str, TensorRecord]]:
    """(name, record) of each of the encoder's prunable weights."""
    for name in prunable_parameter_names(ckpt.model_config):
        if name not in ckpt.tensors:
            raise FormatError(f"checkpoint has no tensor {name!r}")
        yield name, ckpt.tensors[name]


def compression_report(ckpt: Checkpoint) -> CompressionReport:
    """Byte accounting over the encoder's prunable weights, one row per
    record; both ratios divide the rows' dense bytes by a column's sum."""
    rows = [ReportRow(name, rec.size, rec.payload.nbytes, len(record_body(rec)),
                      int(np.count_nonzero(rec.payload)), 8 * rec.payload.itemsize)
            for name, rec in _encoder_records(ckpt)]
    if not rows:
        raise ContractError("compression report: the checkpoint has no prunable weights")
    dense = sum(r.dense_bytes for r in rows)
    payload = sum(r.payload_bytes for r in rows)
    return CompressionReport(rows, dense / payload if payload else float("inf"),
                             dense / sum(r.disk_bytes for r in rows), sum(r.nonzero for r in rows))


def payload_size_ratio(a: Checkpoint, b: Checkpoint) -> float:
    """Encoder payload bytes of A divided by those of B."""
    pa = sum(rec.payload.nbytes for _, rec in _encoder_records(a))
    pb = sum(rec.payload.nbytes for _, rec in _encoder_records(b))
    if pb == 0:
        raise ContractError("payload size ratio: the compared checkpoint has no encoder "
                            "payload bytes (every prunable weight is zero)")
    return pa / pb


def schedule_export(cfg: StageConfig, path) -> None:
    """CSV of (t, lr_base, lr_rewound, target_sparsity) for t in [0, steps]."""
    if cfg.pruning is None:
        raise ConfigError("schedule-export needs a [pruning] section")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,lr_base,lr_rewound,target_sparsity\n")
        for t in range(cfg.steps + 1):
            fh.write(f"{t},{lr_base(cfg, t)!r},{lr_rewound(cfg, t)!r},"
                     f"{target_sparsity(cfg.pruning, t)!r}\n")
