import math
from dataclasses import replace

import numpy as np
import pytest

from sparsekit.checkpoint import Checkpoint, build_record, checkpoint_from_model, serialize
from sparsekit.config import default_config
from sparsekit.model import ConfigError, ModelConfig, build_model, prunable_parameter_names
from sparsekit.pruning import SparsitySchedule
from sparsekit.report import (compression_report, payload_size_ratio,
                              schedule_export)
from sparsekit.tensor import ContractError


def _sized_model(seed=0):
    # prunable tensor sizes all divisible by 20 so 90% sparsity is exact
    cfg = ModelConfig(num_layers=1, hidden=40, heads=4, ffn_dim=80, vocab=16,
                      max_seq=8, has_pooler=True, head_kind="mlm")
    return build_model(cfg, seed=seed)


def _exact_sparse_q8_ckpt():
    model = _sized_model()
    rng = np.random.Generator(np.random.PCG64(0))
    tensors = {}
    for name, p in model.parameters.items():
        vals = rng.uniform(0.1, 1.0, size=p.shape).astype(np.float32)
        if name in model.prunable_parameters():
            flat = vals.reshape(-1)
            flat[: int(0.9 * flat.size)] = 0.0
            tensors[name] = build_record(vals, 1.0 / 127, bitmap=True)
        else:
            tensors[name] = build_record(vals)
    return Checkpoint("quantized", model.config, tensors)


def test_dense_report_ratio_one():
    model = _sized_model()
    rep = compression_report(checkpoint_from_model(model, "teacher-prep"))
    assert rep.parameter_only_ratio == pytest.approx(1.0)
    assert rep.on_disk_ratio == pytest.approx(1.0)
    assert {r.name for r in rep.rows} == set(prunable_parameter_names(model.config))


def test_exact_forty_x():
    rep = compression_report(_exact_sparse_q8_ckpt())
    # 90% zeros at 8 bits: 4n bytes shrink to 0.1n bytes
    assert rep.parameter_only_ratio == pytest.approx(40.0, abs=1e-9)
    assert rep.on_disk_ratio < 40.0  # bitmaps and scales cost real bytes
    for row in rep.rows:
        assert row.sparsity == pytest.approx(0.9)
        assert row.bits == 8


def test_on_disk_accounting():
    rep = compression_report(_exact_sparse_q8_ckpt())
    dense = sum(r.dense_bytes for r in rep.rows)
    # per bitmapped int8 record: the 9-byte header (scale, zero point,
    # has_bitmap) and the bitmap's u32 nonzero count
    disk = sum(r.payload_bytes + (r.size + 7) // 8 for r in rep.rows) + 13 * len(rep.rows)
    assert sum(r.disk_bytes for r in rep.rows) == disk
    assert rep.on_disk_ratio == pytest.approx(dense / disk)


@pytest.mark.parametrize("make", [
    build_record,
    lambda v: build_record(v, bitmap=True),
    lambda v: build_record(v, 1.0 / 127),
    lambda v: build_record(v, 1.0 / 127, bitmap=True),
], ids=["dense", "sparse", "q8", "q8-bitmap"])
def test_on_disk_bytes_are_the_bytes_serialize_writes(make):
    vals = np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)
    vals[:, :5] = 0.0
    rec = make(vals)
    # no layers: the pooler weight is the one prunable weight
    cfg = ModelConfig(num_layers=0, hidden=8, heads=1, ffn_dim=8, vocab=16, max_seq=8)
    assert prunable_parameter_names(cfg) == ["pooler.weight"]
    ckpt = Checkpoint("quantized", cfg, {"pooler.weight": rec})
    # u16 name length, the name, u8 ndim, two u32 dims and the u8 storage kind
    head = 2 + len("pooler.weight") + 1 + 4 * 2 + 1
    written = len(serialize(ckpt)) - len(serialize(replace(ckpt, tensors={}))) - head
    counted = 4 * rec.size / compression_report(ckpt).on_disk_ratio
    assert counted == pytest.approx(written, abs=1e-9)


def test_payload_size_ratio():
    model = _sized_model()
    dense = checkpoint_from_model(model, "teacher-prep")
    sparse_model = _sized_model()
    for name in sparse_model.prunable_parameters():
        flat = sparse_model.parameters[name].values.reshape(-1)
        flat[: int(0.85 * flat.size)] = 0.0
    sparse85 = checkpoint_from_model(sparse_model, "student-prune")
    # 85% sparsity in f32 keeps 15% of the bytes... vs int8 that would be 0.375
    assert payload_size_ratio(sparse85, dense) == pytest.approx(0.15, abs=1e-9)


def test_fully_pruned_parameter_only_ratio_is_inf():
    model = _sized_model()
    for name in model.prunable_parameters():
        model.parameters[name].values[...] = 0.0
    rep = compression_report(checkpoint_from_model(model, "student-prune"))
    # no payload bytes at all; the bitmaps and their counts still cost bytes
    assert rep.parameter_only_ratio == math.inf
    assert math.isfinite(rep.on_disk_ratio)
    assert "parameter-only compression ratio: inf" in rep.as_text()


def test_payload_size_ratio_against_fully_pruned_is_contract_error():
    model = _sized_model()
    dense = checkpoint_from_model(model, "teacher-prep")
    for name in model.prunable_parameters():
        model.parameters[name].values[...] = 0.0
    pruned = checkpoint_from_model(model, "student-prune")
    assert payload_size_ratio(pruned, dense) == 0.0
    with pytest.raises(ContractError, match="no encoder payload bytes"):
        payload_size_ratio(dense, pruned)


def test_schedule_export_csv(tmp_path):
    cfg = default_config("student-prune")
    assert (cfg.lr, cfg.warmup_steps, cfg.steps) == (0.01, 0, 100)
    assert cfg.lrr_enabled and cfg.pruning == SparsitySchedule(0.0, 0.9, 10, 50, 80, 10)
    out = tmp_path / "sched.csv"
    schedule_export(cfg, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,lr_base,lr_rewound,target_sparsity"
    assert len(lines) == 102
    row50 = lines[51].split(",")
    assert int(row50[0]) == 50
    assert float(row50[3]) == pytest.approx(0.9)
    # rewound column equals base outside the window
    row90 = lines[91].split(",")
    assert row90[1] == row90[2]


def test_schedule_export_without_pruning_is_config_error(tmp_path):
    out = tmp_path / "sched.csv"
    with pytest.raises(ConfigError, match=r"^schedule-export needs a \[pruning\] section$"):
        schedule_export(default_config("teacher-prep"), out)
    assert not out.exists()


@pytest.mark.parametrize("node", ["sparse_ckpt", "qat_ckpt"])
def test_printed_rows_sum_to_both_ratio_denominators(node, request):
    """The table's dense, payload and on-disk columns reproduce both ratio
    lines exactly, on the default chain's prune and QAT exports."""
    rep = compression_report(request.getfixturevalue(node))
    lines = rep.as_text().splitlines()
    assert lines[0].split() == ["tensor", "dense_B", "payload_B", "disk_B", "sparsity", "bits"]
    columns = [[int(v) for v in line.split()[1:4]] for line in lines[1:1 + len(rep.rows)]]
    dense, payload, disk = (sum(col) for col in zip(*columns))
    assert rep.parameter_only_ratio == dense / payload
    assert rep.on_disk_ratio == dense / disk
    assert lines[-3].endswith(f" {dense / payload:.4f}")
    assert lines[-2].endswith(f" {dense / disk:.4f}")
