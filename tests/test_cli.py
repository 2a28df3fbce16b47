import re

import numpy as np
import pytest

from sparsekit.checkpoint import (FormatError, checkpoint_from_model, load_checkpoint,
                                  save_checkpoint)
from sparsekit.cli import main
from sparsekit.model import ConfigError, DataError, ModelConfig, build_model
from sparsekit.tensor import ContractError, ShapeError, SparsekitError, UnsupportedPrimitiveError

SMALL_MODEL = """
[model]
hidden = 16
heads = 2
ffn_dim = 32
vocab = 32
max_seq = 16

[data]
num_sequences = 60
num_examples = 200
"""

TEACHER_CFG = "[run]\nstage = teacher-prep\nsteps = 30\n" + SMALL_MODEL
PRUNE_CFG = ("[run]\nstage = student-prune\nsteps = 40\n" + SMALL_MODEL +
             "\n[pruning]\nfinal_sparsity = 0.8\npolicy_end_step = 20\nend_step = 30\n")
TRANSFER_CFG = "[run]\nstage = transfer\nsteps = 40\nkd = false\n" + SMALL_MODEL
QAT_CFG = "[run]\nstage = qat\nsteps = 15\nkd = false\n" + SMALL_MODEL


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "teacher.cfg").write_text(TEACHER_CFG)
    (d / "prune.cfg").write_text(PRUNE_CFG)
    (d / "transfer.cfg").write_text(TRANSFER_CFG)
    (d / "qat.cfg").write_text(QAT_CFG)
    return d


def test_teacher_prep_command(workdir, capsys):
    rc = main(["teacher-prep", "--config", str(workdir / "teacher.cfg"),
               "--out", str(workdir / "teacher.ckpt"),
               "--metrics", str(workdir / "teacher.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "val_loss" in out
    assert load_checkpoint(workdir / "teacher.ckpt").stage == "teacher-prep"
    assert (workdir / "teacher.csv").read_text().startswith("step,lr,")


def test_prune_command(workdir, capsys):
    rc = main(["prune", "--config", str(workdir / "prune.cfg"),
               "--teacher", str(workdir / "teacher.ckpt"),
               "--out", str(workdir / "sparse.ckpt")])
    assert rc == 0
    ckpt = load_checkpoint(workdir / "sparse.ckpt")
    assert ckpt.metrics["final_sparsity"] == pytest.approx(0.8, abs=0.01)


def test_finetune_command(workdir, capsys):
    rc = main(["finetune", "--config", str(workdir / "transfer.cfg"),
               "--ckpt", str(workdir / "sparse.ckpt"),
               "--out", str(workdir / "finetuned.ckpt")])
    assert rc == 0
    assert "val_accuracy" in capsys.readouterr().out


def test_qat_command(workdir, capsys):
    rc = main(["qat", "--config", str(workdir / "qat.cfg"),
               "--ckpt", str(workdir / "finetuned.ckpt"),
               "--out", str(workdir / "quant.ckpt")])
    assert rc == 0
    ckpt = load_checkpoint(workdir / "quant.ckpt")
    assert any(rec.storage == 2 for rec in ckpt.tensors.values())


def test_report_command(workdir, capsys):
    rc = main(["report", str(workdir / "quant.ckpt"),
               "--compare", str(workdir / "teacher.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compression ratio" in out
    assert "payload size ratio" in out


@pytest.mark.parametrize("corrupt", ["truncated", "trailing", "bad-utf8-stage", "no-such-tensor"])
def test_report_on_corrupt_file_is_one_line_error(corrupt, workdir, tmp_path, capsys):
    raw = (workdir / "quant.ckpt").read_bytes()
    bad = {"truncated": raw[:len(raw) // 2], "trailing": raw + b"\x00",
           "bad-utf8-stage": raw[:8] + b"\xff" + raw[9:],
           "no-such-tensor": raw.replace(b"layer.0.q.weight", b"layer.0.q.wfight", 1)}[corrupt]
    path = tmp_path / "bad.ckpt"
    path.write_bytes(bad)
    assert main(["report", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_report_compare_fully_pruned_is_one_line_error(tmp_path, capsys):
    model = build_model(ModelConfig(num_layers=1, hidden=8, heads=2, ffn_dim=16, vocab=16,
                                    max_seq=8), seed=0)
    save_checkpoint(checkpoint_from_model(model, "teacher-prep"), tmp_path / "dense.ckpt")
    for name in model.prunable_parameters():
        model.parameters[name].values[...] = 0.0
    save_checkpoint(checkpoint_from_model(model, "student-prune"), tmp_path / "pruned.ckpt")
    rc = main(["report", str(tmp_path / "dense.ckpt"), "--compare", str(tmp_path / "pruned.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: payload size ratio") and err.count("\n") == 1


def test_schedule_export_command(workdir, capsys):
    rc = main(["schedule-export", "--config", str(workdir / "prune.cfg"),
               "--out", str(workdir / "sched.csv")])
    assert rc == 0
    lines = (workdir / "sched.csv").read_text().strip().splitlines()
    assert lines[0] == "t,lr_base,lr_rewound,target_sparsity"
    assert len(lines) == 42


@pytest.mark.parametrize("flag", [["--metrics", "m.csv"], ["--seed", "5"]])
def test_schedule_export_takes_only_config_and_out(flag, workdir, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["schedule-export", "--config", str(workdir / "prune.cfg"),
               "--out", "s.csv", *flag])
    assert rc == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# A 95/5 split of 10 items leaves validation empty.
@pytest.mark.parametrize("command, key", [("teacher-prep", "num_sequences"),
                                          ("finetune", "num_examples")])
def test_empty_data_split_is_one_line_error(command, key, workdir, tmp_path, capsys):
    cfg = {"teacher-prep": TEACHER_CFG, "prune": PRUNE_CFG}.get(command, TRANSFER_CFG)
    path = tmp_path / "small.cfg"
    path.write_text(re.sub(rf"{key} = \d+", f"{key} = 10", cfg))
    start = ["--ckpt", str(workdir / "sparse.ckpt")] if command == "finetune" else []
    out = tmp_path / "x.ckpt"
    rc = main([command, "--config", str(path), *start, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {key} = 10 leaves the validation split empty\n"
    assert not out.exists()


def test_seed_override_changes_output(workdir, tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    main(["teacher-prep", "--config", str(workdir / "teacher.cfg"),
          "--out", str(a), "--seed", "21"])
    main(["teacher-prep", "--config", str(workdir / "teacher.cfg"),
          "--out", str(b), "--seed", "22"])
    assert a.read_bytes() != b.read_bytes()


def test_missing_config_is_error(workdir, capsys):
    rc = main(["teacher-prep", "--config", str(workdir / "nope.cfg"),
               "--out", str(workdir / "x.ckpt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# Training command -> (the config of another stage, flag of the start
# checkpoint). The runner checks the stage first, so any readable start
# checkpoint will do.
MISMATCHED = {
    "teacher-prep": ("prune.cfg", None),
    "prune": ("teacher.cfg", "--teacher"),
    "finetune": ("qat.cfg", "--ckpt"),
    "qat": ("transfer.cfg", "--ckpt"),
    "baseline": ("transfer.cfg", "--ckpt"),
}


@pytest.mark.parametrize("command", list(MISMATCHED))
def test_stage_mismatch_is_error(command, workdir, tmp_path, capsys):
    cfg, flag = MISMATCHED[command]
    model = build_model(ModelConfig(num_layers=1, hidden=8, heads=2, ffn_dim=16, vocab=16,
                                    max_seq=8), seed=0)
    save_checkpoint(checkpoint_from_model(model, "teacher-prep"), tmp_path / "start.ckpt")
    start = [flag, str(tmp_path / "start.ckpt")] if flag else []
    out = tmp_path / "x.ckpt"
    rc = main([command, "--config", str(workdir / cfg), *start, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected" in err and err.count("\n") == 1
    assert not out.exists()


# [model] holds encoder fields only; the label count is [data] num_labels.
@pytest.mark.parametrize("key, value", [("num_labels", "7"), ("head_kind", "both")])
def test_head_keys_in_model_section_are_rejected(key, value, workdir, tmp_path, capsys):
    line = f"{key} = {value}"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TRANSFER_CFG.replace("[model]\n", f"[model]\n{line}\n"))
    lineno = cfg.read_text().splitlines().index(line) + 1
    out = tmp_path / "x.ckpt"
    rc = main(["finetune", "--config", str(cfg), "--ckpt", str(workdir / "sparse.ckpt"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: line {lineno}: unknown key {key!r} in section [model]\n"
    assert not out.exists()


def test_bad_usage_returns_two(capsys):
    assert main([]) == 2
    assert main(["teacher-prep"]) == 2
    capsys.readouterr()


# The second `steps = 0` line overrides `steps = 2`.
@pytest.mark.parametrize("key", ["steps", "batch_size", "log_every"])
def test_out_of_range_run_value_is_one_line_error(key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[run]\nstage = teacher-prep\nsteps = 2\n{key} = 0\n")
    rc = main(["teacher-prep", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be >= 1, got 0\n"
    assert not (tmp_path / "x.ckpt").exists()


# Each of these ended in a traceback, or, for NaN, in exit 0 and a
# checkpoint whose val_loss is NaN; lambda_kd = 0 with kd on ran a teacher
# forward per step that no loss read. The [model] line overrides SMALL_MODEL's.
@pytest.mark.parametrize("command, section, line, message", [
    ("teacher-prep", "model", "heads = 0", "heads must be >= 1, got 0"),
    ("teacher-prep", "model", "hidden = 0", "hidden must be >= 1, got 0"),
    ("teacher-prep", "model", "ffn_dim = 0", "ffn_dim must be >= 1, got 0"),
    ("teacher-prep", "model", "num_layers = -1", "num_layers must be >= 0, got -1"),
    ("teacher-prep", "optimizer", "lr = nan", "lr must be positive and finite, got nan"),
    ("teacher-prep", "optimizer", "lr = inf", "lr must be positive and finite, got inf"),
    ("teacher-prep", "optimizer", "weight_decay = nan",
     "weight_decay must be >= 0 and finite, got nan"),
    ("teacher-prep", "distill", "lambda_pt = nan",
     "loss weights must be finite, non-negative and not both zero, got nan and 0.5"),
    ("teacher-prep", "distill", "temperature = nan",
     "temperature must be positive and finite, got nan"),
    ("finetune", "data", "num_labels = 100", "num_labels = 100 exceeds the 27 regular tokens"),
    ("prune", "distill", "lambda_kd = 0", "lambda_kd = 0 leaves the teacher unused; set kd = false"),
])
def test_out_of_range_config_value_is_one_line_error(command, section, line, message, tmp_path,
                                                     capsys):
    cfg = {"teacher-prep": TEACHER_CFG, "prune": PRUNE_CFG}.get(command, TRANSFER_CFG)
    path = tmp_path / "bad.cfg"
    path.write_text(f"{cfg}\n[{section}]\n{line}\n")
    # an untrained start checkpoint with SMALL_MODEL's encoder
    model = build_model(ModelConfig(num_layers=2, hidden=16, heads=2, ffn_dim=32, vocab=32,
                                    max_seq=16), seed=0)
    save_checkpoint(checkpoint_from_model(model, "student-prune"), tmp_path / "start.ckpt")
    flag = {"prune": "--teacher", "finetune": "--ckpt"}.get(command)
    start = [flag, str(tmp_path / "start.ckpt")] if flag else []
    out = tmp_path / "x.ckpt"
    rc = main([command, "--config", str(path), *start, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_every_typed_error_is_a_sparsekit_error():
    for cls in (ShapeError, ContractError, UnsupportedPrimitiveError, ConfigError, DataError,
                FormatError):
        assert issubclass(cls, SparsekitError)
    assert issubclass(SparsekitError, ValueError)


# [run] seq_len below 2 leaves no room for the two context tokens.
@pytest.mark.parametrize("command, value", [("teacher-prep", 0), ("finetune", 1)])
def test_short_seq_len_is_one_line_error(command, value, workdir, tmp_path, capsys):
    cfg = {"teacher-prep": TEACHER_CFG, "prune": PRUNE_CFG}.get(command, TRANSFER_CFG)
    path = tmp_path / "short.cfg"
    path.write_text(cfg.replace("[run]\n", f"[run]\nseq_len = {value}\n"))
    start = ["--ckpt", str(workdir / "sparse.ckpt")] if command == "finetune" else []
    out = tmp_path / "x.ckpt"
    rc = main([command, "--config", str(path), *start, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: seq_len must be >= 2, got {value}\n"
    assert not out.exists()


def test_mlm_task_teacher_is_one_line_error(workdir, tmp_path, capsys):
    cfg = tmp_path / "kd.cfg"
    cfg.write_text(TRANSFER_CFG.replace("kd = false\n", "kd = true\n"))
    out = tmp_path / "x.ckpt"
    rc = main(["finetune", "--config", str(cfg), "--ckpt", str(workdir / "sparse.ckpt"),
               "--teacher", str(workdir / "teacher.ckpt"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: task teacher must be a 3-label classifier") \
        and err.count("\n") == 1
    assert not out.exists()
