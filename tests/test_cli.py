import math
import random
import re
import warnings

import pytest

from sparsekit import cli
from sparsekit.checkpoint import (FormatError, checkpoint_from_model, load_checkpoint,
                                  save_checkpoint, serialize)
from sparsekit.cli import main
from sparsekit.config import _SCHEMA, load_config
from sparsekit.model import ConfigError, DataError, ModelConfig, build_model
from sparsekit.pipeline import run_chain
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


def _with_lines(cfg: str, lines: str) -> str:
    """`cfg` with `lines` appended, less cfg's own lines for the keys that
    `lines` sets: a key set twice is an error of its own."""
    keys = {entry.split(" = ")[0] for entry in lines.splitlines() if " = " in entry}
    kept = [entry for entry in cfg.splitlines() if entry.split(" = ")[0] not in keys]
    return "\n".join(kept) + f"\n{lines}\n"


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


def test_cli_chain_matches_run_chain(workdir):
    """The CLI's files hold run_chain's bytes: stages communicate only through
    checkpoints, and a kd-off stage handed no task teacher runs without one."""
    files = {"teacher-prep": ("teacher", "teacher"), "prune": ("prune", "sparse"),
             "transfer": ("transfer", "finetuned"), "qat": ("qat", "quant")}
    cfgs = {node: load_config(workdir / f"{cfg}.cfg") for node, (cfg, _) in files.items()}
    for node, (ckpt, _) in run_chain(cfgs).items():
        assert serialize(ckpt) == (workdir / f"{files[node][1]}.ckpt").read_bytes(), node


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


def test_report_without_prunable_weights_is_one_line_error(tmp_path, capsys):
    cfg, ckpt = tmp_path / "zero.cfg", str(tmp_path / "zero.ckpt")
    cfg.write_text("[run]\nstage = teacher-prep\nsteps = 2\n[model]\nnum_layers = 0\n"
                   "has_pooler = false\n")
    assert main(["teacher-prep", "--config", str(cfg), "--out", ckpt]) == 0
    capsys.readouterr()
    assert main(["report", ckpt]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("key", ["steps", "batch_size", "log_every"])
def test_out_of_range_run_value_is_one_line_error(key, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_with_lines("[run]\nstage = teacher-prep\nsteps = 2", f"{key} = 0"))
    rc = main(["teacher-prep", "--config", str(cfg), "--out", str(tmp_path / "x.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be >= 1, got 0\n"
    assert not (tmp_path / "x.ckpt").exists()


# Each of these ended in a traceback, or, for NaN, in exit 0 and a
# checkpoint whose val_loss is NaN; lambda_kd = 0 with kd on ran a teacher
# forward per step that no loss read. The [model] line replaces SMALL_MODEL's.
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
    ("teacher-prep", "data", "num_labels = 100", "num_labels = 100 exceeds the 27 regular tokens"),
    ("prune", "data", "num_labels = 100", "num_labels = 100 exceeds the 27 regular tokens"),
    ("prune", "distill", "lambda_kd = 0", "lambda_kd = 0 leaves the teacher unused; set kd = false"),
    # schedule values are checked when the config is built, with rewinding on or off
    ("teacher-prep", "schedule", "warmup_steps = 500", "warmup_steps must lie in [0, 30], got 500"),
    ("prune", "pruning", "start_step = -1", "pruning start_step must be >= 0, got -1"),
    ("prune", "pruning", "start_step = -1\n[run]\nlrr = false",
     "pruning start_step must be >= 0, got -1"),
    # numpy seeds its generators from non-negative integers only
    ("teacher-prep", "run", "seed = -1", "seed must be >= 0, got -1"),
    ("teacher-prep", "data", "corpus_seed = -1", "corpus_seed must be >= 0, got -1"),
    # [data] values a stage does not read are checked all the same
    ("teacher-prep", "data", "num_examples = -5\nnum_labels = -1",
     "num_examples = -5 leaves the training split empty"),
    ("teacher-prep", "data", "num_labels = -1", "need at least two labels"),
    ("finetune", "data", "num_sequences = -1", "num_sequences = -1 leaves the training split empty"),
    ("finetune", "data", "num_sequences = 10", "num_sequences = 10 leaves the validation split empty"),
])
def test_out_of_range_config_value_is_one_line_error(command, section, line, message, tmp_path,
                                                     capsys):
    cfg = {"teacher-prep": TEACHER_CFG, "prune": PRUNE_CFG}.get(command, TRANSFER_CFG)
    path = tmp_path / "bad.cfg"
    path.write_text(_with_lines(cfg, f"[{section}]\n{line}"))
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


def test_negative_seed_flag_is_one_line_error(workdir, tmp_path, capsys):
    out = tmp_path / "x.ckpt"
    rc = main(["teacher-prep", "--config", str(workdir / "teacher.cfg"), "--seed", "-1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


# A legal but huge value that makes training diverge. Before the check, such
# a run printed numpy's overflow warnings, then exited 0 and wrote a
# checkpoint with a NaN loss.
@pytest.mark.parametrize("line, where", [
    ("[optimizer]\nlr = 1e30", "step 2"),
    ("[optimizer]\nweight_decay = 1e30", "step 2"),
    ("[optimizer]\nlr = 1e30\n[run]\nsteps = 2", "validation"),
])
def test_diverging_run_is_one_line_error(line, where, tmp_path, capsys):
    path = tmp_path / "diverge.cfg"
    path.write_text(_with_lines(TEACHER_CFG, line))
    out = tmp_path / "x.ckpt"
    rc = main(["teacher-prep", "--config", str(path), "--out", str(out)])
    assert rc == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert err.startswith(f"error: teacher-prep diverged in {where}: overflow encountered in ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--metrics"])
def test_missing_output_directory_writes_nothing(flag, workdir, tmp_path, monkeypatch, capsys):
    """Both output directories are checked before the start checkpoint is
    read or the stage runs, so a failed run leaves no file behind."""
    def never(*args, **kwargs):
        raise AssertionError("called before the output directories were checked")
    _, *rest = cli.TRAINING_COMMANDS["prune"]
    monkeypatch.setitem(cli.TRAINING_COMMANDS, "prune", (never, *rest))
    monkeypatch.setattr(cli, "load_checkpoint", never)
    outputs = {"--out": tmp_path / "x.ckpt", "--metrics": tmp_path / "m.csv"}
    missing = tmp_path / "nodir"
    outputs[flag] = missing / outputs[flag].name
    rc = main(["prune", "--config", str(workdir / "prune.cfg"),
               "--teacher", str(workdir / "teacher.ckpt"),
               *(str(x) for item in outputs.items() for x in item)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {flag}: no directory {str(missing)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_bad_schedule_value_fails_before_checkpoint_read(tmp_path, capsys):
    """The config's error, not the missing teacher file's: the value is
    checked when the config is parsed, before any checkpoint is opened."""
    path = tmp_path / "bad.cfg"
    path.write_text(f"{PRUNE_CFG}\n[schedule]\nwarmup_steps = 500\n")
    out = tmp_path / "x.ckpt"
    rc = main(["prune", "--config", str(path), "--teacher", str(tmp_path / "missing.ckpt"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: warmup_steps must lie in [0, 40], got 500\n"
    assert not out.exists()


def test_prune_rewinding_to_lr_zero_is_one_line_error(workdir, tmp_path, capsys):
    """A window that opens at step 0 under a 10-step warmup would rewind to
    LR 0 every interval: the config is refused, no checkpoint."""
    path = tmp_path / "lr0.cfg"
    path.write_text(f"{PRUNE_CFG}start_step = 0\n[schedule]\nwarmup_steps = 10\n")
    out = tmp_path / "x.ckpt"
    rc = main(["prune", "--config", str(path), "--teacher", str(workdir / "teacher.ckpt"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: lrr rewinds to LR 0: lr_base is 0 at pruning "
                                   "start_step 0 (warmup_steps 10); start the window later "
                                   "or set lrr = false\n")
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


# The schema fuzz: each draw runs one training command on 5-step input
# checkpoints, for 2-5 steps, with 1-3 schema keys set to values from these
# sets. Most values are legal somewhere and out of range elsewhere.
FUZZ_INTS = ["-1", "0", "1", "2", "3", "4", "5", "7", "8", "16", "33", "64"]
FUZZ_FLOATS = ["-0.5", "0", "1e-4", "0.01", "0.5", "0.9", "1", "2", "1e30", "nan", "inf"]
FUZZ_BOOLS = ["true", "false"]
FUZZ_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys
             if key != "stage"]
FUZZ_SEED, FUZZ_DRAWS = 1, 150


@pytest.fixture(scope="module")
def fuzz_commands(tmp_path_factory):
    """Each training command's stage and input flags, on 5-step teacher, task
    teacher, sparse and fine-tuned checkpoints."""
    d = tmp_path_factory.mktemp("fuzz")

    def run(command, name, run_lines, *inputs):
        cfg, out = d / f"{name}.cfg", str(d / f"{name}.ckpt")
        cfg.write_text(f"[run]\nsteps = 5\n{run_lines}\n")
        assert main([command, "--config", str(cfg), *inputs, "--out", out]) == 0
        return out

    teacher = run("teacher-prep", "teacher", "stage = teacher-prep")
    task_teacher = ["--teacher", run("finetune", "task_teacher", "stage = transfer\nkd = false",
                                     "--ckpt", teacher)]
    sparse = run("prune", "sparse", "stage = student-prune\n[pruning]\nstart_step = 0\n"
                 "policy_end_step = 2\nend_step = 3", "--teacher", teacher)
    finetuned = run("finetune", "finetuned", "stage = transfer", "--ckpt", sparse, *task_teacher)
    return {
        "teacher-prep": ("teacher-prep", []),
        "prune": ("student-prune", ["--teacher", teacher]),
        "finetune": ("transfer", ["--ckpt", sparse, *task_teacher]),
        "qat": ("qat", ["--ckpt", finetuned, *task_teacher]),
        "baseline": ("finetune-prune-baseline", ["--ckpt", teacher, *task_teacher]),
    }


def test_schema_fuzz_ends_clean_or_in_one_line_error(fuzz_commands, tmp_path, capsys):
    """Every drawn config either runs clean, printing only finite summary
    values and no warning, or exits 1 with one error line and no checkpoint.
    A traceback or a numpy warning fails the test."""
    values = {int: FUZZ_INTS, float: FUZZ_FLOATS}
    rng = random.Random(FUZZ_SEED)
    outcomes = {0: 0, 1: 0}
    for i in range(FUZZ_DRAWS):
        command = rng.choice(sorted(fuzz_commands))
        stage, inputs = fuzz_commands[command]
        lines = [f"[run]\nstage = {stage}\nsteps = {rng.randint(2, 5)}"]
        if stage in ("student-prune", "finetune-prune-baseline"):
            lines.append("[pruning]\nstart_step = 0\npolicy_end_step = 1\nend_step = 1")
        for section, key in rng.sample(FUZZ_KEYS, rng.randint(1, 3)):
            value = rng.choice(values.get(_SCHEMA[section][key], FUZZ_BOOLS))
            lines.append(f"[{section}]\n{key} = {value}")
        text = "\n".join(lines) + "\n"
        cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"{i}.ckpt"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--config", str(cfg), *inputs, "--out", str(out)])
        stdout, err = capsys.readouterr()
        if rc == 0:
            *summary, wrote = stdout.splitlines()
            assert wrote == f"wrote {out}" and out.exists() and err == "", text
            for line in summary:
                assert math.isfinite(float(line.split(": ", 1)[1])), (text, line)
        else:
            assert rc == 1, text
            assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
            assert stdout == "" and not out.exists(), text
        outcomes[rc] += 1
    assert min(outcomes.values()) > 0, outcomes
