import hashlib
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from sparsekit import tensor as T
from sparsekit.checkpoint import (Q8, SPARSE, checkpoint_from_model,
                                  model_from_checkpoint, serialize)
from sparsekit.config import default_config
from sparsekit.data import (build_synthetic_corpus, make_mlm_batch, task_minibatch,
                            task_minibatch_indices)
from sparsekit.distill import kd_loss
from sparsekit.model import ConfigError, build_model, prunable_parameter_names
from sparsekit.pipeline import (METRICS_HEADER, _batch_seed, _make_task, _TaskTeacher,
                                run_finetune_prune_baseline, run_qat, run_student_prune,
                                run_teacher_prep, run_transfer)
from sparsekit.pruning import SparsitySchedule, target_sparsity


def _zero_set(ckpt, name):
    return frozenset(np.flatnonzero(ckpt.tensors[name].to_dense().reshape(-1) == 0))


def test_teacher_prep_learns(teacher_ckpt):
    assert teacher_ckpt.stage == "teacher-prep"
    first_loss = None
    cfg = default_config("teacher-prep", seed=1)
    ckpt, metrics = run_teacher_prep(cfg)
    first_loss = metrics.rows[0][-1]
    assert metrics.summary["final_train_loss"] < first_loss
    assert metrics.summary["val_loss"] < first_loss


def test_metrics_csv_shape():
    cfg = default_config("teacher-prep", seed=6, steps=5)
    _, metrics = run_teacher_prep(cfg)
    text = metrics.to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 6
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 7
        # repr round-trips every float exactly
        for p in parts[1:]:
            assert float(p) == float(repr(float(p)))


def test_teacher_rejects_wrong_stage():
    with pytest.raises(ConfigError):
        run_teacher_prep(default_config("transfer"))


def test_student_prune_hits_exact_sparsity(sparse_ckpt):
    cfg = default_config("student-prune", seed=2)
    names = prunable_parameter_names(sparse_ckpt.model_config)
    for name in names:
        w = sparse_ckpt.tensors[name].to_dense()
        n = w.size
        assert (w == 0).sum() == int(np.floor(0.9 * n))
        assert sparse_ckpt.tensors[name].storage == SPARSE
    assert sparse_ckpt.metrics["final_sparsity"] == pytest.approx(0.9, abs=0.01)


@pytest.mark.parametrize("stage", ["student-prune", "finetune-prune-baseline"])
def test_student_prune_logs_schedule(stage, sparse_ckpt, teacher_ckpt):
    cfg = default_config(stage, seed=2, steps=30, kd_enabled=stage == "student-prune",
                         pruning=SparsitySchedule(0.0, 0.5, 0, 20, 25, 1))
    run = run_student_prune if stage == "student-prune" else run_finetune_prune_baseline
    _, metrics = run(cfg, teacher_ckpt)
    assert len(metrics.rows) == 30
    for row in metrics.rows:
        t, _, target, actual = row[0], row[1], row[2], row[3]
        assert target == target_sparsity(cfg.pruning, t)
        # actual tracks the floor of the target on every prunable tensor
        assert actual <= target + 1e-9


@pytest.mark.parametrize("interval", [1, 3, 7])
@pytest.mark.parametrize("stage", ["student-prune", "finetune-prune-baseline"])
def test_pruning_meets_target_for_any_interval(stage, interval, teacher_ckpt):
    """The freeze step prunes too, so the frozen pattern holds floor(s*n)
    zeros also when `interval` does not divide the pruning window."""
    cfg = default_config(stage, seed=2, steps=30, kd_enabled=stage == "student-prune",
                         pruning=SparsitySchedule(0.0, 0.9, 0, 15, 20, interval))
    run = run_student_prune if stage == "student-prune" else run_finetune_prune_baseline
    ckpt, _ = run(cfg, teacher_ckpt)
    for name in prunable_parameter_names(ckpt.model_config):
        w = ckpt.tensors[name].to_dense()
        assert int((w == 0).sum()) == int(np.floor(0.9 * w.size)), name


def test_student_prune_encoder_mismatch(teacher_ckpt):
    cfg = default_config("student-prune", seed=2)
    from dataclasses import replace
    cfg = replace(cfg, model=replace(cfg.model, num_layers=1))
    with pytest.raises(ConfigError, match="num_layers"):
        run_student_prune(cfg, teacher_ckpt)


@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_task_stage_encoder_mismatch(stage, sparse_ckpt):
    run = {"transfer": run_transfer, "qat": run_qat,
           "finetune-prune-baseline": run_finetune_prune_baseline}[stage]
    cfg = default_config(stage, seed=4, kd_enabled=False)
    cfg = replace(cfg, model=replace(cfg.model, hidden=64))
    with pytest.raises(ConfigError, match="mismatch on hidden: 64 vs 32"):
        run(cfg, sparse_ckpt)


def test_transfer_locks_pattern(sparse_ckpt, finetuned_ckpt):
    names = prunable_parameter_names(sparse_ckpt.model_config)
    for name in names:
        assert _zero_set(sparse_ckpt, name) == _zero_set(finetuned_ckpt, name)
    assert finetuned_ckpt.metrics["final_sparsity"] == pytest.approx(
        sparse_ckpt.metrics["final_sparsity"])


def test_transfer_reaches_usable_accuracy(finetuned_ckpt):
    assert finetuned_ckpt.metrics["val_accuracy"] >= 0.9


@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_transfer_needs_teacher_when_kd_on(stage, sparse_ckpt):
    run = {"transfer": run_transfer, "qat": run_qat,
           "finetune-prune-baseline": run_finetune_prune_baseline}[stage]
    with pytest.raises(ConfigError, match=f"{stage} with distillation needs a task teacher"):
        run(default_config(stage, seed=4), sparse_ckpt)


# The task teacher's head is used as it is stored, so it must classify the
# stage's labels: an MLM checkpoint or another label count is a ConfigError.
@pytest.mark.parametrize("teacher", ["mlm", "3-label"])
@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_task_teacher_must_classify_the_task(stage, teacher, teacher_ckpt, sparse_ckpt,
                                             task_teacher_ckpt):
    run = {"transfer": run_transfer, "qat": run_qat,
           "finetune-prune-baseline": run_finetune_prune_baseline}[stage]
    cfg = default_config(stage, seed=4)
    cfg = replace(cfg, data=replace(cfg.data, num_labels=4))
    ckpt, head = {"mlm": (teacher_ckpt, "teacher-prep checkpoint has head_kind=mlm"),
                  "3-label": (task_teacher_ckpt,
                              "transfer checkpoint has head_kind=classify, num_labels=3")}[teacher]
    with pytest.raises(ConfigError, match=f"task teacher must be a 4-label classifier; the {head}"):
        run(cfg, sparse_ckpt, teacher_ckpt=ckpt)


def test_qat_exports_q8(qat_ckpt):
    names = prunable_parameter_names(qat_ckpt.model_config)
    for name in names:
        rec = qat_ckpt.tensors[name]
        assert rec.storage == Q8
        assert rec.bitmap is not None  # sparse tensors keep their bitmap
        assert rec.zero_point == 0
    assert qat_ckpt.tensors["embeddings.token"].storage != Q8


def test_qat_preserves_zero_pattern(finetuned_ckpt, qat_ckpt):
    for name in prunable_parameter_names(qat_ckpt.model_config):
        before = _zero_set(finetuned_ckpt, name)
        after = np.flatnonzero(~qat_ckpt.tensors[name].bitmap)
        # quantization may round tiny survivors to zero, never revive zeros
        assert before <= frozenset(after)


def test_qat_keeps_accuracy(qat_ckpt):
    assert qat_ckpt.metrics["val_accuracy"] >= 0.85
    assert qat_ckpt.metrics["activation_ranges"]


def test_baseline_runs_and_prunes(teacher_ckpt, task_teacher_ckpt):
    cfg = default_config("finetune-prune-baseline", seed=8, steps=100,
                         pruning=SparsitySchedule(0.0, 0.9, 0, 50, 80, 1))
    ckpt, metrics = run_finetune_prune_baseline(cfg, teacher_ckpt,
                                                teacher_ckpt=task_teacher_ckpt)
    assert ckpt.metrics["final_sparsity"] == pytest.approx(0.9, abs=0.01)
    assert "val_accuracy" in ckpt.metrics


def test_stage_determinism():
    cfg = default_config("teacher-prep", seed=9, steps=15)
    a_ckpt, a_metrics = run_teacher_prep(cfg)
    b_ckpt, b_metrics = run_teacher_prep(cfg)
    assert serialize(a_ckpt) == serialize(b_ckpt)
    assert a_metrics.to_csv_text() == b_metrics.to_csv_text()


def test_no_grad_teacher_gets_no_gradient():
    cfg = default_config("teacher-prep")
    corpus = build_synthetic_corpus(1, 20, vocab_size=cfg.model.vocab)
    batch = make_mlm_batch(corpus, 0, 4, cfg.seq_len)
    student, teacher = build_model(cfg.model, 0), build_model(cfg.model, 1)
    with T.no_grad():
        t_logits = teacher.forward_mlm(batch).logits
    s_logits = student.forward_mlm(batch).logits
    # the product reaches the teacher output through taped primitives, so
    # only no_grad keeps gradient out of the teacher's parameters
    T.backward(T.add(kd_loss(s_logits, t_logits, 2.0), T.mean(T.mul(s_logits, t_logits))))
    assert all(p.grad is None for p in teacher.parameters.values())
    assert student.parameters["layer.0.q.weight"].grad is not None


def _assert_cached_teacher_matches_forward(cfg, teacher_ckpt):
    """At every step of the schedule, the cached teacher's logits equal a
    full teacher forward on the step's minibatch, byte for byte."""
    task = _make_task(cfg)
    cached = _TaskTeacher(teacher_ckpt, task)
    teacher = model_from_checkpoint(teacher_ckpt, head_kind="classify",
                                    num_labels=task.num_labels)
    for t in range(cfg.steps):
        seed = _batch_seed(cfg.seed, t)
        want = teacher.forward_classify(task_minibatch(task, seed, cfg.batch_size)).logits.values
        got = cached.logits(task_minibatch_indices(task, seed, cfg.batch_size)).values
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"step {t}"


def test_cached_teacher_logits_match_forward_default_transfer(task_teacher_ckpt):
    _assert_cached_teacher_matches_forward(default_config("transfer", seed=4),
                                           task_teacher_ckpt)


def test_cached_teacher_logits_match_forward_other_shape():
    # row independence of the encoder must also hold at another width and
    # head count, without a pooler, on whatever BLAS numpy links
    base = default_config("transfer", seed=5)
    model_cfg = replace(base.model, hidden=64, heads=8, ffn_dim=128, has_pooler=False)
    cfg = replace(base, model=model_cfg, seq_len=12)
    teacher = checkpoint_from_model(build_model(model_cfg, seed=11), "transfer")
    _assert_cached_teacher_matches_forward(cfg, teacher)


# sha256 of serialize(ckpt) and of the metrics CSV for each stage of a short
# seeded chain: student-prune (KD, interval 2), KD transfer, then qat. Taken
# before the fused layer primitives and the flat-moment Adam existed; every
# speed-up of the training path must keep these bytes.
GOLDEN_CHAIN = {
    "student-prune": ("db72ed53079218d90445dc99a2f55fb7569582c0652b9ddd1dd211c982dca903",
                      "a5b7845e41139092020ae1683b359549e8746a3d215122a772d8c2dae06e2820"),
    "transfer": ("5d55a3076a31578f9faaf1f2ee75b850e40995ecda0c1c95e9fa67b730d49bc3",
                 "10842936962430d1c6dc544a87edaa952a0553f3521e9805ff4df1c2726ca38d"),
    "qat": ("8b5958e2cb81a6ec993c994d17a4f022a0be74440b0789ee4e822d5d4c6a2822",
            "da6cfbbf26675c1f7e7a4f933296f05b143816bc9bb4a45dd543ad3bf655ea5a"),
}


def _golden_chain(teacher_ckpt, task_teacher_ckpt):
    prune_cfg = default_config("student-prune", seed=21, steps=24,
                               pruning=SparsitySchedule(0.0, 0.8, 0, 12, 16, 2))
    sparse, prune_metrics = run_student_prune(prune_cfg, teacher_ckpt)
    tuned, transfer_metrics = run_transfer(default_config("transfer", seed=22, steps=24),
                                           sparse, teacher_ckpt=task_teacher_ckpt)
    export, qat_metrics = run_qat(default_config("qat", seed=23, steps=16), tuned,
                                  teacher_ckpt=task_teacher_ckpt)
    runs = {"student-prune": (sparse, prune_metrics), "transfer": (tuned, transfer_metrics),
            "qat": (export, qat_metrics)}
    return {stage: (hashlib.sha256(serialize(ckpt)).hexdigest(),
                    hashlib.sha256(metrics.to_csv_text().encode()).hexdigest())
            for stage, (ckpt, metrics) in runs.items()}


def test_golden_training_chain(teacher_ckpt, task_teacher_ckpt):
    assert _golden_chain(teacher_ckpt, task_teacher_ckpt) == GOLDEN_CHAIN


def test_reimport_releases_the_replaced_modules():
    """A fresh import of sparsekit, as the benchmark's set-up does, leaves
    nothing that keeps the copy it replaces alive."""
    code = textwrap.dedent("""
        import gc, importlib, sys, types
        for _ in range(6):
            for name in [m for m in sys.modules if m.split(".")[0] == "sparsekit"]:
                del sys.modules[name]
            importlib.import_module("sparsekit.pipeline")
        gc.collect()
        print(sum(isinstance(o, types.FunctionType) and o.__module__ == "sparsekit.tensor"
                  and o.__name__ == "linear" for o in gc.get_objects()))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(T.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "1"
