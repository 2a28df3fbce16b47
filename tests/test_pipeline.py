import hashlib
import os
import subprocess
import sys
import textwrap
import weakref
from dataclasses import replace

import numpy as np
import pytest

from sparsekit import distill as distill_module, pipeline as pipeline_module, quant as quant_module
from sparsekit import tensor as T
from sparsekit.checkpoint import (DENSE_F32, Q8, SPARSE, checkpoint_from_model,
                                  model_from_checkpoint, serialize)
from sparsekit.config import default_config
from sparsekit.data import (build_synthetic_corpus, make_mlm_batch, task_minibatch,
                            task_minibatch_indices)
from sparsekit.distill import DistillConfig, combined_loss, kd_loss
from sparsekit.model import ConfigError, EncoderModel, build_model, prunable_parameter_names
from sparsekit.optim import Adam
from sparsekit.pipeline import (METRICS_HEADER, TEACHER_CHUNK_ROWS, DivergenceError,
                                _batch_seed, _make_task, _step_loss, _TaskTeacher, _train,
                                run_chain,
                                run_finetune_prune_baseline, run_qat, run_student_prune,
                                run_teacher_prep, run_transfer)
from sparsekit.pruning import SparsitySchedule, target_sparsity
from sparsekit.tensor import SparsekitError

from oracles import astype, mean

STAGE_RUNNERS = {"student-prune": run_student_prune, "transfer": run_transfer, "qat": run_qat,
                 "finetune-prune-baseline": run_finetune_prune_baseline}


def _zero_set(ckpt, name):
    return frozenset(np.flatnonzero(ckpt.tensors[name].to_dense().reshape(-1) == 0))


def test_teacher_prep_learns(default_chain):
    ckpt, metrics = default_chain["teacher-prep"]
    assert ckpt.stage == "teacher-prep"
    first_loss = metrics.rows[0][-1]
    assert metrics.summary["final_train_loss"] < first_loss
    assert metrics.summary["val_loss"] < first_loss


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1b: the default corpus cannot be learned at its size "
                          "(M1); the change that lands 1b drops this marker")
def test_teacher_learns_below_unigram(teacher_ckpt):
    """ROADMAP M1: the default teacher's MLM loss over 2,000 validation rows
    lies at least 0.2 nats below the unigram entropy of the train tokens."""
    cfg = default_config("teacher-prep", seed=1)
    corpus = build_synthetic_corpus(cfg.data.corpus_seed, cfg.data.num_sequences,
                                    cfg.model.vocab, cfg.seq_len)
    counts = np.bincount(np.concatenate(corpus.train))
    p = counts[counts > 0] / counts.sum()
    unigram = float(-(p * np.log(p)).sum())
    batch = make_mlm_batch(corpus, 777, batch=2000, seq_len=16, split="validation")
    with T.no_grad():
        fw = model_from_checkpoint(teacher_ckpt, frozen=True).forward_mlm(batch)
        loss = float(fw.loss.values)
    assert loss <= unigram - 0.2, (loss, unigram)


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
    _, metrics = STAGE_RUNNERS[stage](cfg, teacher_ckpt)
    assert len(metrics.rows) == 30
    for row in metrics.rows:
        t, _, target, actual = row[0], row[1], row[2], row[3]
        assert target == target_sparsity(cfg.pruning, t)
        # actual tracks the floor of the target on every prunable tensor
        assert actual <= target + 1e-9


@pytest.mark.parametrize("window, interval",
                         [((0, 15, 20), 1), ((0, 15, 20), 3), ((0, 15, 20), 7),
                          ((10, 10, 10), 5), ((10, 10, 15), 5)],
                         ids=["1", "3", "7", "one-shot-10-10-10-5", "one-shot-10-10-15-5"])
@pytest.mark.parametrize("stage", ["student-prune", "finetune-prune-baseline"])
def test_pruning_meets_target_for_any_interval(stage, window, interval, teacher_ckpt):
    """The freeze step prunes too, so the frozen pattern holds floor(s*n)
    zeros also when `interval` does not divide the pruning window, and it
    holds from end_step's own optimizer step on. A zero-length ramp
    (start_step == policy_end_step) is a one-shot prune: its first prune
    step already targets the final sparsity."""
    start, policy_end, end = window
    cfg = default_config(stage, seed=2, steps=30, kd_enabled=stage == "student-prune",
                         pruning=SparsitySchedule(0.0, 0.9, start, policy_end, end, interval))
    ckpt, metrics = STAGE_RUNNERS[stage](cfg, teacher_ckpt)
    step, _, target = metrics.rows[policy_end][:3]
    assert (step, target) == (policy_end, 0.9)
    assert metrics.rows[end][3] == metrics.summary["final_sparsity"]
    for name in prunable_parameter_names(ckpt.model_config):
        w = ckpt.tensors[name].to_dense()
        assert int((w == 0).sum()) == int(np.floor(0.9 * w.size)), name


def test_student_prune_encoder_mismatch(teacher_ckpt):
    cfg = default_config("student-prune", seed=2)
    cfg = replace(cfg, model=replace(cfg.model, num_layers=1))
    with pytest.raises(ConfigError, match="num_layers"):
        run_student_prune(cfg, teacher_ckpt)


@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_task_stage_encoder_mismatch(stage, sparse_ckpt):
    cfg = default_config(stage, seed=4, kd_enabled=False)
    cfg = replace(cfg, model=replace(cfg.model, hidden=64))
    with pytest.raises(ConfigError, match="mismatch on hidden: 64 vs 32"):
        STAGE_RUNNERS[stage](cfg, sparse_ckpt)


def test_transfer_locks_pattern(sparse_ckpt, finetuned_ckpt):
    names = prunable_parameter_names(sparse_ckpt.model_config)
    for name in names:
        assert _zero_set(sparse_ckpt, name) == _zero_set(finetuned_ckpt, name)
    assert finetuned_ckpt.metrics["final_sparsity"] == pytest.approx(
        sparse_ckpt.metrics["final_sparsity"])


@pytest.mark.parametrize("start", ["dense", "sparse"])
def test_transfer_holds_a_pattern_only_from_a_sparse_start(start, monkeypatch, teacher_ckpt,
                                                           sparse_ckpt):
    """A start with no zero prunable weight holds no pattern, so a dense
    transfer never restores one; a sparse start restores after every step."""
    calls = []
    real = pipeline_module.restore_pattern

    def restore_pattern(model, masks):
        calls.append(len(masks))
        real(model, masks)

    monkeypatch.setattr(pipeline_module, "restore_pattern", restore_pattern)
    cfg = default_config("transfer", seed=1, steps=3, kd_enabled=False)
    run_transfer(cfg, teacher_ckpt if start == "dense" else sparse_ckpt)
    assert len(calls) == (0 if start == "dense" else cfg.steps)


def test_transfer_reaches_usable_accuracy(finetuned_ckpt):
    assert finetuned_ckpt.metrics["val_accuracy"] >= 0.9


@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_transfer_needs_teacher_when_kd_on(stage, sparse_ckpt):
    with pytest.raises(ConfigError, match=f"{stage} with distillation needs a task teacher"):
        STAGE_RUNNERS[stage](default_config(stage, seed=4), sparse_ckpt)


# The task teacher's head is used as it is stored, so it must classify the
# stage's labels: an MLM checkpoint or another label count is a ConfigError.
@pytest.mark.parametrize("teacher", ["mlm", "3-label"])
@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_task_teacher_must_classify_the_task(stage, teacher, teacher_ckpt, sparse_ckpt,
                                             task_teacher_ckpt):
    cfg = default_config(stage, seed=4)
    cfg = replace(cfg, data=replace(cfg.data, num_labels=4))
    ckpt, head = {"mlm": (teacher_ckpt, "teacher-prep checkpoint has head_kind=mlm"),
                  "3-label": (task_teacher_ckpt,
                              "transfer checkpoint has head_kind=classify, num_labels=3")}[teacher]
    with pytest.raises(ConfigError, match=f"task teacher must be a 4-label classifier; the {head}"):
        STAGE_RUNNERS[stage](cfg, sparse_ckpt, teacher_ckpt=ckpt)


def test_qat_exports_q8(qat_ckpt):
    names = prunable_parameter_names(qat_ckpt.model_config)
    for name in names:
        rec = qat_ckpt.tensors[name]
        assert rec.storage == Q8
        assert rec.bitmap is not None  # sparse tensors keep their bitmap
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


@pytest.mark.parametrize("stage", ["transfer", "qat", "finetune-prune-baseline"])
def test_task_stage_honours_distill_weights(stage, teacher_ckpt, task_teacher_ckpt):
    """A KD task stage trains on the [distill]-weighted sum of the hard and
    soft losses, as the MLM stages do, and logs that sum as loss_total."""
    pruning = SparsitySchedule(0.0, 0.5, 0, 5, 10, 1) if stage == "finetune-prune-baseline" \
        else None
    cfg = default_config(stage, seed=12, steps=20, pruning=pruning,
                         distill=DistillConfig(temperature=2.0, lambda_pt=0.5, lambda_kd=0.5))
    _, metrics = STAGE_RUNNERS[stage](cfg, teacher_ckpt, teacher_ckpt=task_teacher_ckpt)
    half = np.float32(0.5)
    for step, _, _, _, l_pt, l_kd, total in metrics.rows:
        assert total == float(half * np.float32(l_pt) + half * np.float32(l_kd)), step
    assert any(total != l_kd for *_, l_kd, total in metrics.rows)


def _task_kd_step(nan_logits=False):
    """One KD task step at the transfer defaults (lambda_pt 0, lambda_kd 1),
    on untrained models. Returns the student's forward and _step_loss."""
    cfg = default_config("transfer", seed=1)
    batch = task_minibatch(_make_task(cfg), np.arange(8))
    student, teacher = build_model(cfg.model, 0), build_model(cfg.model, 1)
    if nan_logits:
        student.parameters["classify_head.bias"].values[0] = np.nan
    fw = student.forward_classify(batch)
    with T.no_grad():
        t_logits = teacher.forward_classify(batch).logits
    return fw, _step_loss(fw, t_logits, cfg.distill)


def test_kd_task_step_at_zero_lambda_pt_skips_cross_entropy_backward():
    fw, (loss, l_pt, _) = _task_kd_step()
    ce_backward, visits = fw.loss._backward, []

    def counted(g):
        visits.append(g)
        return ce_backward(g)

    fw.loss._backward = counted
    T.backward(loss)
    assert visits == []
    assert l_pt == float(fw.loss.values) > 0  # the hard loss is still logged


def test_nan_student_logits_give_nan_step_loss_at_zero_lambda_pt():
    fw, (loss, l_pt, l_kd) = _task_kd_step(nan_logits=True)
    assert np.isnan(fw.logits.values).any()
    assert np.isnan(float(loss.values)) and np.isnan(l_pt) and np.isnan(l_kd)


def test_final_train_loss_is_the_last_steps_loss():
    """With log_every 7 over 10 steps the last logged step is 7; the summary
    reports step 9's loss all the same, and the CSV holds the logged rows."""
    cfg = default_config("teacher-prep", seed=1, steps=10, log_every=7)
    ckpt, metrics = run_teacher_prep(cfg)
    _, every = run_teacher_prep(replace(cfg, log_every=1))
    assert metrics.rows == [every.rows[0], every.rows[7]]
    assert every.rows[9][-1] != every.rows[7][-1]
    assert ckpt.metrics["final_train_loss"] == every.rows[9][-1]


def test_stage_determinism():
    cfg = default_config("teacher-prep", seed=9, steps=15)
    a_ckpt, a_metrics = run_teacher_prep(cfg)
    b_ckpt, b_metrics = run_teacher_prep(cfg)
    assert serialize(a_ckpt) == serialize(b_ckpt)
    assert a_metrics.to_csv_text() == b_metrics.to_csv_text()


@pytest.mark.parametrize("stage", ["teacher-prep", "student-prune"])
def test_step_tape_is_freed_before_next_forward(stage):
    """At each forward's entry the previous step's logits array, and with it
    its tape, is gone, while the weight keeps its array: prune_step zeroes
    in place."""
    window = SparsitySchedule(0.0, 0.5, 0, 2, 2, 1) if stage == "student-prune" else None
    cfg = default_config(stage, seed=1, steps=4, pruning=window)
    model = build_model(cfg.model, 0)
    teacher = build_model(cfg.model, 1) if stage == "student-prune" else None
    corpus = build_synthetic_corpus(1, 64, vocab_size=cfg.model.vocab)
    w = model.parameters["layer.0.q.weight"]
    held, found = {}, []

    def forward(t):
        if held:
            old_w = held["weight"]()
            found.append((held["logits"]() is None, old_w is w.values))
        batch = make_mlm_batch(corpus, t, cfg.batch_size, cfg.seq_len)
        fw = model.forward_mlm(batch)
        held.update(logits=weakref.ref(fw.logits.values), weight=weakref.ref(w.values))
        with T.no_grad():
            return fw, None if teacher is None else teacher.forward_mlm(batch).logits

    def evaluate(last_loss):
        return model.forward_mlm(make_mlm_batch(corpus, cfg.steps, cfg.batch_size, cfg.seq_len)), {}

    _train(cfg, model, forward, evaluate)
    assert found == [(True, True)] * (cfg.steps - 1)


@pytest.mark.parametrize("stage", ["teacher-prep", "transfer", "qat"])
def test_evaluation_builds_no_tape(stage, monkeypatch, sparse_ckpt, finetuned_ckpt):
    """Every node taped after the last step's backward would be kept by the
    validation forward for nothing; there is none."""
    cfg = default_config(stage, seed=1, steps=2, kd_enabled=False)
    taped = []  # per taped node: whether training had ended
    backwards = []
    real_backward = T.backward

    def backward(loss):
        real_backward(loss)
        backwards.append(True)

    monkeypatch.setattr(T, "backward", backward)
    for module in (T, distill_module, quant_module):
        def node(values, parents, backward_fn, real=module._node):
            if T._taping:
                taped.append(len(backwards) == cfg.steps)
            return real(values, parents, backward_fn)
        monkeypatch.setattr(module, "_node", node)
    run_chain({stage: cfg}, {"prune": sparse_ckpt, "transfer": finetuned_ckpt})
    assert len(backwards) == cfg.steps and False in taped and True not in taped


@pytest.mark.parametrize("steps, where", [(5, "step 2"), (2, "validation")])
def test_diverging_run_is_divergence_error(steps, where, sparse_ckpt):
    """lr 1e30 is a legal value whose run diverges: the first overflow, in a
    step or in the validation forward after the last step, is a typed error
    naming the stage and where it happened, on the MLM and the task path."""
    assert issubclass(DivergenceError, SparsekitError)
    with pytest.raises(DivergenceError, match=f"^teacher-prep diverged in {where}: overflow"):
        run_teacher_prep(default_config("teacher-prep", seed=1, steps=steps, lr=1e30))
    with pytest.raises(DivergenceError, match=f"^transfer diverged in {where}: overflow"):
        run_transfer(default_config("transfer", seed=1, steps=steps, lr=1e30, kd_enabled=False),
                     sparse_ckpt)


def test_nan_start_weight_is_divergence_error(teacher_ckpt):
    """A NaN weight makes a NaN loss without a numpy event on the way; the
    step's loss check stops the run at its first step."""
    model = model_from_checkpoint(teacher_ckpt)
    model.parameters["layer.0.ffn_in.weight"].values[0, 0] = np.nan
    start = checkpoint_from_model(model, "teacher-prep")
    with pytest.raises(DivergenceError, match=r"^transfer diverged in step 0: loss is nan$"):
        run_transfer(default_config("transfer", seed=1, steps=3, kd_enabled=False), start)


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
    T.backward(T.add(kd_loss(s_logits, t_logits, 2.0), mean(T.mul(s_logits, t_logits))))
    assert all(p.grad is None for p in teacher.parameters.values())
    assert student.parameters["layer.0.q.weight"].grad is not None


# -- the frozen teachers --------------------------------------------------

# A short KD prune and KD transfer, run on the session's teacher and task
# teacher, whose record arrays are all writable.
KD_CHAIN = {"prune": default_config("student-prune", seed=2, steps=4,
                                    pruning=SparsitySchedule(0.0, 0.5, 0, 2, 2, 1)),
            "transfer": default_config("transfer", seed=4, steps=3)}


def _record_models(monkeypatch):
    """Per MLM forward of the runs that follow, the model and whether an
    optimizer trains it; and every task teacher built."""
    trained, forwards, task_teachers = [], [], []

    class RecordingAdam(Adam):
        def __init__(self, parameters, *args, **kwargs):
            super().__init__(parameters, *args, **kwargs)
            trained.append(parameters)

    class RecordingTaskTeacher(_TaskTeacher):
        def __init__(self, *args):
            super().__init__(*args)
            task_teachers.append(self.model)

    def forward_mlm(model, batch, real=EncoderModel.forward_mlm):
        forwards.append((model, any(model.parameters is p for p in trained)))
        return real(model, batch)

    monkeypatch.setattr(pipeline_module, "Adam", RecordingAdam)
    monkeypatch.setattr(pipeline_module, "_TaskTeacher", RecordingTaskTeacher)
    monkeypatch.setattr(EncoderModel, "forward_mlm", forward_mlm)
    return trained, forwards, task_teachers


def test_frozen_teachers_share_their_checkpoint_read_only(monkeypatch, teacher_ckpt,
                                                          task_teacher_ckpt):
    """The prune stage's teacher and a task teacher view their checkpoint's
    dense records, read-only; the student trains on its own copy."""
    trained, forwards, task_teachers = _record_models(monkeypatch)
    run_chain(KD_CHAIN, {"teacher-prep": teacher_ckpt, "task-teacher": task_teacher_ckpt})
    teacher = next(model for model, is_student in forwards if not is_student)
    for model, ckpt, student in ((teacher, teacher_ckpt, trained[0]),
                                 (task_teachers[0], task_teacher_ckpt, trained[1])):
        shared = 0
        for name, p in model.parameters.items():
            rec = ckpt.tensors[name]
            assert not p.values.flags.writeable
            if rec.storage == DENSE_F32:
                assert np.shares_memory(p.values, rec.payload)
                shared += 1
            assert not any(np.shares_memory(p.values, q.values) for q in student.values())
        assert shared > len(model.parameters) // 2
        with pytest.raises(ValueError, match="read-only"):
            model.parameters["layer.0.q.weight"].values[0, 0] = 0.0


def test_stages_leave_their_teacher_checkpoints_unchanged(teacher_ckpt, task_teacher_ckpt):
    before = serialize(teacher_ckpt), serialize(task_teacher_ckpt)
    run_chain(KD_CHAIN, {"teacher-prep": teacher_ckpt, "task-teacher": task_teacher_ckpt})
    assert (serialize(teacher_ckpt), serialize(task_teacher_ckpt)) == before


def test_kd_prune_step_runs_the_teacher_before_the_student(monkeypatch, teacher_ckpt):
    """The teacher's activations are freed before the student's tape exists;
    the validation forward is the student's alone."""
    _, forwards, _ = _record_models(monkeypatch)
    cfg = KD_CHAIN["prune"]
    run_student_prune(cfg, teacher_ckpt)
    assert [is_student for _, is_student in forwards] == [False, True] * cfg.steps + [True]


# -- the MLM step at the masked rows against the full-sequence oracle --------

def _label_grid(batch):
    """The batch's targets at their flat positions of the batch x seq grid,
    and -1 at every position that no loss scores."""
    flat = np.full(batch.input_ids.size, -1, dtype=np.int64)
    flat[batch.positions] = batch.targets
    return flat


def _row_weighted_cross_entropy(logits, labels):
    """cross_entropy_with_targets as it was when forward_mlm returned every
    position's logits: the mean over the rows whose label is not -1."""
    sel = labels != -1
    count = int(sel.sum())
    logp = T._log_softmax(logits.values)
    if count == 0:
        return T._node(np.zeros((), dtype=logits.dtype), (logits,),
                       lambda g: (np.zeros_like(logits.values),))
    rows, safe = np.arange(labels.shape[0]), np.where(sel, labels, 0)
    loss = -(logp[rows, safe] * sel).sum() / count

    def back(g):
        grad = np.exp(logp)
        grad[rows, safe] -= 1.0
        grad *= (sel / count)[:, None]
        return (g * grad,)

    return T._node(np.asarray(loss, dtype=logits.dtype), (logits,), back)


def _row_weighted_kd_loss(student_logits, teacher_logits, temperature, row_weights):
    """kd_loss as it was when forward_mlm returned every position's logits:
    the mean over the rows that row_weights selects."""
    zs, zt = student_logits.values, teacher_logits.values
    w = row_weights.astype(zs.dtype)
    count = w.sum()
    if count == 0:
        return T._node(np.zeros((), dtype=zs.dtype), (student_logits,),
                       lambda g: (np.zeros_like(zs),))
    t = T._softmax(zt / temperature)
    log_s = T._log_softmax(zs / temperature)
    loss = (-(t * log_s).sum(axis=-1) * w).sum() / count
    s = np.exp(log_s)
    return T._node(np.asarray(loss, dtype=zs.dtype), (student_logits,),
                   lambda g: (g * ((s - t) * (w / count)[:, None] / temperature),))


def _full_sequence_step_loss(student, teacher, batch, distill):
    """The MLM step loss with the last layer, the MLM head and both losses
    over every position, as before they ran at the masked rows alone.
    Returns the loss and the student's (batch * seq, vocab) logits."""
    def logits(model):
        hidden = model.encode(batch.input_ids, batch.attention_mask)
        out = T.linear(hidden, model.parameters["mlm_head.weight"],
                       model.parameters["mlm_head.bias"])
        return T.reshape(out, (batch.input_ids.size, model.config.vocab))

    labels = _label_grid(batch)
    z = logits(student)
    l_pt = _row_weighted_cross_entropy(z, labels)
    if teacher is None:
        return l_pt, z
    with T.no_grad():
        zt = logits(teacher)
    l_kd = _row_weighted_kd_loss(z, zt, distill.temperature, labels != -1)
    return combined_loss(l_pt, l_kd, distill), z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows, classes", [(16, 3), (34, 64), (1, 5)])
def test_kd_loss_bytes_equal_row_weighted_over_all_rows(rows, classes, dtype):
    """Over all rows (the task stages' KD), kd_loss keeps the bytes the
    row-weighted form gave with every weight 1, loss and gradient."""
    rng = np.random.Generator(np.random.PCG64(43))
    zs, zt = ((rng.standard_normal((rows, classes)) * 3).astype(dtype) for _ in range(2))
    g = np.asarray(rng.standard_normal(), dtype=dtype)
    got = kd_loss(T.Tensor(zs), T.Tensor(zt), 2.0)
    want = _row_weighted_kd_loss(T.Tensor(zs), T.Tensor(zt), 2.0, np.ones(rows, dtype=bool))
    assert got.values.tobytes() == want.values.tobytes()
    assert got._backward(g)[0].tobytes() == want._backward(g)[0].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows, classes", [(16, 3), (34, 64), (1, 5)])
def test_cross_entropy_bytes_equal_row_weighted_over_all_rows(rows, classes, dtype):
    """Over all rows (every task stage's loss), cross_entropy_with_targets
    keeps the bytes the row-weighted form gave with no row ignored, loss
    and gradient."""
    rng = np.random.Generator(np.random.PCG64(44))
    z = (rng.standard_normal((rows, classes)) * 3).astype(dtype)
    targets = rng.integers(0, classes, rows)
    g = np.asarray(rng.standard_normal(), dtype=dtype)
    got = T.cross_entropy_with_targets(T.Tensor(z), targets)
    want = _row_weighted_cross_entropy(T.Tensor(z), targets)
    assert got.values.tobytes() == want.values.tobytes()
    assert got._backward(g)[0].tobytes() == want._backward(g)[0].tobytes()


def _masked_rows_step(student, teacher, batch, distill):
    """The MLM stages' step: both forwards at the masked rows, then the one
    step loss of every stage. Returns (loss, l_pt, l_kd)."""
    fw = student.forward_mlm(batch)
    with T.no_grad():
        t_logits = None if teacher is None else teacher.forward_mlm(batch).logits
    return _step_loss(fw, t_logits, distill)


MLM_SHAPES = {"desk": {}, "wide": {"hidden": 128, "ffn_dim": 512, "heads": 4}}


def _float64_mlm_case(shape, n_masked):
    """Float64 student and teacher at a default prune config's shape, and a
    batch of its size; with n_masked, only the first n_masked masked
    positions are scored."""
    cfg = default_config("student-prune", seed=1)
    model_cfg = replace(cfg.model, head_kind="mlm", **MLM_SHAPES[shape])
    student = astype(build_model(model_cfg, seed=31), np.float64)
    teacher = astype(build_model(model_cfg, seed=32), np.float64)
    corpus = build_synthetic_corpus(1, 64, vocab_size=model_cfg.vocab)
    batch = make_mlm_batch(corpus, 5, cfg.batch_size, cfg.seq_len)
    if n_masked is not None:
        batch = replace(batch, positions=batch.positions[:n_masked],
                        targets=batch.targets[:n_masked])
    return student, teacher, batch, cfg.distill


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_masked", [None, 1, 0], ids=["batch", "one-masked", "none-masked"])
@pytest.mark.parametrize("kd", [True, False], ids=["kd", "no-kd"])
@pytest.mark.parametrize("shape", list(MLM_SHAPES))
def test_masked_rows_step_agrees_with_full_sequence_oracle(shape, kd, n_masked):
    """In float64 the MLM step loss, the student's logits and every parameter
    gradient are within 1e-12 of the largest magnitude of the full-sequence
    computation, also for a batch with one masked position or none."""
    student, teacher, batch, distill = _float64_mlm_case(shape, n_masked)
    teacher = teacher if kd else None
    rows = batch.positions
    results = []
    for step in (lambda: _masked_rows_step(student, teacher, batch, distill)[0],
                 lambda: _full_sequence_step_loss(student, teacher, batch, distill)[0]):
        for p in student.parameters.values():
            p.zero_grad()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            loss = step()
            T.backward(loss)
        results.append((float(loss.values), {n: p.grad for n, p in student.parameters.items()}))
    (got_loss, got), (want_loss, want) = results
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    # A key bias shifts every score of a softmax row alike, so its exact
    # gradient is 0 and both sides hold rounding noise; it is held to the
    # largest gradient magnitude of all parameters instead of its own.
    largest = max(np.abs(g).max() for g in want.values() if g is not None)
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
            continue
        scale = largest if name.endswith(".k.bias") else np.abs(want[name]).max()
        assert got[name].shape == want[name].shape, name
        assert np.abs(got[name] - want[name]).max() <= 1e-12 * scale, name
    logits = student.forward_mlm(batch).logits.values
    full = _full_sequence_step_loss(student, None, batch, distill)[1].values[rows]
    assert logits.shape == (rows.size, student.config.vocab)
    assert np.abs(logits - full).max(initial=0.0) <= 1e-12 * np.abs(full).max(initial=0.0)


@pytest.mark.filterwarnings("error")
def test_mlm_step_without_masked_positions_is_zero():
    """With nothing masked both losses and the step loss are +0.0, and no
    parameter gets a non-zero gradient."""
    student, teacher, batch, distill = _float64_mlm_case("desk", 0)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        fw = student.forward_mlm(batch)
        with T.no_grad():
            t_logits = teacher.forward_mlm(batch).logits
        l_kd = kd_loss(fw.logits, t_logits, distill.temperature)
        loss, l_pt, l_kd_value = _masked_rows_step(student, teacher, batch, distill)
        T.backward(loss)
    assert fw.logits.shape == (0, student.config.vocab)
    zero = np.float64(0.0).tobytes()
    assert fw.loss.values.tobytes() == l_kd.values.tobytes() == loss.values.tobytes() == zero
    assert (l_pt, l_kd_value) == (0.0, 0.0)
    assert all(p.grad is None or not p.grad.any() for p in student.parameters.values())


def _assert_cached_teacher_matches_forward(cfg, teacher_ckpt):
    """At every step of the schedule, the cached teacher's logits equal a
    full teacher forward on the step's minibatch, byte for byte."""
    task = _make_task(cfg)
    cached = _TaskTeacher(teacher_ckpt, task)
    teacher = model_from_checkpoint(teacher_ckpt, head_kind="classify",
                                    num_labels=task.num_labels)
    for t in range(cfg.steps):
        rows = task_minibatch_indices(task, _batch_seed(cfg.seed, t), cfg.batch_size)
        want = teacher.forward_classify(task_minibatch(task, rows)).logits.values
        got = cached.logits(rows).values
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


def test_cached_teacher_logits_match_forward_wide():
    # prune-wide's encoder shape, at the default batch of 16, and at batch 1
    # x seq 16: the fewest token rows (16) for which the cache is exact
    base = default_config("transfer", seed=6)
    model_cfg = replace(base.model, hidden=128, heads=4, ffn_dim=512)
    teacher = checkpoint_from_model(build_model(model_cfg, seed=12), "transfer")
    for batch_size in (16, 1):
        cfg = replace(base, model=model_cfg, batch_size=batch_size, seq_len=16)
        _assert_cached_teacher_matches_forward(cfg, teacher)


def test_task_teacher_cache_build_holds_one_chunk_at_a_time(monkeypatch, task_teacher_ckpt):
    """When a chunk's encode starts, no earlier chunk's output array is
    alive, and the cache has the bytes of every chunk's CLS states
    concatenated."""
    task = _make_task(default_config("transfer", seed=4))
    encode = EncoderModel.encode
    outputs, alive = [], []

    def recording_encode(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in outputs))
        out = encode(self, *args, **kwargs)
        owner = out.values
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        outputs.append(weakref.ref(owner))
        return out

    monkeypatch.setattr(EncoderModel, "encode", recording_encode)
    cls = _TaskTeacher(task_teacher_ckpt, task).cls
    monkeypatch.undo()
    ids, mask = task.train.input_ids, task.train.attention_mask
    starts = range(0, ids.shape[0], TEACHER_CHUNK_ROWS)
    assert len(starts) > 1 and alive == [0] * len(starts)
    model = model_from_checkpoint(task_teacher_ckpt, frozen=True)
    with T.no_grad():
        want = np.concatenate([model.encode(ids[i:i + TEACHER_CHUNK_ROWS],
                                            mask[i:i + TEACHER_CHUNK_ROWS]).values[:, 0]
                               for i in starts])
    assert cls.dtype == want.dtype and cls.shape == want.shape and cls.tobytes() == want.tobytes()


# sha256 of serialize(ckpt) and of the metrics CSV for each stage of a short
# seeded chain: student-prune (KD, interval 2), KD transfer, then qat.
# Re-pinned when the pruning stages dropped their one warmup step, which
# rewound the window to LR 0; every speed-up of the training path that
# claims the same arithmetic must keep these bytes.
GOLDEN_CHAIN = {
    "student-prune": ("0c559d3507cc224c2be80604ea30adad45440a9fca48811f2d7802d8e24c8725",
                      "10619987fd51859cf8188b18422d969c511aceecf07fd8f50890169820f849ba"),
    "transfer": ("198a8fa0f282305311d10a4221f087a3af57a35d2215d70a29dee51e9fa5cc1c",
                 "6be17e7a554a378e8a911fb1cbfd02c2668d18ec4ce770ec7e1505417f36a09b"),
    "qat": ("dde312176023c886e99cd65c2b15a841ecce737c016b2b47682ee62e8e4c42c2",
            "bcfaed827cb20463d15cc268c096ad42a098956c590a13ce2428adffbda03e2a"),
}


def _golden_chain(teacher_ckpt, task_teacher_ckpt):
    cfgs = {"prune": default_config("student-prune", seed=21, steps=24,
                                    pruning=SparsitySchedule(0.0, 0.8, 0, 12, 16, 2)),
            "transfer": default_config("transfer", seed=22, steps=24),
            "qat": default_config("qat", seed=23, steps=16)}
    runs = run_chain(cfgs, {"teacher-prep": teacher_ckpt, "task-teacher": task_teacher_ckpt})
    return {ckpt.stage: (hashlib.sha256(serialize(ckpt)).hexdigest(),
                         hashlib.sha256(metrics.to_csv_text().encode()).hexdigest())
            for ckpt, metrics in runs.values()}


def test_golden_training_chain(teacher_ckpt, task_teacher_ckpt):
    assert _golden_chain(teacher_ckpt, task_teacher_ckpt) == GOLDEN_CHAIN


def test_run_chain_calls_a_runner_patched_onto_pipeline(monkeypatch):
    """run_chain looks each runner up by name when it runs the node, so a
    wrapper set on the module, as the benchmark's tracer sets one, is the one
    called."""
    calls = []

    def counted(cfg):
        calls.append(cfg.stage)
        return run_teacher_prep(cfg)
    monkeypatch.setattr(pipeline_module, "run_teacher_prep", counted)
    runs = run_chain({"teacher-prep": default_config("teacher-prep", seed=6, steps=2)})
    assert calls == ["teacher-prep"]
    assert runs["teacher-prep"][0].stage == "teacher-prep"


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
