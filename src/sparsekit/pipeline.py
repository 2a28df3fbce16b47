"""Four-stage compression pipeline plus the fine-tune-pruning baseline.

Stages communicate only through checkpoints; every stage is a pure
function of (config, input checkpoints) given the seeds it carries.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from . import tensor as T
from .checkpoint import (Checkpoint, checkpoint_from_model, load_checkpoint,
                         model_from_checkpoint, save_checkpoint)
from .config import StageConfig
from .data import (Corpus, MlmBatch, TaskDataset, build_synthetic_corpus,
                   make_mlm_batch, make_task_dataset, task_minibatch,
                   task_minibatch_indices)
from .distill import combined_loss, kd_loss
from .model import ConfigError, EncoderModel, ForwardResult, build_model
from .optim import Adam
from .pruning import (MaskSet, lock_pattern, prune_step, sparsity_report,
                      target_sparsity)
from .quant import QatContext, weight_qparams
from .schedule import lr_base, lr_rewound

METRICS_HEADER = "step,lr,target_sparsity,actual_sparsity,loss_pt,loss_kd,loss_total"

# Train-split rows per teacher encode when a task teacher's cache is built;
# bounds the size of one forward's activations.
TEACHER_CHUNK_ROWS = 64


@dataclass
class RunMetrics:
    rows: List[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def log(self, step, lr, target_sp, actual_sp, loss_pt, loss_kd, loss_total):
        self.rows.append((step, lr, target_sp, actual_sp, loss_pt, loss_kd, loss_total))

    def to_csv_text(self) -> str:
        lines = [METRICS_HEADER]
        for row in self.rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv_text())


def _batch_seed(seed: int, step: int) -> int:
    return seed * 1_000_003 + step


def _make_corpus(cfg: StageConfig) -> Corpus:
    return build_synthetic_corpus(cfg.data.corpus_seed, cfg.data.num_sequences,
                                  vocab_size=cfg.model.vocab, seq_len=max(cfg.seq_len, 8))


def _make_task(cfg: StageConfig) -> TaskDataset:
    return make_task_dataset(cfg.data.corpus_seed, cfg.data.num_examples,
                             cfg.data.num_labels, vocab_size=cfg.model.vocab,
                             seq_len=cfg.seq_len)


def _check_same_encoder(a, b):
    fields = ("num_layers", "hidden", "heads", "ffn_dim", "vocab", "max_seq", "has_pooler")
    for f in fields:
        if getattr(a, f) != getattr(b, f):
            raise ConfigError(f"model config mismatch on {f}: {getattr(a, f)} vs {getattr(b, f)}")


def _mlm_kd_step(student: EncoderModel, teacher: Optional[EncoderModel],
                 batch: MlmBatch, distill) -> Tuple[T.Tensor, float, float]:
    """Combined loss on masked positions; returns (loss, l_pt, l_kd)."""
    fw = student.forward_mlm(batch)
    if teacher is None:
        return fw.loss, float(fw.loss.values), 0.0
    with T.no_grad():
        t_logits = teacher.forward_mlm(batch).logits
    weights = (batch.labels.reshape(-1) != -1).astype(np.float32)
    l_kd = kd_loss(fw.logits, t_logits, distill.temperature, row_weights=weights)
    loss = combined_loss(fw.loss, l_kd, distill)
    return loss, float(fw.loss.values), float(l_kd.values)


class _TaskTeacher:
    """The frozen task teacher of one stage, with its CLS states cached.

    The encoder runs once over the train split, tape-free and in chunks of
    TEACHER_CHUNK_ROWS rows, and keeps only each row's CLS hidden state.
    Each step then runs just the pooler and head on the rows the minibatch
    drew.

    The cache stops at the CLS state because that is the last point where a
    row's value does not depend on its batch-mates. numpy's stacked matmul
    runs one gemm per sample, and every layer norm and softmax reduces along
    the last axis, so a row encodes to the same bytes in a chunk as in its
    minibatch. The pooler and head are 2-D gemms over the whole minibatch,
    whose rounding depends on a row's position in the tile; cached logits
    would not match a per-step forward byte for byte.
    """

    def __init__(self, ckpt: Checkpoint, task: TaskDataset):
        self.model = model_from_checkpoint(ckpt, head_kind="classify",
                                           num_labels=task.num_labels)
        ids, mask = task.train.input_ids, task.train.attention_mask
        with T.no_grad():
            self.cls = np.concatenate([
                self.model.encode(ids[i:i + TEACHER_CHUNK_ROWS],
                                  mask[i:i + TEACHER_CHUNK_ROWS]).values[:, 0]
                for i in range(0, ids.shape[0], TEACHER_CHUNK_ROWS)])

    def logits(self, rows: np.ndarray) -> T.Tensor:
        with T.no_grad():
            return self.model.classify_logits(T.Tensor(self.cls[rows]))


def _task_kd_step(fw: ForwardResult, teacher: Optional[_TaskTeacher], task: TaskDataset,
                  batch_seed: int, cfg: StageConfig) -> Tuple[T.Tensor, float, float]:
    """Step loss of a task stage; returns (loss, l_pt, l_kd). With a teacher
    the loss is the soft teacher loss alone, over the rows that
    task_minibatch drew for `batch_seed`."""
    if teacher is None:
        return fw.loss, float(fw.loss.values), 0.0
    t_logits = teacher.logits(task_minibatch_indices(task, batch_seed, cfg.batch_size))
    loss = kd_loss(fw.logits, t_logits, cfg.distill.temperature)
    return loss, float(fw.loss.values), float(loss.values)


def _eval_mlm(model: EncoderModel, corpus: Corpus, cfg: StageConfig) -> float:
    batch = make_mlm_batch(corpus, seed=_batch_seed(cfg.data.corpus_seed, 999_999),
                           batch=cfg.batch_size, seq_len=cfg.seq_len, split="validation")
    return float(model.forward_mlm(batch).loss.values)


def _eval_task(model: EncoderModel, task: TaskDataset, quant=None) -> Tuple[float, float]:
    """Validation (accuracy, mean loss)."""
    fw = model.forward_classify(task.validation, quant=quant)
    pred = fw.logits.values.argmax(axis=-1)
    acc = float((pred == task.validation.labels).mean())
    return acc, float(fw.loss.values)


# -- stages -----------------------------------------------------------------

def run_teacher_prep(cfg: StageConfig) -> Tuple[Checkpoint, RunMetrics]:
    """Dense MLM training; the resulting model seeds the pruning stage."""
    if cfg.stage != "teacher-prep":
        raise ConfigError(f"expected teacher-prep config, got {cfg.stage}")
    model = build_model(replace(cfg.model, head_kind="mlm"), cfg.seed)
    corpus = _make_corpus(cfg)
    sched = cfg.lr_schedule()
    opt = Adam(model.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    for t in range(cfg.steps):
        lr = lr_base(sched, t)
        batch = make_mlm_batch(corpus, _batch_seed(cfg.seed, t), cfg.batch_size, cfg.seq_len)
        loss = model.forward_mlm(batch).loss
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr)
        if t % cfg.log_every == 0:
            lv = float(loss.values)
            metrics.log(t, lr, 0.0, sparsity_report(model).aggregate, lv, 0.0, lv)
    metrics.summary = {"final_train_loss": metrics.rows[-1][-1],
                       "val_loss": _eval_mlm(model, corpus, cfg)}
    ckpt = checkpoint_from_model(model, "teacher-prep", metrics.summary, cfg.digest())
    return ckpt, metrics


def run_student_prune(cfg: StageConfig, teacher_ckpt: Checkpoint) -> Tuple[Checkpoint, RunMetrics]:
    """GMP with learning-rate rewinding under distillation from the frozen teacher."""
    if cfg.stage != "student-prune":
        raise ConfigError(f"expected student-prune config, got {cfg.stage}")
    _check_same_encoder(cfg.model, teacher_ckpt.model_config)
    teacher = model_from_checkpoint(teacher_ckpt)
    student = model_from_checkpoint(teacher_ckpt)
    corpus = _make_corpus(cfg)
    sp = cfg.pruning
    sched = cfg.lr_schedule()
    opt = Adam(student.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    masks: Optional[MaskSet] = None
    kd_teacher = teacher if cfg.kd_enabled else None
    for t in range(cfg.steps):
        lr = lr_rewound(sched, t)
        if sp.start_step <= t <= sp.end_step and (t - sp.start_step) % sp.interval == 0:
            masks = prune_step(student, masks, target_sparsity(sp, t))
        batch = make_mlm_batch(corpus, _batch_seed(cfg.seed, t), cfg.batch_size, cfg.seq_len)
        loss, l_pt, l_kd = _mlm_kd_step(student, kd_teacher, batch, cfg.distill)
        opt.zero_grad()
        T.backward(loss)
        # pattern frozen after the last mask recomputation; regrowth before it
        opt.step(lr, masks if t >= sp.end_step else None)
        if t % cfg.log_every == 0:
            metrics.log(t, lr, target_sparsity(sp, t), sparsity_report(student).aggregate,
                        l_pt, l_kd, float(loss.values))
    metrics.summary = {"final_sparsity": sparsity_report(student).aggregate,
                       "val_loss": _eval_mlm(student, corpus, cfg)}
    ckpt = checkpoint_from_model(student, "student-prune", metrics.summary, cfg.digest())
    return ckpt, metrics


def run_transfer(cfg: StageConfig, start_ckpt: Checkpoint,
                 task: Optional[TaskDataset] = None,
                 teacher_ckpt: Optional[Checkpoint] = None) -> Tuple[Checkpoint, RunMetrics]:
    """Task fine-tuning with the sparsity pattern locked.

    With distillation on, the objective is the soft teacher loss alone and
    a dense task teacher checkpoint is required.
    """
    if cfg.stage != "transfer":
        raise ConfigError(f"expected transfer config, got {cfg.stage}")
    if cfg.kd_enabled and teacher_ckpt is None:
        raise ConfigError("transfer with distillation needs a task teacher checkpoint")
    task = task or _make_task(cfg)
    model = model_from_checkpoint(start_ckpt, head_kind="classify",
                                  num_labels=task.num_labels, seed=cfg.seed)
    masks = lock_pattern(model)
    teacher = _TaskTeacher(teacher_ckpt, task) if cfg.kd_enabled else None
    sched = cfg.lr_schedule()
    opt = Adam(model.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    for t in range(cfg.steps):
        lr = lr_base(sched, t)
        batch_seed = _batch_seed(cfg.seed, t)
        batch = task_minibatch(task, batch_seed, cfg.batch_size)
        fw = model.forward_classify(batch)
        loss, l_pt, l_kd = _task_kd_step(fw, teacher, task, batch_seed, cfg)
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr, masks)
        if t % cfg.log_every == 0:
            metrics.log(t, lr, 0.0, sparsity_report(model).aggregate,
                        l_pt, l_kd, float(loss.values))
    acc, val_loss = _eval_task(model, task)
    metrics.summary = {"val_accuracy": acc, "val_loss": val_loss,
                       "final_sparsity": sparsity_report(model).aggregate}
    ckpt = checkpoint_from_model(model, "transfer", metrics.summary, cfg.digest())
    return ckpt, metrics


def run_qat(cfg: StageConfig, finetuned_ckpt: Checkpoint,
            task: Optional[TaskDataset] = None,
            teacher_ckpt: Optional[Checkpoint] = None) -> Tuple[Checkpoint, RunMetrics]:
    """Quantization-aware training on the fine-tuned model, then int8 export.

    Prunable weights are fake-quantized symmetrically and their outputs
    asymmetrically from running extrema; embeddings stay float. The zero
    pattern is locked throughout.
    """
    if cfg.stage != "qat":
        raise ConfigError(f"expected qat config, got {cfg.stage}")
    task = task or _make_task(cfg)
    model = model_from_checkpoint(finetuned_ckpt, head_kind="classify",
                                  num_labels=task.num_labels, seed=cfg.seed)
    masks = lock_pattern(model)
    qat = QatContext(model.prunable_parameters())
    teacher = None
    if cfg.kd_enabled and teacher_ckpt is not None:
        teacher = _TaskTeacher(teacher_ckpt, task)
    sched = cfg.lr_schedule()
    opt = Adam(model.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    for t in range(cfg.steps):
        lr = lr_base(sched, t)
        batch_seed = _batch_seed(cfg.seed, t)
        batch = task_minibatch(task, batch_seed, cfg.batch_size)
        fw = model.forward_classify(batch, quant=qat)
        loss, l_pt, l_kd = _task_kd_step(fw, teacher, task, batch_seed, cfg)
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr, masks)
        if t % cfg.log_every == 0:
            metrics.log(t, lr, 0.0, sparsity_report(model).aggregate,
                        l_pt, l_kd, float(loss.values))
    acc, val_loss = _eval_task(model, task, quant=QatContext.from_ranges(
        model.prunable_parameters(), qat.observer_ranges()))
    metrics.summary = {
        "val_accuracy": acc, "val_loss": val_loss,
        "final_sparsity": sparsity_report(model).aggregate,
        "activation_ranges": {k: list(v) for k, v in sorted(qat.observer_ranges().items())},
    }
    q8_names = {name: weight_qparams(model.parameters[name]).scale
                for name in model.prunable_parameters()}
    ckpt = checkpoint_from_model(model, "qat", metrics.summary, cfg.digest(), q8_names=q8_names)
    return ckpt, metrics


def run_finetune_prune_baseline(cfg: StageConfig, dense_ckpt: Checkpoint,
                                task: Optional[TaskDataset] = None,
                                teacher_ckpt: Optional[Checkpoint] = None
                                ) -> Tuple[Checkpoint, RunMetrics]:
    """Baseline: GMP applied during task fine-tuning instead of pre-training."""
    if cfg.stage != "finetune-prune-baseline":
        raise ConfigError(f"expected finetune-prune-baseline config, got {cfg.stage}")
    task = task or _make_task(cfg)
    model = model_from_checkpoint(dense_ckpt, head_kind="classify",
                                  num_labels=task.num_labels, seed=cfg.seed)
    if cfg.kd_enabled and teacher_ckpt is None:
        raise ConfigError("baseline with distillation needs a task teacher checkpoint")
    teacher = _TaskTeacher(teacher_ckpt, task) if cfg.kd_enabled else None
    sp = cfg.pruning
    sched = cfg.lr_schedule()
    opt = Adam(model.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    masks: Optional[MaskSet] = None
    for t in range(cfg.steps):
        lr = lr_rewound(sched, t)
        if sp.start_step <= t <= sp.end_step and (t - sp.start_step) % sp.interval == 0:
            masks = prune_step(model, masks, target_sparsity(sp, t))
        batch_seed = _batch_seed(cfg.seed, t)
        batch = task_minibatch(task, batch_seed, cfg.batch_size)
        fw = model.forward_classify(batch)
        loss, l_pt, l_kd = _task_kd_step(fw, teacher, task, batch_seed, cfg)
        opt.zero_grad()
        T.backward(loss)
        opt.step(lr, masks if t >= sp.end_step else None)
        if t % cfg.log_every == 0:
            metrics.log(t, lr, target_sparsity(sp, t), sparsity_report(model).aggregate,
                        l_pt, l_kd, float(loss.values))
    acc, val_loss = _eval_task(model, task)
    metrics.summary = {"val_accuracy": acc, "val_loss": val_loss,
                       "final_sparsity": sparsity_report(model).aggregate}
    ckpt = checkpoint_from_model(model, "finetune-prune-baseline", metrics.summary, cfg.digest())
    return ckpt, metrics


__all__ = [
    "RunMetrics", "METRICS_HEADER", "run_teacher_prep", "run_student_prune",
    "run_transfer", "run_qat", "run_finetune_prune_baseline",
    "save_checkpoint", "load_checkpoint",
]
