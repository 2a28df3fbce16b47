"""Four-stage compression pipeline plus the fine-tune-pruning baseline.

Stages communicate only through checkpoints; every stage is a pure
function of (config, input checkpoints) given the seeds it carries.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, checkpoint_from_model, model_from_checkpoint
from .config import StageConfig
from .data import (MlmBatch, TaskDataset, build_synthetic_corpus, make_mlm_batch,
                   make_task_dataset, task_minibatch, task_minibatch_indices)
from .distill import combined_loss, kd_loss
from .model import (ConfigError, EncoderModel, ForwardResult, ModelConfig, build_model,
                    prunable_parameter_names)
from .optim import Adam
from .pruning import lock_pattern, prune_step, sparsity_report, target_sparsity
from .quant import QatContext
from .schedule import lr_rewound

METRICS_HEADER = "step,lr,target_sparsity,actual_sparsity,loss_pt,loss_kd,loss_total"

# Train-split rows per teacher encode when a task teacher's cache is built;
# bounds the size of one forward's activations.
TEACHER_CHUNK_ROWS = 64

# One step's (loss, l_pt, l_kd): the loss to backpropagate and the two terms logged.
# The builtin generic, unlike typing.Tuple, is not cached by typing, so a
# re-imported sparsekit does not keep the replaced copy's modules alive.
StepLoss = tuple[T.Tensor, float, float]


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


def _make_task(cfg: StageConfig) -> TaskDataset:
    return make_task_dataset(cfg.data.corpus_seed, cfg.data.num_examples,
                             cfg.data.num_labels, vocab_size=cfg.model.vocab,
                             seq_len=cfg.seq_len)


def _check_same_encoder(a, b):
    for f in fields(ModelConfig):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name not in ("head_kind", "num_labels") and x != y:
            raise ConfigError(f"model config mismatch on {f.name}: {x} vs {y}")


def _mlm_kd_step(student: EncoderModel, teacher: Optional[EncoderModel],
                 batch: MlmBatch, distill) -> StepLoss:
    """Combined loss on masked positions; returns (loss, l_pt, l_kd). Both
    forwards give logits at the masked positions alone, in the same order."""
    fw = student.forward_mlm(batch)
    if teacher is None:
        return fw.loss, float(fw.loss.values), 0.0
    with T.no_grad():
        t_logits = teacher.forward_mlm(batch).logits
    l_kd = kd_loss(fw.logits, t_logits, distill.temperature)
    loss = combined_loss(fw.loss, l_kd, distill)
    return loss, float(fw.loss.values), float(l_kd.values)


class _TaskTeacher:
    """The frozen task teacher of one stage, with its CLS states cached.

    The encoder runs once over the train split, tape-free and in chunks of
    TEACHER_CHUNK_ROWS rows, and keeps only each row's CLS hidden state.
    Each step then runs just the pooler and head on the rows the minibatch
    drew.

    The cache stops at the CLS state because that is the last point where a
    row's value does not depend on its batch-mates. `linear` runs one 2-D
    gemm over all batch x seq rows, and at the encoder's shapes each output
    row of such a gemm has the same bytes whatever rows surround it, once
    there are 16 or more. Attention runs one gemm per sample and head, and
    every layer norm and softmax reduces along the last axis. So a row
    encodes to the same bytes in a chunk as in its minibatch. The pooler
    and head are 2-D gemms over the minibatch's CLS rows alone, few and
    narrow, whose rounding depends on a row's position in the tile; cached
    logits would not match a per-step forward byte for byte.

    For the same reason the classify path keeps its full last layer, while
    the MLM path runs its last layer at the masked rows alone. A last layer
    run at the CLS rows alone gives its linears one row per sequence, under
    16 in a small minibatch, and such a gemm may round a row differently
    from the same row in a 64-row chunk. With it, the cached logits missed
    a live forward at desk batch 1 and at wide batches 8 and 2, where the
    full layer matches.
    """

    def __init__(self, ckpt: Checkpoint, task: TaskDataset):
        cfg = ckpt.model_config
        if (cfg.head_kind, cfg.num_labels) != ("classify", task.num_labels):
            raise ConfigError(f"task teacher must be a {task.num_labels}-label classifier; the "
                              f"{ckpt.stage} checkpoint has head_kind={cfg.head_kind}, "
                              f"num_labels={cfg.num_labels}")
        self.model = model_from_checkpoint(ckpt)
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
                  batch_seed: int, cfg: StageConfig) -> StepLoss:
    """Step loss of a task stage; returns (loss, l_pt, l_kd). With a teacher
    the loss is the soft teacher loss alone, over the rows that
    task_minibatch drew for `batch_seed`."""
    if teacher is None:
        return fw.loss, float(fw.loss.values), 0.0
    t_logits = teacher.logits(task_minibatch_indices(task, batch_seed, cfg.batch_size))
    loss = kd_loss(fw.logits, t_logits, cfg.distill.temperature)
    return loss, float(fw.loss.values), float(loss.values)


# -- the training loop -----------------------------------------------------

def _expect_stage(cfg: StageConfig, stage: str) -> None:
    if cfg.stage != stage:
        raise ConfigError(f"expected {stage} config, got {cfg.stage}")


def _train(cfg: StageConfig, model: EncoderModel, step_loss: Callable[[int], StepLoss],
           masks: Optional[Dict[str, np.ndarray]] = None) -> RunMetrics:
    """The step loop of every stage: one Adam step per `step_loss(t)`.

    A stage prunes exactly when its config has a pruning section: gradual
    magnitude pruning on that schedule, under the rewound learning rate.
    Without one, `masks` (None, or a locked zero pattern) holds on every step.
    """
    sp = cfg.pruning
    sched = cfg.lr_schedule()
    opt = Adam(model.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    for t in range(cfg.steps):
        lr = lr_rewound(sched, t)  # the plain schedule when there is no rewind window
        # the freeze step always prunes, so the frozen pattern meets the target
        if sp is not None and sp.start_step <= t <= sp.end_step \
                and ((t - sp.start_step) % sp.interval == 0 or t == sp.end_step):
            masks = prune_step(model, masks, target_sparsity(sp, t))
        loss, l_pt, l_kd = step_loss(t)
        opt.zero_grad()
        T.backward(loss)
        # pattern frozen after the last mask recomputation; regrowth before it
        opt.step(lr, masks if sp is None or t >= sp.end_step else None)
        if t % cfg.log_every == 0:
            metrics.log(t, lr, 0.0 if sp is None else target_sparsity(sp, t),
                        sparsity_report(model).aggregate, l_pt, l_kd, float(loss.values))
    return metrics


def _train_mlm(cfg: StageConfig, model: EncoderModel,
               teacher: Optional[EncoderModel]) -> Tuple[Checkpoint, RunMetrics]:
    """MLM path of teacher-prep and prune, distilled from `teacher` when one
    is given. A pruning stage reports the sparsity it reached, the dense
    stage its last training loss."""
    corpus = build_synthetic_corpus(cfg.data.corpus_seed, cfg.data.num_sequences,
                                    vocab_size=cfg.model.vocab, seq_len=max(cfg.seq_len, 8))

    def step_loss(t: int) -> StepLoss:
        batch = make_mlm_batch(corpus, _batch_seed(cfg.seed, t), cfg.batch_size, cfg.seq_len)
        return _mlm_kd_step(model, teacher, batch, cfg.distill)
    metrics = _train(cfg, model, step_loss)
    metrics.summary = ({"final_train_loss": metrics.rows[-1][-1]} if cfg.pruning is None
                       else {"final_sparsity": sparsity_report(model).aggregate})
    val = make_mlm_batch(corpus, seed=_batch_seed(cfg.data.corpus_seed, 999_999),
                         batch=cfg.batch_size, seq_len=cfg.seq_len, split="validation")
    metrics.summary["val_loss"] = float(model.forward_mlm(val).loss.values)
    return checkpoint_from_model(model, cfg.stage, metrics.summary, cfg.digest()), metrics


def _train_task(cfg: StageConfig, start_ckpt: Checkpoint, teacher_ckpt: Optional[Checkpoint],
                quant: Optional[QatContext] = None) -> Tuple[Checkpoint, RunMetrics]:
    """Task path of transfer, qat and the baseline: a classifier built from
    `start_ckpt` trains on minibatches of the config's task, then is
    evaluated on the validation split and checkpointed.

    Transfer and qat keep the zero pattern of `start_ckpt`; the baseline
    prunes on its own schedule. With `quant` the forwards are fake-quantized,
    and the model is evaluated and exported as the int8 runtime runs it:
    with the activation ranges that training observed, and int8 weights.
    """
    if cfg.kd_enabled and teacher_ckpt is None:
        raise ConfigError(f"{cfg.stage} with distillation needs a task teacher checkpoint")
    _check_same_encoder(cfg.model, start_ckpt.model_config)
    task = _make_task(cfg)
    model = model_from_checkpoint(start_ckpt, head_kind="classify",
                                  num_labels=task.num_labels, seed=cfg.seed)
    masks = lock_pattern(model) if cfg.pruning is None else None
    teacher = _TaskTeacher(teacher_ckpt, task) if cfg.kd_enabled else None

    def step_loss(t: int) -> StepLoss:
        batch_seed = _batch_seed(cfg.seed, t)
        batch = task_minibatch(task, batch_seed, cfg.batch_size)
        fw = model.forward_classify(batch, quant=quant)
        return _task_kd_step(fw, teacher, task, batch_seed, cfg)
    metrics = _train(cfg, model, step_loss, masks)
    q8_names, qat_summary = (), {}
    if quant is not None:
        q8_names = quant.weight_names
        qat_summary = {"activation_ranges": {k: list(v) for k, v in sorted(quant.ranges.items())}}
        quant = QatContext.from_ranges(q8_names, quant.ranges)
    fw = model.forward_classify(task.validation, quant=quant)
    acc = float((fw.logits.values.argmax(axis=-1) == task.validation.labels).mean())
    metrics.summary = {"val_accuracy": acc, "val_loss": float(fw.loss.values),
                       "final_sparsity": sparsity_report(model).aggregate, **qat_summary}
    ckpt = checkpoint_from_model(model, cfg.stage, metrics.summary, cfg.digest(), q8_names=q8_names)
    return ckpt, metrics


# -- stages -----------------------------------------------------------------

def run_teacher_prep(cfg: StageConfig) -> Tuple[Checkpoint, RunMetrics]:
    """Dense MLM training; the resulting model seeds the pruning stage."""
    _expect_stage(cfg, "teacher-prep")
    return _train_mlm(cfg, build_model(replace(cfg.model, head_kind="mlm"), cfg.seed), None)


def run_student_prune(cfg: StageConfig, teacher_ckpt: Checkpoint) -> Tuple[Checkpoint, RunMetrics]:
    """GMP with learning-rate rewinding under distillation from the frozen teacher."""
    _expect_stage(cfg, "student-prune")
    _check_same_encoder(cfg.model, teacher_ckpt.model_config)
    teacher = model_from_checkpoint(teacher_ckpt) if cfg.kd_enabled else None
    return _train_mlm(cfg, model_from_checkpoint(teacher_ckpt), teacher)


def run_transfer(cfg: StageConfig, start_ckpt: Checkpoint,
                 teacher_ckpt: Optional[Checkpoint] = None) -> Tuple[Checkpoint, RunMetrics]:
    """Task fine-tuning with the sparsity pattern locked.

    With distillation on, the objective is the soft teacher loss alone and
    a dense task teacher checkpoint is required.
    """
    _expect_stage(cfg, "transfer")
    return _train_task(cfg, start_ckpt, teacher_ckpt)


def run_qat(cfg: StageConfig, finetuned_ckpt: Checkpoint,
            teacher_ckpt: Optional[Checkpoint] = None) -> Tuple[Checkpoint, RunMetrics]:
    """Quantization-aware training on the fine-tuned model, then int8 export.

    Prunable weights are fake-quantized symmetrically and their outputs
    asymmetrically from running extrema; embeddings stay float. The zero
    pattern is locked throughout.
    """
    _expect_stage(cfg, "qat")
    qat = QatContext(prunable_parameter_names(finetuned_ckpt.model_config))
    return _train_task(cfg, finetuned_ckpt, teacher_ckpt, qat)


def run_finetune_prune_baseline(cfg: StageConfig, dense_ckpt: Checkpoint,
                                teacher_ckpt: Optional[Checkpoint] = None
                                ) -> Tuple[Checkpoint, RunMetrics]:
    """Baseline: GMP applied during task fine-tuning instead of pre-training."""
    _expect_stage(cfg, "finetune-prune-baseline")
    return _train_task(cfg, dense_ckpt, teacher_ckpt)


__all__ = [
    "RunMetrics", "METRICS_HEADER", "run_teacher_prep", "run_student_prune",
    "run_transfer", "run_qat", "run_finetune_prune_baseline",
]
