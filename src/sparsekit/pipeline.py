"""Four-stage compression pipeline plus the fine-tune-pruning baseline.

Stages communicate only through checkpoints; every stage is a pure
function of (config, input checkpoints) given the seeds it carries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .checkpoint import (Checkpoint, checkpoint_from_model, deserialize, model_from_checkpoint,
                         serialize)
from .config import StageConfig
from .data import (TaskDataset, build_synthetic_corpus, make_mlm_batch, make_task_dataset,
                   task_minibatch, task_minibatch_indices)
from .distill import DistillConfig, combined_loss, kd_loss
from .model import (ConfigError, EncoderModel, ForwardResult, ModelConfig, build_model,
                    prunable_parameter_names)
from .optim import Adam
from .pruning import (lock_pattern, prune_step, restore_pattern, sparsity_report,
                      target_sparsity)
from .quant import QatContext
from .schedule import lr_rewound
from .tensor import SparsekitError

METRICS_HEADER = "step,lr,target_sparsity,actual_sparsity,loss_pt,loss_kd,loss_total"

# Train-split rows per teacher encode when a task teacher's cache is built;
# bounds the activations alive during the build to one such forward's.
TEACHER_CHUNK_ROWS = 64


@dataclass
class RunMetrics:
    rows: List[tuple] = field(default_factory=list)  # METRICS_HEADER's columns, per logged step
    summary: dict = field(default_factory=dict)

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
        if f.name not in ModelConfig.HEAD_FIELDS and x != y:
            raise ConfigError(f"model config mismatch on {f.name}: {x} vs {y}")


class _TaskTeacher:
    """The frozen task teacher of one stage, with its CLS states cached.

    The encoder runs once over the train split, tape-free and in chunks of
    TEACHER_CHUNK_ROWS rows. Each chunk's CLS hidden states are copied into
    the cache, so its last-layer output is freed before the next chunk
    encodes. Each step then runs just the pooler and head on the rows the
    minibatch drew.

    The cache stops at the CLS state because that is the last point where a
    row's value does not depend on its batch-mates. `linear` runs one 2-D
    gemm over all batch x seq rows, and at the encoder's shapes each output
    row of such a gemm has the same bytes whatever rows surround it, once
    there are 16 or more. Attention runs one gemm per sample and head, and
    every layer norm and softmax reduces along the last axis. So a row
    encodes to the same bytes in a chunk as in its minibatch, provided the
    minibatch has at least 16 token rows (batch_size x seq_len). Below
    that the cache may differ from a live forward: at hidden 128 and ffn
    512, batch 1 x seq 8 does, batch 1 x seq 16 does not. The pooler
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
        self.model = model_from_checkpoint(ckpt, frozen=True)
        ids, mask = task.train.input_ids, task.train.attention_mask
        self.cls = np.empty((ids.shape[0], cfg.hidden), dtype=np.float32)
        with T.no_grad():
            for i in range(0, ids.shape[0], TEACHER_CHUNK_ROWS):
                chunk = slice(i, i + TEACHER_CHUNK_ROWS)
                self.cls[chunk] = self.model.encode(ids[chunk], mask[chunk]).values[:, 0]

    def logits(self, rows: np.ndarray) -> T.Tensor:
        with T.no_grad():
            return self.model.classify_logits(T.Tensor(self.cls[rows]))


# -- the training loop -----------------------------------------------------

class DivergenceError(SparsekitError):
    """A training step, or the validation forward after the last step, made
    a NaN or infinite value."""


def _expect_stage(cfg: StageConfig, stage: str) -> None:
    if cfg.stage != stage:
        raise ConfigError(f"expected {stage} config, got {cfg.stage}")


def _step_loss(fw: ForwardResult, t_logits: Optional[T.Tensor],
               distill: DistillConfig) -> tuple[T.Tensor, float, float]:
    """A step's loss and its logged terms (l_pt, l_kd). With the teacher's
    logits at the student's rows, the loss is the `distill`-weighted sum of
    the hard loss and the temperature-softened teacher loss; without, the
    hard loss alone."""
    if t_logits is None:
        return fw.loss, float(fw.loss.values), 0.0
    l_kd = kd_loss(fw.logits, t_logits, distill.temperature)
    return combined_loss(fw.loss, l_kd, distill), float(fw.loss.values), float(l_kd.values)


def _train(cfg: StageConfig, model: EncoderModel,
           forward: Callable[[int], tuple[ForwardResult, Optional[T.Tensor]]],
           evaluate: Callable[[float], tuple[ForwardResult, dict]]) -> RunMetrics:
    """The body of every stage: one Adam step on the loss of `forward(t)`
    per step, then the validation forward. `forward(t)` gives the student's
    forward on step t's batch and the teacher's logits at the same rows
    (None without distillation). `evaluate(last_loss)`, given the last
    step's loss, logged or not, runs tape-free and gives the validation
    forward and the rest of the summary, to which `val_loss` is added.

    `_train` alone decides the zero pattern a stage holds. A stage prunes
    exactly when its config has a pruning section: gradual magnitude pruning
    on that schedule, under the rewound learning rate, and the masks of its
    last `prune_step` hold from `end_step` on. Any other stage holds the
    zeros of its start weights on every step; a start with no zero prunable
    weight holds no pattern.

    A step's tape lives from its forward to its backward: when
    `forward(t + 1)` runs, only the parameters, the masks, Adam's moments
    and step t's gradients remain of step t. A numpy overflow, invalid value
    or division by zero, or a NaN or infinite loss, in a step or in the
    validation forward, is a DivergenceError naming the stage and where.
    """
    sp = cfg.pruning
    masks = lock_pattern(model) if sp is None else None
    opt = Adam(model.parameters, weight_decay=cfg.weight_decay)
    metrics = RunMetrics()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for t in range(cfg.steps):
                where = f"step {t}"
                lr = lr_rewound(cfg, t)  # the plain schedule without a pruning window or with lrr off
                # the freeze step always prunes, so the frozen pattern meets the target
                if sp is not None and sp.start_step <= t <= sp.end_step \
                        and ((t - sp.start_step) % sp.interval == 0 or t == sp.end_step):
                    masks = prune_step(model, masks, target_sparsity(sp, t))
                loss, l_pt, l_kd = _step_loss(*forward(t), cfg.distill)
                # The gradients are cleared here, after this step's forward, not
                # after the last Adam step: the peak is in backward, where they
                # exist either way, and while they sat above the freed tape in the
                # heap, the forward reused the tape's memory instead of malloc
                # returning it to the OS and faulting it in again.
                opt.zero_grad()
                T.backward(loss)
                # dropping `loss` frees the step's tape
                step_loss = float(loss.values)
                del loss
                # a non-finite input weight carries into the loss without a numpy event
                if not math.isfinite(step_loss):
                    raise FloatingPointError(f"loss is {step_loss}")
                opt.step(lr)
                # pattern frozen after the last mask recomputation; regrowth before it
                if masks is not None and (sp is None or t >= sp.end_step):
                    restore_pattern(model, masks)
                if t % cfg.log_every == 0:
                    metrics.rows.append((t, lr, 0.0 if sp is None else target_sparsity(sp, t),
                                         sparsity_report(model).aggregate, l_pt, l_kd, step_loss))
            where = "validation"
            with T.no_grad():  # the loss is computed lazily, so it is read in here
                fw, metrics.summary = evaluate(step_loss)
                val_loss = metrics.summary["val_loss"] = float(fw.loss.values)
            if not math.isfinite(val_loss):
                raise FloatingPointError(f"loss is {val_loss}")
    except FloatingPointError as exc:
        raise DivergenceError(f"{cfg.stage} diverged in {where}: {exc}") from None
    return metrics


def _train_mlm(cfg: StageConfig, model: EncoderModel,
               teacher: Optional[EncoderModel]) -> Tuple[Checkpoint, RunMetrics]:
    """MLM path of teacher-prep and prune, distilled from `teacher` when one
    is given. A pruning stage reports the sparsity it reached, the dense
    stage its last training loss."""
    corpus = build_synthetic_corpus(cfg.data.corpus_seed, cfg.data.num_sequences,
                                    vocab_size=cfg.model.vocab, seq_len=max(cfg.seq_len, 8))

    def forward(t: int):
        # both forwards give logits at the masked positions alone, in the same order;
        # the teacher's runs first, so its activations are freed before the
        # student's tape exists
        batch = make_mlm_batch(corpus, _batch_seed(cfg.seed, t), cfg.batch_size, cfg.seq_len)
        with T.no_grad():
            t_logits = None if teacher is None else teacher.forward_mlm(batch).logits
        return model.forward_mlm(batch), t_logits

    def evaluate(last_loss: float):
        val = make_mlm_batch(corpus, seed=_batch_seed(cfg.data.corpus_seed, 999_999),
                             batch=cfg.batch_size, seq_len=cfg.seq_len, split="validation")
        summary = ({"final_train_loss": last_loss} if cfg.pruning is None
                   else {"final_sparsity": sparsity_report(model).aggregate})
        return model.forward_mlm(val), summary
    metrics = _train(cfg, model, forward, evaluate)
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
    teacher = _TaskTeacher(teacher_ckpt, task) if cfg.kd_enabled else None

    def forward(t: int):
        rows = task_minibatch_indices(task, _batch_seed(cfg.seed, t), cfg.batch_size)
        fw = model.forward_classify(task_minibatch(task, rows), quant=quant)
        return fw, None if teacher is None else teacher.logits(rows)

    def evaluate(last_loss: float):
        frozen, qat_summary = None, {}
        if quant is not None:
            frozen = QatContext.from_ranges(quant.weight_names, quant.ranges)
            qat_summary = {"activation_ranges": {k: list(v)
                                                 for k, v in sorted(quant.ranges.items())}}
        fw = model.forward_classify(task.validation, quant=frozen)
        acc = float((fw.logits.values.argmax(axis=-1) == task.validation.labels).mean())
        return fw, {"val_accuracy": acc, "final_sparsity": sparsity_report(model).aggregate,
                    **qat_summary}
    metrics = _train(cfg, model, forward, evaluate)
    q8_names = () if quant is None else quant.weight_names
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
    teacher = model_from_checkpoint(teacher_ckpt, frozen=True) if cfg.kd_enabled else None
    return _train_mlm(cfg, model_from_checkpoint(teacher_ckpt), teacher)


def run_transfer(cfg: StageConfig, start_ckpt: Checkpoint,
                 teacher_ckpt: Optional[Checkpoint] = None) -> Tuple[Checkpoint, RunMetrics]:
    """Task fine-tuning with the sparsity pattern locked.

    With distillation on, a dense task teacher checkpoint is required. The
    `[distill]` weights mix the hard and soft losses as in pruning; the
    defaults (0, 1) train on the soft teacher loss alone.
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


# -- the stage graph --------------------------------------------------------

# node -> (runner's name, (start checkpoint node[, task teacher node])), in run order
CHAIN = {
    "teacher-prep": ("run_teacher_prep", ()),
    "task-teacher": ("run_transfer", ("teacher-prep",)),
    "prune": ("run_student_prune", ("teacher-prep",)),
    "transfer": ("run_transfer", ("prune", "task-teacher")),
    "qat": ("run_qat", ("transfer", "task-teacher")),
    "baseline": ("run_finetune_prune_baseline", ("teacher-prep", "task-teacher")),
}


def run_chain(cfgs: Dict[str, StageConfig], given: Optional[Dict[str, Checkpoint]] = None
              ) -> Dict[str, Tuple[Checkpoint, RunMetrics]]:
    """Run, in CHAIN order, every node that `cfgs` configures, on the outputs
    of earlier nodes or the checkpoints in `given`; return {node: (checkpoint,
    metrics)}. A later node reads each output through serialize/deserialize,
    as through the CLI's files. A missing task teacher is None."""
    ckpts, runs = dict(given or {}), {}
    for node, (runner, inputs) in CHAIN.items():
        if node not in cfgs:
            continue
        if inputs and inputs[0] not in ckpts:
            raise ConfigError(f"{node} needs a {inputs[0]} checkpoint")
        # looked up at call time, so that a patch of a runner applies here too
        runs[node] = globals()[runner](cfgs[node], *(ckpts.get(n) for n in inputs))
        ckpts[node] = deserialize(serialize(runs[node][0]))
    return runs
