"""Temperature-softened distillation loss and loss mixing."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor, _log_softmax, _node, _softmax


@dataclass(frozen=True)
class DistillConfig:
    temperature: float = 2.0
    lambda_pt: float = 0.5
    lambda_kd: float = 0.5

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.temperature < math.inf:
            raise ContractError(f"temperature must be positive and finite, got {self.temperature}")
        if not (0 <= self.lambda_pt < math.inf and 0 <= self.lambda_kd < math.inf) \
                or self.lambda_pt + self.lambda_kd == 0:
            raise ContractError(f"loss weights must be finite, non-negative and not both zero, "
                                f"got {self.lambda_pt} and {self.lambda_kd}")


def kd_loss(student_logits: Tensor, teacher_logits: Tensor, temperature: float) -> Tensor:
    """Soft cross-entropy between temperature-softened distributions of
    (rows, classes) logits, the mean over rows; 0 with no rows. The teacher
    side is a constant: no gradient flows to it.
    """
    if not temperature > 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    if student_logits.values.ndim != 2 or student_logits.shape != teacher_logits.shape:
        raise ShapeError(
            f"kd_loss: student {student_logits.shape} vs teacher {teacher_logits.shape}")
    zs, zt = student_logits.values, teacher_logits.values
    count = zs.dtype.type(max(zs.shape[0], 1))

    t = _softmax(zt / temperature)
    log_s = _log_softmax(zs / temperature)
    per_row = -(t * log_s).sum(axis=-1)
    loss = per_row.sum() / count
    s = np.exp(log_s)

    def back(g):
        return (g * ((s - t) * (1 / count) / temperature),)

    return _node(np.asarray(loss, dtype=zs.dtype), (student_logits,), back)


def combined_loss(l_pt: Tensor, l_kd: Tensor, cfg: DistillConfig) -> Tensor:
    """lambda_pt * l_pt + lambda_kd * l_kd. A term of weight 0 is left off the
    tape, and its backward never runs, unless its value is non-finite: for
    finite x, 0 x + y == y, with the same bytes for the sum and its gradient."""
    terms = [T.scale(loss, w) for loss, w in ((l_pt, cfg.lambda_pt), (l_kd, cfg.lambda_kd))
             if w != 0 or not np.isfinite(loss.values)]
    return terms[0] if len(terms) == 1 else T.add(*terms)
