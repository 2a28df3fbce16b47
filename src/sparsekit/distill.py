"""Temperature-softened distillation loss and loss mixing."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, ShapeError, Tensor, _log_softmax, _node, _softmax


@dataclass(frozen=True)
class DistillConfig:
    temperature: float = 2.0
    lambda_pt: float = 0.5
    lambda_kd: float = 0.5

    def __post_init__(self):
        if self.temperature <= 0:
            raise ContractError("temperature must be positive")
        if self.lambda_pt < 0 or self.lambda_kd < 0 or self.lambda_pt + self.lambda_kd == 0:
            raise ContractError("loss weights must be non-negative and not both zero")


def soft_probs(logits: Tensor, temperature: float) -> Tensor:
    """softmax(logits / T) along the class axis; differentiable in logits."""
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    s = _softmax(logits.values / temperature)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot) / temperature,)

    return _node(s, (logits,), back)


def kd_loss(student_logits: Tensor, teacher_logits: Tensor, temperature: float) -> Tensor:
    """Soft cross-entropy between temperature-softened distributions, the
    mean over rows. With no rows the loss is 0 and flagged degenerate. The
    teacher side is a constant: no gradient flows to it.
    """
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    if student_logits.shape != teacher_logits.shape:
        raise ShapeError(
            f"kd_loss: student {student_logits.shape} vs teacher {teacher_logits.shape}")
    zs = student_logits.values.reshape(-1, student_logits.shape[-1])
    zt = teacher_logits.values.reshape(-1, teacher_logits.shape[-1])
    if zs.shape[0] == 0:
        out = _node(np.zeros((), dtype=zs.dtype), (student_logits,),
                    lambda g: (np.zeros_like(student_logits.values),))
        out.degenerate = True
        return out
    count = zs.dtype.type(zs.shape[0])

    t = _softmax(zt / temperature)
    log_s = _log_softmax(zs / temperature)
    per_row = -(t * log_s).sum(axis=-1)
    loss = per_row.sum() / count
    s = np.exp(log_s)

    def back(g):
        grad = (s - t) * (1 / count) / temperature
        return (g * grad.reshape(student_logits.shape),)

    return _node(np.asarray(loss, dtype=zs.dtype), (student_logits,), back)


def combined_loss(l_pt: Tensor, l_kd: Tensor, cfg: DistillConfig) -> Tensor:
    from .tensor import add, scale

    return add(scale(l_pt, cfg.lambda_pt), scale(l_kd, cfg.lambda_kd))
