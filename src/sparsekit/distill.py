"""Temperature-softened distillation loss and loss mixing."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def kd_loss(student_logits: Tensor, teacher_logits: Tensor, temperature: float,
            row_weights: Optional[np.ndarray] = None) -> Tensor:
    """Soft cross-entropy between temperature-softened distributions.

    Mean over rows (or the weighted rows when row_weights is given, e.g. the
    masked prediction sites). The teacher side is a constant: no gradient
    flows to it.
    """
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    if student_logits.shape != teacher_logits.shape:
        raise ShapeError(
            f"kd_loss: student {student_logits.shape} vs teacher {teacher_logits.shape}")
    zs = student_logits.values.reshape(-1, student_logits.shape[-1])
    zt = teacher_logits.values.reshape(-1, teacher_logits.shape[-1])
    n_rows = zs.shape[0]
    w = np.ones(n_rows, dtype=zs.dtype) if row_weights is None else row_weights.reshape(-1).astype(zs.dtype)
    count = w.sum()
    if count == 0:
        out = _node(np.zeros((), dtype=zs.dtype), (student_logits,),
                    lambda g: (np.zeros_like(student_logits.values),))
        out.degenerate = True
        return out

    t = _softmax(zt / temperature)
    log_s = _log_softmax(zs / temperature)
    per_row = -(t * log_s).sum(axis=-1)
    loss = (per_row * w).sum() / count
    s = np.exp(log_s)

    def back(g):
        grad = (s - t) * (w / count)[:, None] / temperature
        return (g * grad.reshape(student_logits.shape),)

    return _node(np.asarray(loss, dtype=zs.dtype), (student_logits,), back)


def combined_loss(l_pt: Tensor, l_kd: Tensor, cfg: DistillConfig) -> Tensor:
    from .tensor import add, scale

    return add(scale(l_pt, cfg.lambda_pt), scale(l_kd, cfg.lambda_kd))
