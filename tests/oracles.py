"""Reference code that only the tests use: a finite-difference gradient
check, the subtract, mean and temperature-softmax nodes that the checks
and identities are written with, and a model's copy in another dtype. No
training path calls these."""
from __future__ import annotations

from typing import Callable

import numpy as np

from sparsekit.model import EncoderModel
from sparsekit.tensor import (ContractError, ShapeError, Tensor, _node, _softmax,
                              _unbroadcast, _wrap, backward)


def astype(model: EncoderModel, dtype) -> EncoderModel:
    """A copy of `model` whose parameters hold `dtype` values."""
    params = {n: Tensor(p.values.astype(dtype), requires_grad=True)
              for n, p in model.parameters.items()}
    return EncoderModel(model.config, params)


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.values - b.values
    except ValueError:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mean(a: Tensor) -> Tensor:
    n = a.size
    return _node(np.asarray(a.values.mean(), dtype=a.dtype), (a,),
                 lambda g: (np.broadcast_to(g / n, a.shape).astype(a.dtype, copy=False),))


def soft_probs(logits: Tensor, temperature: float) -> Tensor:
    """softmax(logits / T) along the class axis; differentiable in logits."""
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    s = _softmax(logits.values / temperature)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot) / temperature,)

    return _node(s, (logits,), back)


def finite_diff_check(loss_fn: Callable[[], Tensor], params: dict, name: str, eps: float = 1e-3) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn must rebuild the scalar loss from the live parameter values on
    every call. Run with float64 parameters for a trustworthy bound.
    """
    if eps <= 0:
        raise ContractError("finite_diff_check: eps must be positive")
    if name not in params:
        raise KeyError(f"unknown parameter {name!r}")
    param = params[name]
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    if loss.size != 1:
        raise ContractError("finite_diff_check: loss must be scalar")
    backward(loss)
    analytic = np.zeros_like(param.values) if param.grad is None else param.grad.copy()

    flat = param.values.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float(loss_fn().values)
        flat[i] = orig - eps
        dn = float(loss_fn().values)
        flat[i] = orig
        numeric = (up - dn) / (2.0 * eps)
        a = float(analytic.reshape(-1)[i])
        denom = max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, abs(a - numeric) / denom)
    return worst
