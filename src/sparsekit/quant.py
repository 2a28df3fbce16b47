"""8-bit fake quantization: symmetric weights, asymmetric activations, STE."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .tensor import ContractError, Tensor, _node


@dataclass(frozen=True)
class QuantParams:
    scale: float
    zero_point: int
    bits: int = 8
    scheme: str = "symmetric-weight"

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1) - 1) if self.scheme == "symmetric-weight" else 0

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.scheme == "symmetric-weight" else 2 ** self.bits - 1


@dataclass
class Observer:
    """Running min/max of everything seen; backs the asymmetric activation range.
    A batch holding NaN or an infinity is a ContractError: min/max would keep
    or drop it depending on the order batches arrive in."""

    running_min: Optional[float] = None
    running_max: Optional[float] = None
    name: str = "activation"

    @property
    def initialized(self) -> bool:
        return self.running_min is not None

    def observe(self, x: np.ndarray) -> "Observer":
        lo = float(x.min())
        hi = float(x.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ContractError(f"observer {self.name!r}: non-finite activations "
                                f"(batch min {lo}, max {hi})")
        if self.running_min is None:
            self.running_min, self.running_max = lo, hi
        else:
            self.running_min = min(self.running_min, lo)
            self.running_max = max(self.running_max, hi)
        return self


def weight_qparams(w) -> QuantParams:
    """Per-tensor symmetric int8: scale = max|w| / 127, zero point 0."""
    vals = w.values if isinstance(w, Tensor) else np.asarray(w)
    amax = float(np.abs(vals).max()) if vals.size else 0.0
    scale = amax / 127.0 if amax > 0 else 1.0
    return QuantParams(scale=scale, zero_point=0, scheme="symmetric-weight")


def activation_qparams(obs: Observer) -> QuantParams:
    """Asymmetric uint8 over the observed range widened to include zero."""
    if not obs.initialized:
        raise ContractError("activation_qparams: observer has seen no data")
    lo = min(0.0, obs.running_min)
    hi = max(0.0, obs.running_max)
    if hi == lo:
        return QuantParams(scale=1.0, zero_point=0, scheme="asymmetric-activation")
    scale = (hi - lo) / 255.0
    zp = int(np.clip(round(-lo / scale), 0, 255))
    return QuantParams(scale=scale, zero_point=zp, scheme="asymmetric-activation")


def quantize_ints(x: np.ndarray, qp: QuantParams) -> np.ndarray:
    return np.clip(np.round(x / np.float32(qp.scale)) + qp.zero_point, qp.qmin, qp.qmax)


def dequantize(q: np.ndarray, qp: QuantParams) -> np.ndarray:
    return (q.astype(np.float32) - np.float32(qp.zero_point)) * np.float32(qp.scale)


def fake_quant(x: Tensor, qp: QuantParams) -> Tensor:
    """Quantize-dequantize projection; straight-through gradient inside range."""
    raw = x.values / np.float32(qp.scale) + qp.zero_point
    in_range = (raw >= qp.qmin) & (raw <= qp.qmax)
    q = np.clip(np.round(raw), qp.qmin, qp.qmax)
    # adding +0.0 normalizes -0.0 (from rounding small negatives) to +0.0,
    # so quantized zeros compare bit-equal and the projection is idempotent
    out = (q - np.float32(qp.zero_point)) * np.float32(qp.scale) + np.float32(0.0)

    def back(g):
        return (g * in_range,)

    return _node(out.astype(x.dtype, copy=False), (x,), back)


class QatContext:
    """Fake-quant hooks for the model forward.

    Weights get fresh symmetric params each call; activation ranges come
    from named running-extrema observers. When frozen, observers stop
    updating so evaluation matches the exported integer model.
    """

    def __init__(self, weight_names, frozen: bool = False):
        self.weight_names = set(weight_names)
        self.observers: Dict[str, Observer] = {}
        self.frozen = frozen

    def quantize_weight(self, name: str, w: Tensor) -> Tensor:
        if name not in self.weight_names:
            return w
        return fake_quant(w, weight_qparams(w))

    def quantize_activation(self, name: str, x: Tensor) -> Tensor:
        obs = self.observers.get(name)
        if obs is None:
            if self.frozen:
                return x
            obs = self.observers[name] = Observer(name=name)
        if not self.frozen:
            obs.observe(x.values)
        return fake_quant(x, activation_qparams(obs))

    def observer_ranges(self) -> Dict[str, tuple]:
        return {k: (o.running_min, o.running_max) for k, o in self.observers.items() if o.initialized}

    @classmethod
    def from_ranges(cls, weight_names, ranges: Dict[str, tuple]) -> "QatContext":
        ctx = cls(weight_names, frozen=True)
        for name, (lo, hi) in ranges.items():
            ctx.observers[name] = Observer(running_min=lo, running_max=hi, name=name)
        return ctx
