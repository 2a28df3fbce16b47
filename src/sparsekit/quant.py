"""8-bit fake quantization: symmetric weights, asymmetric activations, STE."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import tensor as T
from .tensor import ContractError, Tensor, _node


@dataclass(frozen=True)
class QuantParams:
    """An affine integer grid: x ~ (q - zero_point) * scale, q in [qmin, qmax]."""
    scale: float
    zero_point: int
    qmin: int
    qmax: int


WEIGHT_QMAX = 127


def weight_grid(scale: float) -> QuantParams:
    """The symmetric int8 weight grid: -127..127, zero point 0."""
    return QuantParams(scale, 0, -WEIGHT_QMAX, WEIGHT_QMAX)


def weight_qparams(w) -> QuantParams:
    """Per-tensor symmetric int8: scale = max|w| / 127, zero point 0."""
    vals = w.values if isinstance(w, Tensor) else np.asarray(w)
    amax = float(np.abs(vals).max()) if vals.size else 0.0
    return weight_grid(amax / WEIGHT_QMAX if amax > 0 else 1.0)


def activation_qparams(lo: float, hi: float) -> QuantParams:
    """Asymmetric uint8 over the range [lo, hi] widened to include zero."""
    lo = min(0.0, lo)
    hi = max(0.0, hi)
    scale = (hi - lo) / 255.0 if hi > lo else 1.0  # an all-zero range: zero point 0
    zp = int(np.clip(round(-lo / scale), 0, 255))
    return QuantParams(scale, zp, 0, 255)


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
    """The quantization points of the model forward, placed by `linear`.

    Weights get fresh symmetric params each call; each named activation is
    quantized over the running (min, max) of every batch it has seen. When
    frozen, the ranges stop updating so evaluation matches the exported
    integer model.
    """

    def __init__(self, weight_names):
        self.weight_names = set(weight_names)
        self.ranges: Dict[str, Tuple[float, float]] = {}
        self.frozen = False

    def linear(self, prefix: str, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
        """The linear `prefix` with its quantization points: when
        `<prefix>.weight` is in `weight_names`, the weight is fake-quantized
        on its own symmetric grid and the output as the activation
        `<prefix>.out`. Any other linear runs in float."""
        if prefix + ".weight" not in self.weight_names:
            return T.linear(x, w, b)
        out = T.linear(x, fake_quant(w, weight_qparams(w)), b)
        return self.quantize_activation(prefix + ".out", out)

    def quantize_activation(self, name: str, x: Tensor) -> Tensor:
        if not self.frozen:
            self._observe(name, x.values)
        elif name not in self.ranges:
            return x
        return fake_quant(x, activation_qparams(*self.ranges[name]))

    def _observe(self, name: str, x: np.ndarray) -> None:
        """Widen `name`'s range to this batch's. A batch holding NaN or an
        infinity is a ContractError: min/max would keep or drop it depending
        on the order batches arrive in."""
        lo = float(x.min())
        hi = float(x.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ContractError(f"observer {name!r}: non-finite activations "
                                f"(batch min {lo}, max {hi})")
        if name in self.ranges:
            lo = min(self.ranges[name][0], lo)
            hi = max(self.ranges[name][1], hi)
        self.ranges[name] = (lo, hi)

    @classmethod
    def from_ranges(cls, weight_names, ranges: Dict[str, tuple]) -> "QatContext":
        """A frozen context over saved ranges. Each `<prefix>.weight` in
        `weight_names` needs a range for `<prefix>.out`, or that linear's
        output would run unquantized. Every range needs two finite bounds
        lo <= hi, since `activation_qparams` reads a NaN bound as 0."""
        ctx = cls(weight_names)
        ctx.frozen = True
        for name in sorted(ctx.weight_names):
            key = name.removesuffix(".weight") + ".out"
            if key not in ranges:
                raise ContractError(f"no activation range for {key!r}")
        for key, bounds in ranges.items():
            # written so that NaN fails
            if len(bounds) != 2 or not -math.inf < bounds[0] <= bounds[1] < math.inf:
                raise ContractError(f"activation range {key!r} must be two finite bounds "
                                    f"lo <= hi, got {list(bounds)}")
            ctx.ranges[key] = (bounds[0], bounds[1])
        return ctx
