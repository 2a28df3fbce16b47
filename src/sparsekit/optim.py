"""Adam with decoupled weight decay."""
from __future__ import annotations

from itertools import accumulate
from typing import Dict

import numpy as np

from .tensor import ContractError, Tensor


# Values per pass of a step's arithmetic. A step walks the moments in runs of
# about this many, so that its temporaries stay in cache: one pass over all
# 430k moments of a hidden-128 model ran three times slower than a loop over
# the parameters.
RUN_SIZE = 1 << 15

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Decoupled weight decay hits only 2-D weight matrices. A pruning
    pattern is not Adam's concern: `pruning.restore_pattern` holds it after
    each step.

    Both moments live in one flat array each, a slice per parameter. A step
    walks them in runs of consecutive parameters that have a gradient, at
    most RUN_SIZE values long unless one parameter alone is longer, and runs
    its arithmetic once per run. The arithmetic is elementwise, so every
    value equals what a loop over the parameters computes. Parameter i's
    slice is `_bounds[i]:_bounds[i + 1]`, in the order of `parameters`. The
    parameters keep their own arrays, which are updated in place.

    The learning rate, the weight decay and BETA1, BETA2 and EPS are Python floats,
    which numpy applies in the dtype of the array operand, so each step of
    the arithmetic can write into the temporary it replaces."""

    def __init__(self, parameters: Dict[str, Tensor], weight_decay: float = 0.0):
        self.parameters = parameters
        self.weight_decay = float(weight_decay)
        self.t = 0
        dtypes = {p.dtype for p in parameters.values()}
        if len(dtypes) > 1:
            raise ContractError(f"Adam: parameters mix dtypes {sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.float32
        self._bounds = list(accumulate((p.size for p in parameters.values()), initial=0))
        self._m = np.zeros(self._bounds[-1], dtype=dtype)
        self._v = np.zeros(self._bounds[-1], dtype=dtype)

    def zero_grad(self):
        for p in self.parameters.values():
            p.zero_grad()

    def _runs(self) -> list:
        """(start, stop, spans, decayed) of each run a step walks:
          start, stop  its slice of the moment arrays
          spans        (parameter, start, stop) of each parameter within the run
          decayed      the spans that take weight decay"""
        runs, prev_live = [], False
        for (name, p), lo, hi in zip(self.parameters.items(), self._bounds, self._bounds[1:]):
            if p.grad is None:
                prev_live = False
                continue
            if not prev_live or hi - runs[-1][0] > RUN_SIZE:
                runs.append((lo, [], []))
            prev_live = True
            start, spans, decayed = runs[-1]
            span = (p, lo - start, hi - start)
            spans.append(span)
            if self.weight_decay and name.endswith(".weight") and p.values.ndim == 2:
                decayed.append(span)
        return [(start, start + spans[-1][2], spans, decayed) for start, spans, decayed in runs]

    def step(self, lr: float):
        lr = float(lr)
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for start, stop, spans, decayed in self._runs():
            grads = [p.grad.reshape(-1) for p, _, _ in spans]
            g = grads[0] if len(grads) == 1 else np.concatenate(grads)
            m, v = self._m[start:stop], self._v[start:stop]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
            # update = lr * (m / bc1) / (sqrt(v / bc2) + eps)
            m *= BETA1
            t = np.multiply(1.0 - BETA1, g)
            m += t
            v *= BETA2
            np.multiply(1.0 - BETA2, g, out=t)
            np.multiply(t, g, out=t)
            v += t
            update = np.divide(m, bc1)
            np.multiply(lr, update, out=update)
            den = np.divide(v, bc2)
            np.sqrt(den, out=den)
            np.add(den, EPS, out=den)
            np.divide(update, den, out=update)
            for p, a, b in decayed:
                # added span by span, not through a 0/1 multiply: undecayed
                # entries get no decay term at all (an inf weight times 0 is nan)
                update[a:b] += lr * self.weight_decay * p.values.reshape(-1)
            for p, a, b in spans:
                p.values -= update[a:b].reshape(p.shape)
