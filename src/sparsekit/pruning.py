"""Gradual magnitude pruning: cubic sparsity ramp, masks, and pattern lock."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .tensor import ContractError


@dataclass(frozen=True)
class SparsitySchedule:
    initial_sparsity: float
    final_sparsity: float
    start_step: int
    policy_end_step: int
    end_step: int
    interval: int

    def __post_init__(self):
        if not (0.0 <= self.initial_sparsity < self.final_sparsity <= 1.0):
            raise ContractError("require 0 <= initial < final <= 1 sparsity")
        if not (self.start_step <= self.policy_end_step <= self.end_step):
            raise ContractError("require start <= policy_end <= end step")
        if self.interval < 1:
            raise ContractError("pruning interval must be >= 1")


def target_sparsity(sched: SparsitySchedule, t: int) -> float:
    """Cubic ramp from initial to final sparsity over [start, policy_end]."""
    if t <= sched.start_step:
        return sched.initial_sparsity
    if t > sched.policy_end_step:
        return sched.final_sparsity
    span = sched.policy_end_step - sched.start_step
    frac = (t - sched.start_step) / span if span > 0 else 1.0
    return sched.final_sparsity + (sched.initial_sparsity - sched.final_sparsity) * (1.0 - frac) ** 3


def _magnitude_mask(w: np.ndarray, ratio: float) -> np.ndarray:
    """Zero the floor(ratio*n) smallest-|w| entries; ties pruned lowest flat index first.

    The k-th smallest magnitude is a threshold: every entry below it is
    pruned, and the rest of the k come from the entries equal to it, in
    flat-index order. NaN ranks as the largest magnitude.
    """
    k = int(np.floor(ratio * w.size))
    if k == 0:
        return np.ones(w.shape, dtype=np.float32)
    a = np.abs(w.reshape(-1))
    thr = np.sort(a)[k - 1]
    if np.isnan(thr):
        tie = np.isnan(a)
        pruned = ~tie
    else:
        tie = a == thr
        pruned = a < thr
    extra = k - np.count_nonzero(pruned)
    if extra == np.count_nonzero(tie):  # every tie is pruned
        pruned |= tie
    else:
        pruned[np.flatnonzero(tie)[:extra]] = True
    return (~pruned).astype(np.float32).reshape(w.shape)


def prune_step(model, mask_set: Optional[Dict[str, np.ndarray]],
               ratio: float) -> Dict[str, np.ndarray]:
    """Recompute masks from current magnitudes and hard-zero pruned weights.
    `mask_set`, the previous masks, is not read."""
    if not (0.0 <= ratio <= 1.0):
        raise ContractError(f"prune ratio {ratio} outside [0, 1]")
    masks = {}
    for name in model.prunable_parameters():
        p = model.parameters[name]
        m = _magnitude_mask(p.values, ratio)
        # np.where instead of w*m so pruned entries become +0.0, not -0.0
        p.values = np.where(m == 0, np.float32(0.0), p.values).astype(p.values.dtype, copy=False)
        masks[name] = m
    return masks


def lock_pattern(model) -> Dict[str, np.ndarray]:
    """Mask is 1 exactly where the weight is nonzero, over prunable tensors."""
    masks = {}
    for name in model.prunable_parameters():
        w = model.parameters[name].values
        masks[name] = (w != 0).astype(np.float32)
    return masks


@dataclass
class SparsityReport:
    per_tensor: Dict[str, float]
    aggregate: float
    nonzero_count: int
    total_count: int


def sparsity_report(model) -> SparsityReport:
    """Zero fractions over the prunable weights only (embeddings excluded)."""
    per_tensor = {}
    zeros = 0
    total = 0
    for name in model.prunable_parameters():
        w = model.parameters[name].values
        z = w.size - int(np.count_nonzero(w))
        per_tensor[name] = z / w.size
        zeros += z
        total += w.size
    agg = zeros / total if total else 0.0
    return SparsityReport(per_tensor, agg, total - zeros, total)
