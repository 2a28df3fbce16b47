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
        if self.start_step < 0:
            raise ContractError(f"pruning start_step must be >= 0, got {self.start_step}")
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
        return np.ones(w.shape, dtype=bool)
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
    return (~pruned).reshape(w.shape)


def _zero_outside(w: np.ndarray, m: np.ndarray) -> None:
    """Set w to `np.where(m, w, 0)` in place, as one bitwise AND of w's bits
    with m widened to all-ones or zero: the same bits for every value, -0.0
    and NaN included, without a per-element branch. (w * m would make -0.0
    of a pruned negative and NaN of a pruned inf.)"""
    bits = w.view(f"u{w.itemsize}")
    np.bitwise_and(bits, np.negative(m, dtype=bits.dtype), out=bits)


def prune_step(model, mask_set: Optional[Dict[str, np.ndarray]],
               ratio: float) -> Dict[str, np.ndarray]:
    """Recompute masks from current magnitudes and hard-zero pruned weights
    in place, through `restore_pattern`. A mask is a bool array, True where
    the weight is kept. `mask_set`, the previous masks, is not read."""
    if not (0.0 <= ratio <= 1.0):
        raise ContractError(f"prune ratio {ratio} outside [0, 1]")
    masks = {name: _magnitude_mask(model.parameters[name].values, ratio)
             for name in model.prunable_parameters()}
    restore_pattern(model, masks)
    return masks


def lock_pattern(model) -> Optional[Dict[str, np.ndarray]]:
    """Bool masks, True exactly where the weight is nonzero, over prunable
    tensors; None when no prunable weight is zero, so there is no pattern."""
    masks = {name: model.parameters[name].values != 0 for name in model.prunable_parameters()}
    return None if all(m.all() for m in masks.values()) else masks


def restore_pattern(model, masks: Dict[str, np.ndarray]) -> None:
    """Set every weight outside its mask back to +0.0, in place. Called after
    each optimizer step, it holds a frozen zero pattern: the optimizer may
    move a pruned weight, and this undoes it before any forward reads it."""
    for name, m in masks.items():
        _zero_outside(model.parameters[name].values, m)


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
        z = w.size - int(np.count_nonzero(w != 0))  # counting bools is faster than floats
        per_tensor[name] = z / w.size
        zeros += z
        total += w.size
    agg = zeros / total if total else 0.0
    return SparsityReport(per_tensor, agg, total - zeros, total)
