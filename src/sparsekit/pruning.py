"""Gradual magnitude pruning: cubic sparsity ramp, masks, and pattern lock."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .tensor import ContractError, Tensor


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


class MaskSet:
    """Per-parameter binary masks sharing shapes with the masked weights."""

    def __init__(self, masks: Dict[str, np.ndarray]):
        self.masks = masks

    def __contains__(self, name):
        return name in self.masks

    def __getitem__(self, name):
        return self.masks[name]

    def names(self):
        return list(self.masks.keys())

    def zero_set_digest(self) -> bytes:
        """Stable hash of the zero pattern, for pattern-lock checks."""
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.masks):
            h.update(name.encode())
            h.update(np.packbits(self.masks[name].astype(bool).reshape(-1)).tobytes())
        return h.digest()


def _magnitude_mask(w: np.ndarray, ratio: float) -> np.ndarray:
    """Zero the floor(ratio*n) smallest-|w| entries; ties pruned lowest flat index first."""
    n = w.size
    k = int(np.floor(ratio * n))
    mask = np.ones(n, dtype=np.float32)
    if k > 0:
        order = np.argsort(np.abs(w.reshape(-1)), kind="stable")
        mask[order[:k]] = 0.0
    return mask.reshape(w.shape)


def prune_step(model, mask_set: MaskSet, ratio: float) -> MaskSet:
    """Recompute masks from current magnitudes and hard-zero pruned weights."""
    if not (0.0 <= ratio <= 1.0):
        raise ContractError(f"prune ratio {ratio} outside [0, 1]")
    masks = {}
    for name in model.prunable_parameters():
        p = model.parameters[name]
        m = _magnitude_mask(p.values, ratio)
        # np.where instead of w*m so pruned entries become +0.0, not -0.0
        p.values = np.where(m == 0, np.float32(0.0), p.values).astype(p.values.dtype, copy=False)
        masks[name] = m
    return MaskSet(masks)


def apply_masks(model, mask_set: MaskSet) -> None:
    for name, m in mask_set.masks.items():
        if name not in model.parameters:
            raise KeyError(f"mask for unknown parameter {name!r}")
        w = model.parameters[name]
        if w.shape != m.shape:
            raise ContractError(f"mask shape {m.shape} != weight shape {w.shape} for {name}")
        w.values = np.where(m == 0, np.float32(0.0), w.values).astype(w.values.dtype, copy=False)


def lock_pattern(model) -> MaskSet:
    """Mask is 1 exactly where the weight is nonzero, over prunable tensors."""
    masks = {}
    for name in model.prunable_parameters():
        w = model.parameters[name].values
        masks[name] = (w != 0).astype(np.float32)
    return MaskSet(masks)


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
        z = int((w == 0).sum())
        per_tensor[name] = z / w.size
        zeros += z
        total += w.size
    agg = zeros / total if total else 0.0
    return SparsityReport(per_tensor, agg, total - zeros, total)
