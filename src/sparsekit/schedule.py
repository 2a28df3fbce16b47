"""Linear warmup/decay learning-rate schedule with optional rewinding.

Rewinding restarts the decayed schedule at its start-step value every f
steps inside a configured window, producing a sawtooth; outside the window
the plain schedule applies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .tensor import ContractError


@dataclass(frozen=True)
class RewindWindow:
    start_step: int
    interval: int
    end_step: int


@dataclass(frozen=True)
class LrSchedule:
    base_lr: float
    warmup_steps: int
    total_steps: int
    rewind: Optional[RewindWindow] = None

    def __post_init__(self):
        if not self.base_lr > 0:
            raise ContractError("base_lr must be positive")
        if not (0 <= self.warmup_steps <= self.total_steps):
            raise ContractError("warmup_steps must lie in [0, total_steps]")
        if self.rewind is not None:
            r = self.rewind
            if not (0 <= r.start_step <= r.end_step <= self.total_steps):
                raise ContractError("rewind window must satisfy 0 <= start <= end <= total_steps")
            if r.interval < 1:
                raise ContractError("rewind interval must be >= 1")


def lr_base(sched: LrSchedule, t: int) -> float:
    """Linear warmup to base_lr at warmup_steps, then linear decay to 0."""
    if not (0 <= t <= sched.total_steps):
        raise ContractError(f"step {t} outside [0, {sched.total_steps}]")
    if t < sched.warmup_steps:
        return sched.base_lr * t / sched.warmup_steps
    if sched.total_steps == sched.warmup_steps:
        return sched.base_lr
    return sched.base_lr * (sched.total_steps - t) / (sched.total_steps - sched.warmup_steps)


def lr_rewound(sched: LrSchedule, t: int) -> float:
    """Sawtooth variant: inside the window the decay restarts every interval."""
    if sched.rewind is None:
        return lr_base(sched, t)
    r = sched.rewind
    if t < r.start_step or t > r.end_step:
        return lr_base(sched, t)
    return lr_base(sched, r.start_step + (t - r.start_step) % r.interval)
