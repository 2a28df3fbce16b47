"""Linear warmup/decay learning-rate schedule with optional rewinding.

Both schedules read a stage config: `lr`, `warmup_steps` and `steps` set
the plain schedule. With rewinding on, the decay restarts at its start-step
value every pruning interval inside the pruning window, producing a
sawtooth; outside the window the plain schedule applies. The config checks
every value these functions read when it is built.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .tensor import ContractError

if TYPE_CHECKING:  # annotations only: the config's own check calls lr_base
    from .config import StageConfig


def lr_base(cfg: StageConfig, t: int) -> float:
    """Linear warmup to lr at warmup_steps, then linear decay to 0 at steps."""
    if not (0 <= t <= cfg.steps):
        raise ContractError(f"step {t} outside [0, {cfg.steps}]")
    if t < cfg.warmup_steps:
        return cfg.lr * t / cfg.warmup_steps
    if cfg.steps == cfg.warmup_steps:
        return cfg.lr
    return cfg.lr * (cfg.steps - t) / (cfg.steps - cfg.warmup_steps)


def lr_rewound(cfg: StageConfig, t: int) -> float:
    """Sawtooth variant: inside the pruning window, with lrr on, the decay
    restarts every pruning interval. Without either it is `lr_base`."""
    w = cfg.pruning
    if not cfg.lrr_enabled or w is None or not w.start_step <= t <= w.end_step:
        return lr_base(cfg, t)
    return lr_base(cfg, w.start_step + (t - w.start_step) % w.interval)
