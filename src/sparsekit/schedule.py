"""Linear warmup/decay learning-rate schedule with optional rewinding.

Both schedules read a stage config: `lr`, `warmup_steps` and `steps` set the
plain one, and `pruning.rewound_step` the sawtooth of the rewound one over the
pruning window. The config checks every value they read when it is built.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .pruning import rewound_step
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
    """Sawtooth variant: with lrr on and a pruning window, `lr_base` at the
    step that `rewound_step` gives; without either, `lr_base` at t."""
    rewinds = cfg.lrr_enabled and cfg.pruning is not None
    return lr_base(cfg, rewound_step(cfg.pruning, t) if rewinds else t)
