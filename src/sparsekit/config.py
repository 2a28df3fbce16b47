"""Stage configuration: dataclass, file parser, and desk-scale defaults.

Config files are line oriented: [section] headers with key = value pairs.
Unknown sections or keys are errors.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, asdict, replace
from typing import Optional

from .distill import DistillConfig
from .model import ConfigError, ModelConfig
from .pruning import SparsitySchedule
from .schedule import LrSchedule, RewindWindow

STAGES = ("teacher-prep", "student-prune", "transfer", "qat", "finetune-prune-baseline")


@dataclass(frozen=True)
class DataConfig:
    corpus_seed: int = 7
    num_sequences: int = 400
    num_examples: int = 1000
    num_labels: int = 3


@dataclass(frozen=True)
class StageConfig:
    stage: str
    model: ModelConfig
    steps: int
    batch_size: int
    seq_len: int
    seed: int
    lr: float
    weight_decay: float
    warmup_steps: int
    distill: DistillConfig
    pruning: Optional[SparsitySchedule] = None
    data: DataConfig = field(default_factory=DataConfig)
    kd_enabled: bool = True
    lrr_enabled: bool = True
    log_every: int = 1

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"unknown stage {self.stage!r}")
        if self.stage in ("student-prune", "finetune-prune-baseline") and self.pruning is None:
            raise ConfigError(f"stage {self.stage} requires a pruning section")
        if self.stage in ("teacher-prep", "transfer", "qat") and self.pruning is not None:
            raise ConfigError(f"{self.stage} takes no pruning section")
        if self.seq_len > self.model.max_seq:
            raise ConfigError("seq_len exceeds model max_seq")
        for name, low in (("seq_len", 2), ("steps", 1), ("batch_size", 1), ("log_every", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # written so that NaN fails both checks
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        # teacher-prep has no teacher; every other stage would run one that no loss reads
        if self.kd_enabled and self.stage != "teacher-prep" and self.distill.lambda_kd == 0:
            raise ConfigError("lambda_kd = 0 leaves the teacher unused; set kd = false")
        # the mask freezes at end_step, so a window that outlasts training never freezes
        if self.pruning is not None and self.pruning.end_step >= self.steps:
            raise ConfigError(f"pruning end_step {self.pruning.end_step} must be below "
                              f"steps {self.steps}")

    def lr_schedule(self) -> LrSchedule:
        rewind = None
        if self.lrr_enabled and self.pruning is not None:
            rewind = RewindWindow(self.pruning.start_step, self.pruning.interval,
                                  self.pruning.end_step)
        return LrSchedule(self.lr, self.warmup_steps, self.steps, rewind)

    def digest(self) -> bytes:
        return hashlib.sha256(repr(asdict(self)).encode("utf-8")).digest()


def default_config(stage: str, seed: int = 1, **overrides) -> StageConfig:
    """Desk-scale defaults: the reference step counts divided by 1000
    (100 steps total, prune window 0-50, mask freeze at 80, interval 1),
    batch 16, loss weights 0.5/0.5 at temperature 2."""
    model = ModelConfig(num_layers=2, hidden=32, heads=4, ffn_dim=64,
                        vocab=64, max_seq=32, has_pooler=True,
                        head_kind="mlm", num_labels=3)
    pruning = None
    distill = DistillConfig(temperature=2.0, lambda_pt=0.5, lambda_kd=0.5)
    if stage in ("student-prune", "finetune-prune-baseline"):
        pruning = SparsitySchedule(initial_sparsity=0.0, final_sparsity=0.9,
                                   start_step=0, policy_end_step=50,
                                   end_step=80, interval=1)
    steps, lr = 100, 0.01
    if stage in ("transfer", "qat", "finetune-prune-baseline"):
        distill = DistillConfig(temperature=2.0, lambda_pt=0.0, lambda_kd=1.0)
        model = replace(model, head_kind="classify")
        if stage == "qat":
            lr = 1e-4  # separate low-lr session on an already fine-tuned model
        else:
            steps = 200
    cfg = StageConfig(stage=stage, model=model, steps=steps, batch_size=16,
                      seq_len=16, seed=seed, lr=lr, weight_decay=0.01,
                      warmup_steps=1, distill=distill, pruning=pruning)
    return replace(cfg, **overrides) if overrides else cfg


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(v: str) -> bool:
    if v.lower() not in _BOOL:
        raise ConfigError(f"expected boolean, got {v!r}")
    return _BOOL[v.lower()]


_SCHEMA = {
    "run": {"stage": str, "steps": int, "batch_size": int, "seq_len": int,
            "seed": int, "log_every": int, "kd": _parse_bool, "lrr": _parse_bool},
    "model": {"num_layers": int, "hidden": int, "heads": int, "ffn_dim": int,
              "vocab": int, "max_seq": int, "has_pooler": _parse_bool},
    "optimizer": {"lr": float, "weight_decay": float},
    "schedule": {"warmup_steps": int},
    "distill": {"temperature": float, "lambda_pt": float, "lambda_kd": float},
    "pruning": {"initial_sparsity": float, "final_sparsity": float, "start_step": int,
                "policy_end_step": int, "end_step": int, "interval": int},
    "data": {"corpus_seed": int, "num_sequences": int, "num_examples": int,
             "num_labels": int},
}

# [run] keys whose StageConfig field has another name
_RENAMED = {"kd": "kd_enabled", "lrr": "lrr_enabled"}


def parse_config_text(text: str) -> StageConfig:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None or "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        try:
            sections[current][key] = _SCHEMA[current][key](value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")

    run = sections.get("run", {})
    if "stage" not in run:
        raise ConfigError("missing required key 'stage' in [run]")
    stage = run["stage"]
    base = default_config(stage, seed=run.get("seed", 1))

    pruning = base.pruning
    if "pruning" in sections:
        if pruning is None:
            raise ConfigError(f"{stage} takes no pruning section")
        pruning = replace(pruning, **sections["pruning"])
    overrides = {_RENAMED.get(key, key): value
                 for name in ("run", "optimizer", "schedule")
                 for key, value in sections.get(name, {}).items()}
    return replace(base, model=replace(base.model, **sections.get("model", {})),
                   distill=replace(base.distill, **sections.get("distill", {})),
                   data=replace(base.data, **sections.get("data", {})),
                   pruning=pruning, **overrides)


def load_config(path) -> StageConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
