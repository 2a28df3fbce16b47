"""Stage configuration: dataclass, file parser, and desk-scale defaults.

Config files are line oriented: [section] headers with key = value pairs.
Unknown sections or keys are errors, and so is a key set twice, within one
block or across repeated headers of a section.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, asdict, replace
from typing import Optional

from .data import NUM_RESERVED, _split_point
from .distill import DistillConfig
from .model import ConfigError, ModelConfig
from .pruning import SparsitySchedule
from .schedule import lr_base

PRUNING_STAGES = ("student-prune", "finetune-prune-baseline")  # the rest take no [pruning]
TASK_STAGES = ("transfer", "qat", "finetune-prune-baseline")  # classifier stages
STAGES = ("teacher-prep", "student-prune", *TASK_STAGES)


@dataclass(frozen=True)
class DataConfig:
    corpus_seed: int = 7
    num_sequences: int = 400
    num_examples: int = 1000
    num_labels: int = 3

    def __post_init__(self):
        # numpy seeds its generators from non-negative integers only
        if self.corpus_seed < 0:
            raise ConfigError(f"corpus_seed must be >= 0, got {self.corpus_seed}")
        # the data builders' own checks, applied here too, so that a stage that
        # builds no corpus or no task still rejects the values it does not read
        _split_point("num_sequences", self.num_sequences)
        _split_point("num_examples", self.num_examples)
        if self.num_labels < 2:
            raise ConfigError("need at least two labels")


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
        prunes = self.stage in PRUNING_STAGES
        if prunes != (self.pruning is not None):
            raise ConfigError(f"stage {self.stage} requires a pruning section" if prunes
                              else f"{self.stage} takes no pruning section")
        if self.seq_len > self.model.max_seq:
            raise ConfigError("seq_len exceeds model max_seq")
        for name, low in (("seq_len", 2), ("steps", 1), ("batch_size", 1), ("log_every", 1),
                          ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        # written so that NaN fails both checks
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not 0 <= self.warmup_steps <= self.steps:
            raise ConfigError(f"warmup_steps must lie in [0, {self.steps}], "
                              f"got {self.warmup_steps}")
        # teacher-prep has no teacher; every other stage would run one that no loss reads
        if self.kd_enabled and self.stage != "teacher-prep" and self.distill.lambda_kd == 0:
            raise ConfigError("lambda_kd = 0 leaves the teacher unused; set kd = false")
        # the mask freezes at end_step, so a window that outlasts training never freezes
        if self.pruning is not None and self.pruning.end_step >= self.steps:
            raise ConfigError(f"pruning end_step {self.pruning.end_step} must be below "
                              f"steps {self.steps}")
        # rewinding restarts each interval at the start step's LR; at 0 the window never trains
        w = self.pruning
        if self.lrr_enabled and w is not None and lr_base(self, w.start_step) == 0:
            raise ConfigError(f"lrr rewinds to LR 0: lr_base is 0 at pruning start_step "
                              f"{w.start_step} (warmup_steps {self.warmup_steps}); start the "
                              f"window later or set lrr = false")
        # checked here, not only by the task builder, so that stages that build
        # no task (teacher-prep, prune) reject it too
        regular = self.model.vocab - NUM_RESERVED
        if self.data.num_labels > regular:
            raise ConfigError(f"num_labels = {self.data.num_labels} exceeds the {regular} "
                              f"regular tokens")

    def digest(self) -> bytes:
        return hashlib.sha256(repr(asdict(self)).encode("utf-8")).digest()


def default_config(stage: str, seed: int = 1, **overrides) -> StageConfig:
    """Desk-scale defaults: the reference step counts divided by 1000 (100
    steps; pruning stages skip warmup, prune every 10th step of 10-50 and
    freeze the mask at 80), batch 16, loss weights 0.5/0.5 at temperature 2."""
    model = ModelConfig(num_layers=2, hidden=32, heads=4, ffn_dim=64,
                        vocab=64, max_seq=32, has_pooler=True,
                        head_kind="mlm", num_labels=3)
    pruning, warmup = None, 1
    distill = DistillConfig(temperature=2.0, lambda_pt=0.5, lambda_kd=0.5)
    if stage in PRUNING_STAGES:
        # trained weights need no warmup, so every rewind restarts above LR 0
        pruning = SparsitySchedule(initial_sparsity=0.0, final_sparsity=0.9,
                                   start_step=10, policy_end_step=50,
                                   end_step=80, interval=10)
        warmup = 0
    steps, lr = 100, 0.01
    if stage in TASK_STAGES:
        distill = DistillConfig(temperature=2.0, lambda_pt=0.0, lambda_kd=1.0)
        model = replace(model, head_kind="classify")
        if stage == "qat":
            lr = 1e-4  # separate low-lr session on an already fine-tuned model
        else:
            steps = 200
    cfg = StageConfig(stage=stage, model=model, steps=steps, batch_size=16,
                      seq_len=16, seed=seed, lr=lr, weight_decay=0.01,
                      warmup_steps=warmup, distill=distill, pruning=pruning)
    return replace(cfg, **overrides) if overrides else cfg


_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(v: str) -> bool:
    if v.lower() not in _BOOL:
        raise ConfigError(f"expected boolean, got {v!r}")
    return _BOOL[v.lower()]


_PARSE_FIELD = {"int": int, "float": float, "bool": _parse_bool}


def _fields_section(cls, skip=()) -> dict:
    return {f.name: _PARSE_FIELD[f.type] for f in fields(cls) if f.name not in skip}


# [run], [optimizer] and [schedule] group StageConfig fields under other names
_SCHEMA = {
    "run": {"stage": str, "steps": int, "batch_size": int, "seq_len": int,
            "seed": int, "log_every": int, "kd": _parse_bool, "lrr": _parse_bool},
    "model": _fields_section(ModelConfig, skip=ModelConfig.HEAD_FIELDS),
    "optimizer": {"lr": float, "weight_decay": float},
    "schedule": {"warmup_steps": int},
    "distill": _fields_section(DistillConfig),
    "pruning": _fields_section(SparsitySchedule),
    "data": _fields_section(DataConfig),
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
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: key {key!r} is set twice in section [{current}]")
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
