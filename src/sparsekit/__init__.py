"""Desk-scale model compression: magnitude pruning with learning-rate
rewinding, distillation, pattern-locked transfer, and 8-bit QAT."""

from .config import DataConfig, StageConfig, default_config, load_config
from .distill import DistillConfig, combined_loss, kd_loss
from .model import ConfigError, DataError, EncoderModel, ModelConfig, build_model
from .pruning import (SparsitySchedule, lock_pattern, prune_step, sparsity_report,
                      target_sparsity)
from .quant import QuantParams, activation_qparams, fake_quant, weight_qparams
from .schedule import lr_base, lr_rewound
from .tensor import SparsekitError, Tensor, backward, seeded_init

__version__ = "0.1.0"
