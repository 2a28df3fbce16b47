"""Tiny transformer encoder with MLM and classification heads.

Parameter names are a stable public contract:
  embeddings.{token|position}, embeddings.ln.{gain|bias},
  layer.{i}.{q|k|v|attn_out|ffn_in|ffn_out}.{weight|bias},
  layer.{i}.{ln1|ln2}.{gain|bias},
  pooler.{weight|bias}, mlm_head.{weight|bias}, classify_head.{weight|bias}
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional

import numpy as np

from . import tensor as T
from .tensor import SparsekitError, Tensor


class ConfigError(SparsekitError):
    pass


class DataError(SparsekitError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    hidden: int
    heads: int
    ffn_dim: int
    vocab: int
    max_seq: int
    has_pooler: bool = True
    head_kind: str = "mlm"  # mlm | classify
    num_labels: int = 2

    def __post_init__(self):
        for name, low in (("num_layers", 0), ("hidden", 1), ("heads", 1), ("ffn_dim", 1),
                          ("vocab", 8), ("max_seq", 4)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.head_kind not in ("mlm", "classify"):
            raise ConfigError(f"unknown head kind {self.head_kind!r}")


def parameter_specs(config: ModelConfig) -> List[tuple]:
    """(name, shape, init scheme) for every parameter, in stable order."""
    h, f, v = config.hidden, config.ffn_dim, config.vocab
    specs = [
        ("embeddings.token", (v, h), "normal-0.02"),
        ("embeddings.position", (config.max_seq, h), "normal-0.02"),
        ("embeddings.ln.gain", (h,), "ones"),
        ("embeddings.ln.bias", (h,), "zeros"),
    ]
    for i in range(config.num_layers):
        p = f"layer.{i}"
        for part, shape in (("q", (h, h)), ("k", (h, h)), ("v", (h, h)),
                            ("attn_out", (h, h)), ("ffn_in", (h, f)), ("ffn_out", (f, h))):
            specs.append((f"{p}.{part}.weight", shape, "normal-0.02"))
            specs.append((f"{p}.{part}.bias", (shape[1],), "zeros"))
        for ln in ("ln1", "ln2"):
            specs.append((f"{p}.{ln}.gain", (h,), "ones"))
            specs.append((f"{p}.{ln}.bias", (h,), "zeros"))
    if config.has_pooler:
        specs.append(("pooler.weight", (h, h), "normal-0.02"))
        specs.append(("pooler.bias", (h,), "zeros"))
    if config.head_kind == "mlm":
        specs.append(("mlm_head.weight", (h, v), "normal-0.02"))
        specs.append(("mlm_head.bias", (v,), "zeros"))
    else:
        specs.append(("classify_head.weight", (h, config.num_labels), "normal-0.02"))
        specs.append(("classify_head.bias", (config.num_labels,), "zeros"))
    return specs


def prunable_parameter_names(config: ModelConfig) -> List[str]:
    """Encoder linear weights plus the pooler weight; never embeddings,
    biases, layer norms, or head weights."""
    names = []
    for i in range(config.num_layers):
        for part in ("q", "k", "v", "attn_out", "ffn_in", "ffn_out"):
            names.append(f"layer.{i}.{part}.weight")
    if config.has_pooler:
        names.append("pooler.weight")
    return names


@dataclass
class ForwardResult:
    """The logits at the rows a forward scores, and those rows' targets.
    `loss`, their mean cross-entropy, is built on first read, under the
    `no_grad` state of that read, and cached: a caller that reads only the
    logits builds none."""
    logits: Tensor
    targets: np.ndarray

    @cached_property
    def loss(self) -> Tensor:
        return T.cross_entropy_with_targets(self.logits, self.targets)


class EncoderModel:
    def __init__(self, config: ModelConfig, parameters: Dict[str, Tensor]):
        self.config = config
        self.parameters = parameters

    def prunable_parameters(self) -> List[str]:
        return prunable_parameter_names(self.config)

    # -- forward ----------------------------------------------------------

    def _linear(self, x: Tensor, prefix: str, quant=None) -> Tensor:
        w = self.parameters[prefix + ".weight"]
        b = self.parameters[prefix + ".bias"]
        if quant is None:
            return T.linear(x, w, b)
        out = T.linear(x, quant.quantize_weight(prefix + ".weight", w), b)
        if (prefix + ".weight") in quant.weight_names:
            out = quant.quantize_activation(prefix + ".out", out)
        return out

    def encode(self, input_ids: np.ndarray, attention_mask: np.ndarray, quant=None,
               rows: Optional[np.ndarray] = None) -> Tensor:
        """Final hidden states, (batch, seq, hidden).

        With `rows`, flat indices into the batch x seq positions, only those
        rows' final states are returned, as (len(rows), hidden) in the order
        given. Every layer but the last runs in full. The last layer runs k
        and v over every position and everything else at the rows alone:
        each row attends as a one-query sequence to its own sample's keys.
        """
        input_ids = np.asarray(input_ids)
        cfg = self.config
        if input_ids.min() < 0 or input_ids.max() >= cfg.vocab:
            raise DataError("token id out of vocab range")
        batch, seq = input_ids.shape
        if seq > cfg.max_seq:
            raise DataError(f"sequence length {seq} exceeds max_seq {cfg.max_seq}")
        params = self.parameters

        def add_ln(x: Tensor, y: Tensor, prefix: str) -> Tensor:
            return T.add_layer_norm(x, y, params[prefix + ".gain"], params[prefix + ".bias"])

        def flat(t: Tensor) -> Tensor:
            return T.reshape(t, (batch * seq, cfg.hidden))

        tok = T.embedding_lookup(params["embeddings.token"], input_ids)
        pos = T.position_embedding(params["embeddings.position"], batch, seq)
        x = add_ln(tok, pos, "embeddings.ln")

        neg = (1.0 - np.asarray(attention_mask)) * -1e9
        mask_bias = neg[:, None, None, :].astype(params["embeddings.token"].dtype)

        for i in range(cfg.num_layers):
            p = f"layer.{i}"
            k, v = self._linear(x, f"{p}.k", quant), self._linear(x, f"{p}.v", quant)
            if rows is not None and i == cfg.num_layers - 1:
                # each row as a 1-query sequence, with its sample's keys and values
                sample = rows // seq
                x = T.embedding_lookup(flat(x), rows[:, None])
                k, v = T.embedding_lookup(k, sample), T.embedding_lookup(v, sample)
                mask_bias = mask_bias[sample]
            ctx = T.attention(self._linear(x, f"{p}.q", quant), k, v, mask_bias, cfg.heads)
            x = add_ln(x, self._linear(ctx, f"{p}.attn_out", quant), f"{p}.ln1")
            hmid = T.gelu(self._linear(x, f"{p}.ffn_in", quant))
            x = add_ln(x, self._linear(hmid, f"{p}.ffn_out", quant), f"{p}.ln2")
        if rows is None:
            return x
        if cfg.num_layers == 0:
            return T.embedding_lookup(flat(x), rows)
        return T.reshape(x, (rows.size, cfg.hidden))

    def forward_mlm(self, batch) -> ForwardResult:
        """MLM logits and targets at the batch's masked positions alone. The
        logits are (n_masked, vocab), in row-major order of the positions;
        the loss is their mean cross-entropy, 0 when nothing is masked."""
        if self.config.head_kind != "mlm":
            raise ConfigError("model has no MLM head")
        hidden = self.encode(batch.input_ids, batch.attention_mask, rows=batch.positions)
        logits = T.linear(hidden, self.parameters["mlm_head.weight"],
                          self.parameters["mlm_head.bias"])
        return ForwardResult(logits, batch.targets)

    def classify_logits(self, cls: Tensor, quant=None) -> Tensor:
        """Pooler (when present) and classification head over CLS states
        of shape (batch, hidden)."""
        if self.config.head_kind != "classify":
            raise ConfigError("model has no classification head")
        if self.config.has_pooler:
            cls = T.gelu(self._linear(cls, "pooler", quant))
        return T.linear(cls, self.parameters["classify_head.weight"],
                        self.parameters["classify_head.bias"])

    def forward_classify(self, batch, quant=None) -> ForwardResult:
        hidden = self.encode(batch.input_ids, batch.attention_mask, quant)
        return ForwardResult(self.classify_logits(T.take_rows(hidden, 0), quant),
                             batch.labels)


def build_model(config: ModelConfig, seed: int) -> EncoderModel:
    """Deterministic float32 init: weights N(0, 0.02^2), biases zero, LN gains one."""
    params: Dict[str, Tensor] = {}
    for idx, (name, shape, scheme) in enumerate(parameter_specs(config)):
        sub = int(np.random.SeedSequence((seed, idx)).generate_state(1)[0])
        params[name] = T.seeded_init(shape, scheme, sub)
    return EncoderModel(config, params)
