import hashlib

import numpy as np
import pytest

from sparsekit import tensor as T
from sparsekit.data import MlmBatch, TaskBatch
from sparsekit.model import (ConfigError, DataError, ModelConfig, build_model,
                             prunable_parameter_names)
from sparsekit.optim import Adam
from sparsekit.quant import QatContext

from oracles import astype, finite_diff_check


def small_config(**kw):
    base = dict(num_layers=2, hidden=32, heads=4, ffn_dim=64, vocab=100,
                max_seq=16, has_pooler=True, head_kind="mlm", num_labels=3)
    base.update(kw)
    return ModelConfig(**base)


def mlm_batch(seed=0, batch=4, seq=8, vocab=100, n_masked=6):
    rng = np.random.Generator(np.random.PCG64(seed))
    ids = rng.integers(5, vocab, size=(batch, seq))
    positions = np.sort(rng.choice(batch * seq, size=n_masked, replace=False))
    targets = ids.reshape(-1)[positions]
    ids.reshape(-1)[positions] = 1
    return MlmBatch(ids, positions, targets, np.ones((batch, seq), dtype=np.int64))


def test_forward_smoke_finite():
    model = build_model(small_config(), seed=0)
    fw = model.forward_mlm(mlm_batch())
    assert np.isfinite(fw.logits.values).all()
    assert np.isfinite(fw.loss.values)


def test_build_deterministic():
    a = build_model(small_config(), seed=3)
    b = build_model(small_config(), seed=3)
    for name in a.parameters:
        assert a.parameters[name].values.tobytes() == b.parameters[name].values.tobytes()


def test_divisibility_config_error():
    with pytest.raises(ConfigError):
        small_config(hidden=30)


# heads = 0 used to end in a ZeroDivisionError, hidden or ffn_dim = 0 in a
# numpy ValueError and num_layers = -1 in a ShapeError.
@pytest.mark.parametrize("key, value, low", [("heads", 0, 1), ("hidden", 0, 1), ("ffn_dim", 0, 1),
                                             ("num_layers", -1, 0), ("vocab", 7, 8),
                                             ("max_seq", 3, 4)])
def test_out_of_range_size_config_error(key, value, low):
    with pytest.raises(ConfigError, match=f"^{key} must be >= {low}, got {value}$"):
        small_config(**{key: value})


@pytest.mark.parametrize("head_kind", ["both", "none"])
def test_unknown_head_kind_config_error(head_kind):
    with pytest.raises(ConfigError, match="unknown head kind"):
        small_config(head_kind=head_kind)


def test_prunable_counts():
    with_pooler = prunable_parameter_names(small_config())
    assert len(with_pooler) == 13
    without = prunable_parameter_names(small_config(has_pooler=False))
    assert len(without) == 12
    assert len(set(with_pooler)) == 13
    assert not any("embeddings" in n for n in with_pooler)
    assert not any(n.endswith(".bias") for n in with_pooler)
    assert not any("ln" in n for n in with_pooler)
    assert not any("head" in n for n in with_pooler)


def test_prunable_all_2d():
    model = build_model(small_config(), seed=0)
    for name in model.prunable_parameters():
        assert model.parameters[name].values.ndim == 2


def test_logits_alone_build_no_cross_entropy(monkeypatch):
    """A tape-free teacher reads only the logits of forward_mlm, so no
    cross-entropy is computed for it. The loss is built on first read, once."""
    calls = []
    ce = T.cross_entropy_with_targets

    def counted(logits, targets):
        calls.append(targets)
        return ce(logits, targets)

    monkeypatch.setattr(T, "cross_entropy_with_targets", counted)
    model, batch = build_model(small_config(), seed=0), mlm_batch()
    with T.no_grad():
        logits = model.forward_mlm(batch).logits
    assert calls == [] and logits.shape == (6, 100)
    fw = model.forward_mlm(batch)
    assert fw.loss is fw.loss and len(calls) == 1
    assert fw.loss.values.tobytes() == ce(fw.logits, fw.targets).values.tobytes()
    assert fw.targets is batch.targets


def test_mlm_zero_masked_degenerate():
    """With nothing masked the loss is +0.0 and reaches no parameter."""
    model = build_model(small_config(), seed=0)
    batch = mlm_batch(n_masked=0)
    fw = model.forward_mlm(batch)
    assert fw.logits.shape == (0, 100)
    assert fw.loss.values.tobytes() == np.float32(0.0).tobytes()
    T.backward(fw.loss)
    assert all(p.grad is None or not p.grad.any() for p in model.parameters.values())


@pytest.mark.parametrize("num_layers", [0, 1, 2])
def test_mlm_logits_are_the_masked_rows_of_a_full_forward(num_layers):
    """forward_mlm's logits are the full forward's logits at the masked
    positions, in row-major order, for any depth: with no layer there is no
    last layer to restrict, and the rows are taken from the embeddings."""
    model = astype(build_model(small_config(num_layers=num_layers), seed=4), np.float64)
    batch = mlm_batch(seed=5, n_masked=9)
    rows = batch.positions
    full = T.linear(model.encode(batch.input_ids, batch.attention_mask),
                    model.parameters["mlm_head.weight"], model.parameters["mlm_head.bias"])
    want = full.values.reshape(-1, 100)[rows]
    got = model.forward_mlm(batch).logits.values
    assert got.shape == (9, 100)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_untrained_mlm_loss_near_log_vocab():
    cfg = small_config(vocab=100)
    model = build_model(cfg, seed=0)
    batch = mlm_batch(batch=16, seq=16, n_masked=120)
    loss = float(model.forward_mlm(batch).loss.values)
    assert abs(loss - np.log(100)) / np.log(100) < 0.10


def test_untrained_classify_loss_near_log_k():
    cfg = small_config(head_kind="classify", num_labels=4)
    model = build_model(cfg, seed=0)
    rng = np.random.Generator(np.random.PCG64(1))
    batch = TaskBatch(rng.integers(5, 100, size=(32, 8)),
                      rng.integers(0, 4, size=32),
                      np.ones((32, 8), dtype=np.int64))
    loss = float(model.forward_classify(batch).loss.values)
    assert abs(loss - np.log(4)) / np.log(4) < 0.10


def test_training_reduces_loss():
    model = build_model(small_config(vocab=32), seed=0)
    opt = Adam(model.parameters)
    batch = mlm_batch(vocab=32, batch=8, seq=8, n_masked=12)
    first = float(model.forward_mlm(batch).loss.values)
    for _ in range(50):
        loss = model.forward_mlm(batch).loss
        opt.zero_grad()
        T.backward(loss)
        opt.step(1e-2)
    assert float(model.forward_mlm(batch).loss.values) < first


def test_out_of_range_token():
    model = build_model(small_config(vocab=32), seed=0)
    batch = mlm_batch(vocab=32)
    batch.input_ids[0, 0] = 32
    with pytest.raises(DataError):
        model.forward_mlm(batch)


def test_batch_permutation_equivariance():
    model = build_model(small_config(head_kind="classify"), seed=0)
    rng = np.random.Generator(np.random.PCG64(2))
    ids = rng.integers(5, 100, size=(6, 8))
    labels = rng.integers(0, 3, size=6)
    att = np.ones((6, 8), dtype=np.int64)
    fw = model.forward_classify(TaskBatch(ids, labels, att))
    perm = np.array([3, 1, 5, 0, 2, 4])
    fw_p = model.forward_classify(TaskBatch(ids[perm], labels[perm], att))
    np.testing.assert_allclose(fw_p.logits.values, fw.logits.values[perm], rtol=1e-5)


def test_full_model_finite_diff():
    cfg = ModelConfig(num_layers=1, hidden=8, heads=2, ffn_dim=16, vocab=16,
                      max_seq=8, has_pooler=False, head_kind="mlm")
    model = astype(build_model(cfg, seed=0), np.float64)
    batch = mlm_batch(vocab=16, batch=2, seq=6, n_masked=4)

    loss_fn = lambda: model.forward_mlm(batch).loss
    for name in ("layer.0.q.weight", "layer.0.ffn_in.weight", "embeddings.token"):
        assert finite_diff_check(loss_fn, model.parameters, name, eps=1e-4) < 1e-3


# sha256 of forward_classify's logits and of every parameter gradient of its
# loss, for a seeded 16 x 16 batch with padding, plain and fake-quantized.
# Taken before the MLM path moved to the masked rows: the classify path,
# which the task teacher's cache and QAT run, keeps its full last layer and
# its bytes.
CLASSIFY_BYTES = {
    ("desk", False): "5d97d5076bba23182f270a9e2f1cf9bca87f6b648f542ec45e13d4dc0f322819",
    ("desk", True): "237fb5f02257afce76a6d26a6fd993393748bcacd8f744d5ff582ffe79c59c43",
    ("wide", False): "8484a9b8af073dbbfa760429df1e70af88e78e46400500abc29b70022e083ed8",
    ("wide", True): "395fe6c4d4bdb3bc002afdddc1f6f3141c8a57a899e4a1700d3ff24ce469fac4",
}


@pytest.mark.parametrize("shape, quantized", list(CLASSIFY_BYTES),
                         ids=[f"{s}-{'qat' if q else 'float'}" for s, q in CLASSIFY_BYTES])
def test_classify_path_bytes_pinned(shape, quantized):
    hidden, ffn = {"desk": (32, 64), "wide": (128, 512)}[shape]
    cfg = ModelConfig(num_layers=2, hidden=hidden, heads=4, ffn_dim=ffn, vocab=64, max_seq=32,
                      has_pooler=True, head_kind="classify", num_labels=3)
    model = build_model(cfg, seed=41)
    rng = np.random.Generator(np.random.PCG64(42))
    ids = rng.integers(5, 64, size=(16, 16))
    mask = (np.arange(16) < 16 - np.arange(16)[:, None] % 4).astype(np.int64)
    batch = TaskBatch(ids, rng.integers(0, 3, size=16), mask)
    quant = QatContext(prunable_parameter_names(cfg)) if quantized else None
    fw = model.forward_classify(batch, quant=quant)
    T.backward(fw.loss)
    h = hashlib.sha256(fw.logits.values.tobytes())
    for name, p in model.parameters.items():
        h.update(name.encode())
        h.update(p.grad.tobytes())
    assert h.hexdigest() == CLASSIFY_BYTES[shape, quantized]
