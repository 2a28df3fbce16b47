import numpy as np
import pytest

from sparsekit.quant import (Observer, QatContext, QuantParams,
                             activation_qparams, dequantize, fake_quant,
                             quantize_ints, weight_qparams)
from sparsekit.tensor import ContractError, Tensor, backward


def test_weight_qparams_basic():
    qp = weight_qparams(np.array([-0.5, 0.25, 0.1], dtype=np.float32))
    assert qp.scale == pytest.approx(0.5 / 127)
    assert qp.zero_point == 0
    assert qp.qmin == -127 and qp.qmax == 127


def test_weight_qparams_all_zero():
    qp = weight_qparams(np.zeros(4, dtype=np.float32))
    assert qp.scale == 1.0
    assert qp.zero_point == 0


def test_weight_extremes_map_to_pm127():
    w = np.array([-2.0, 2.0, 0.0], dtype=np.float32)
    qp = weight_qparams(w)
    q = quantize_ints(w, qp)
    np.testing.assert_array_equal(q, [-127, 127, 0])


def test_activation_qparams_range_includes_zero():
    obs = Observer().observe(np.array([0.5, 2.0]))
    qp = activation_qparams(obs)
    # range widened to [0, 2]
    assert qp.scale == pytest.approx(2.0 / 255)
    assert qp.zero_point == 0
    assert qp.qmin == 0 and qp.qmax == 255


def test_activation_qparams_negative_range():
    obs = Observer().observe(np.array([-1.0, 3.0]))
    qp = activation_qparams(obs)
    assert qp.scale == pytest.approx(4.0 / 255)
    assert qp.zero_point == round(1.0 / qp.scale)
    # zero is exactly representable
    assert dequantize(np.array([qp.zero_point]), qp)[0] == 0.0


def test_activation_qparams_uninitialized():
    with pytest.raises(ContractError):
        activation_qparams(Observer())


def test_activation_qparams_constant_signal():
    obs = Observer().observe(np.zeros(3))
    qp = activation_qparams(obs)
    assert qp.scale == 1.0 and qp.zero_point == 0


def test_observer_running_extrema():
    obs = Observer()
    obs.observe(np.array([1.0, 2.0]))
    obs.observe(np.array([-3.0, 0.5]))
    assert obs.running_min == -3.0
    assert obs.running_max == 2.0


def test_quantize_dequantize_error_bound():
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.uniform(-1, 1, size=100_000).astype(np.float32)
    qp = weight_qparams(w)
    err = np.abs(dequantize(quantize_ints(w, qp), qp) - w)
    assert err.max() <= qp.scale / 2 + 1e-7


def test_activation_roundtrip_error_bound():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.uniform(-2, 5, size=100_000).astype(np.float32)
    obs = Observer().observe(x)
    qp = activation_qparams(obs)
    err = np.abs(dequantize(quantize_ints(x, qp), qp) - x)
    assert err.max() <= qp.scale / 2 + 1e-6


def test_fake_quant_idempotent():
    rng = np.random.Generator(np.random.PCG64(2))
    x = Tensor(rng.standard_normal(500).astype(np.float32))
    qp = weight_qparams(x)
    once = fake_quant(x, qp)
    twice = fake_quant(once, qp)
    np.testing.assert_array_equal(once.values, twice.values)


def test_fake_quant_matches_int_path():
    rng = np.random.Generator(np.random.PCG64(3))
    w = rng.standard_normal(256).astype(np.float32)
    qp = weight_qparams(w)
    fq = fake_quant(Tensor(w), qp).values
    ints = quantize_ints(w, qp).astype(np.int8)
    np.testing.assert_array_equal(fq, dequantize(ints, qp))


def test_fake_quant_ste_gradient():
    # values inside the representable range pass the gradient through,
    # clamped values block it
    qp = QuantParams(scale=0.1, zero_point=0, scheme="symmetric-weight")
    x = Tensor(np.array([0.5, 20.0, -20.0, -0.3], dtype=np.float32),
               requires_grad=True)
    from sparsekit.tensor import mean
    backward(mean(fake_quant(x, qp)))
    np.testing.assert_array_equal(x.grad != 0, [True, False, False, True])


def test_qat_context_weight_gating():
    ctx = QatContext(weight_names={"a.weight"})
    w = Tensor(np.array([0.3, -0.6], dtype=np.float32))
    out = ctx.quantize_weight("a.weight", w)
    assert not np.array_equal(out.values, w.values) or True  # projected
    skipped = ctx.quantize_weight("b.weight", w)
    assert skipped is w


def test_qat_context_observers_update_then_freeze():
    ctx = QatContext(weight_names=set())
    x1 = Tensor(np.array([0.0, 1.0], dtype=np.float32))
    ctx.quantize_activation("h.out", x1)
    assert ctx.observer_ranges()["h.out"] == (0.0, 1.0)
    ctx.quantize_activation("h.out", Tensor(np.array([-2.0, 3.0], dtype=np.float32)))
    assert ctx.observer_ranges()["h.out"] == (-2.0, 3.0)
    ctx.frozen = True
    ctx.quantize_activation("h.out", Tensor(np.array([-9.0, 9.0], dtype=np.float32)))
    assert ctx.observer_ranges()["h.out"] == (-2.0, 3.0)


def test_qat_context_from_ranges_matches():
    ctx = QatContext(weight_names=set())
    x = Tensor(np.linspace(-1, 4, 64, dtype=np.float32))
    live = ctx.quantize_activation("f.out", x)
    restored = QatContext.from_ranges(set(), ctx.observer_ranges())
    frozen = restored.quantize_activation("f.out", x)
    np.testing.assert_array_equal(live.values, frozen.values)


def test_qat_frozen_unknown_activation_passthrough():
    ctx = QatContext(weight_names=set(), frozen=True)
    x = Tensor(np.array([1.5], dtype=np.float32))
    assert ctx.quantize_activation("new.out", x) is x


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "bad-after-data"])
def test_observer_rejects_non_finite_batch(bad, bad_first):
    """A running min/max keeps a NaN batch that comes first and drops one
    that comes after real data, so either order is an error naming the
    observer."""
    ctx = QatContext(weight_names=set())
    good = Tensor(np.array([-1.0, 2.0], dtype=np.float32))
    poisoned = Tensor(np.array([0.5, bad, 1.0], dtype=np.float32))
    if not bad_first:
        ctx.quantize_activation("layer.0.ffn_in.out", good)
    with pytest.raises(ContractError, match=r"observer 'layer\.0\.ffn_in\.out'.*non-finite"):
        ctx.quantize_activation("layer.0.ffn_in.out", poisoned)
    assert ctx.observer_ranges() == ({} if bad_first else {"layer.0.ffn_in.out": (-1.0, 2.0)})
