import numpy as np
import pytest

from sparsekit.quant import (QatContext, QuantParams, activation_qparams, dequantize,
                             fake_quant, quantize_ints, weight_qparams)
from sparsekit.tensor import ContractError, Tensor, backward, linear


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
    qp = activation_qparams(0.5, 2.0)
    # range widened to [0, 2]
    assert qp.scale == pytest.approx(2.0 / 255)
    assert qp.zero_point == 0
    assert qp.qmin == 0 and qp.qmax == 255


def test_activation_qparams_negative_range():
    qp = activation_qparams(-1.0, 3.0)
    assert qp.scale == pytest.approx(4.0 / 255)
    assert qp.zero_point == round(1.0 / qp.scale)
    # zero is exactly representable
    assert dequantize(np.array([qp.zero_point]), qp)[0] == 0.0


def test_activation_qparams_constant_signal():
    qp = activation_qparams(0.0, 0.0)
    assert qp.scale == 1.0 and qp.zero_point == 0


def test_observer_running_extrema():
    # each bound moves on its own: the max from the first batch, the min from
    # the second, and the third batch inside the range moves neither
    ctx = QatContext(weight_names=set())
    for batch in ([1.0, 2.0], [-3.0, 0.5], [0.0, 1.5]):
        ctx.quantize_activation("h.out", Tensor(np.array(batch, dtype=np.float32)))
    assert ctx.ranges == {"h.out": (-3.0, 2.0)}


def test_quantize_dequantize_error_bound():
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.uniform(-1, 1, size=100_000).astype(np.float32)
    qp = weight_qparams(w)
    err = np.abs(dequantize(quantize_ints(w, qp), qp) - w)
    assert err.max() <= qp.scale / 2 + 1e-7


def test_activation_roundtrip_error_bound():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.uniform(-2, 5, size=100_000).astype(np.float32)
    qp = activation_qparams(float(x.min()), float(x.max()))
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
    qp = QuantParams(scale=0.1, zero_point=0, qmin=-127, qmax=127)
    x = Tensor(np.array([0.5, 20.0, -20.0, -0.3], dtype=np.float32),
               requires_grad=True)
    from oracles import mean
    backward(mean(fake_quant(x, qp)))
    np.testing.assert_array_equal(x.grad != 0, [True, False, False, True])


def test_qat_context_weight_gating():
    ctx = QatContext(weight_names={"a.weight"})
    x = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]], dtype=np.float32))
    w = Tensor(np.array([[0.3, -0.6], [0.2, 0.7]], dtype=np.float32))
    b = Tensor(np.array([0.1, -0.1], dtype=np.float32))
    wq = fake_quant(w, weight_qparams(w))
    assert not np.array_equal(wq.values, w.values)  # 0.3 is off the grid
    out = ctx.linear("a", x, w, b)
    pre = linear(x, wq, b)
    lo, hi = float(pre.values.min()), float(pre.values.max())
    assert ctx.ranges == {"a.out": (lo, hi)}
    np.testing.assert_array_equal(out.values,
                                  fake_quant(pre, activation_qparams(lo, hi)).values)
    # a linear whose weight is not named runs in float and observes nothing
    skipped = ctx.linear("b", x, w, b)
    assert skipped.values.tobytes() == linear(x, w, b).values.tobytes()
    assert list(ctx.ranges) == ["a.out"]


def test_qat_context_observers_update_then_freeze():
    ctx = QatContext(weight_names=set())
    x1 = Tensor(np.array([0.0, 1.0], dtype=np.float32))
    ctx.quantize_activation("h.out", x1)
    assert ctx.ranges["h.out"] == (0.0, 1.0)
    ctx.quantize_activation("h.out", Tensor(np.array([-2.0, 3.0], dtype=np.float32)))
    assert ctx.ranges["h.out"] == (-2.0, 3.0)
    ctx.frozen = True
    frozen = ctx.quantize_activation("h.out", Tensor(np.array([-9.0, 9.0], dtype=np.float32)))
    assert ctx.ranges["h.out"] == (-2.0, 3.0)
    # a frozen context clamps to the range it kept
    np.testing.assert_allclose(frozen.values, [-2.0, 3.0], atol=5.0 / 255)


def test_qat_context_from_ranges_matches():
    ctx = QatContext(weight_names=set())
    x = Tensor(np.linspace(-1, 4, 64, dtype=np.float32))
    live = ctx.quantize_activation("f.out", x)
    # the ranges as a checkpoint's metrics hold them: JSON lists
    restored = QatContext.from_ranges(set(), {k: list(v) for k, v in ctx.ranges.items()})
    frozen = restored.quantize_activation("f.out", x)
    np.testing.assert_array_equal(live.values, frozen.values)
    assert restored.ranges == ctx.ranges


def test_qat_frozen_unknown_activation_passthrough():
    ctx = QatContext.from_ranges(set(), {"known.out": (0.0, 1.0)})
    x = Tensor(np.array([1.5], dtype=np.float32))
    assert ctx.quantize_activation("new.out", x) is x
    assert ctx.ranges == {"known.out": (0.0, 1.0)}


_WEIGHTS = ("layer.0.attn_out.weight", "pooler.weight")
_RANGES = {"layer.0.attn_out.out": (-1.5, 2.0), "pooler.out": (-0.5, 0.5)}


def test_from_ranges_missing_activation_is_contract_error():
    """A quantized weight whose output has no saved range would leave that
    linear's output unquantized at evaluation."""
    assert QatContext.from_ranges(_WEIGHTS, _RANGES).ranges == _RANGES
    partial = {k: v for k, v in _RANGES.items() if k != "layer.0.attn_out.out"}
    with pytest.raises(ContractError,
                       match=r"^no activation range for 'layer\.0\.attn_out\.out'$"):
        QatContext.from_ranges(_WEIGHTS, partial)


@pytest.mark.parametrize("bounds", [(np.nan, 1.0), (-1.0, np.nan), (-np.inf, 1.0),
                                    (0.0, np.inf), (2.0, 1.0), (0.0,)])
def test_from_ranges_bad_bounds_are_contract_error(bounds):
    """activation_qparams would read a NaN bound as 0, since min(0.0, nan)
    is 0.0; a range needs two finite bounds lo <= hi."""
    ranges = {**_RANGES, "pooler.out": bounds}
    with pytest.raises(ContractError, match=r"^activation range 'pooler\.out' must be two "
                                            r"finite bounds lo <= hi"):
        QatContext.from_ranges(_WEIGHTS, ranges)


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
    assert ctx.ranges == ({} if bad_first else {"layer.0.ffn_in.out": (-1.0, 2.0)})
