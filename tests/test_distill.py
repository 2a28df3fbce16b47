import math

import numpy as np
import pytest

from sparsekit.distill import DistillConfig, combined_loss, kd_loss
from sparsekit.tensor import (ContractError, ShapeError, Tensor, add, backward,
                              cross_entropy_with_targets, scale)

from oracles import finite_diff_check, soft_probs


def test_soft_probs_uniform():
    for t in (0.5, 1.0, 7.0):
        out = soft_probs(Tensor(np.zeros((1, 2))), t)
        np.testing.assert_allclose(out.values, [[0.5, 0.5]])


def test_soft_probs_temperature_two():
    out = soft_probs(Tensor(np.array([[2.0, 0.0]])), 2.0)
    e = math.e
    np.testing.assert_allclose(out.values, [[e / (e + 1), 1 / (e + 1)]], rtol=1e-6)


def test_soft_probs_high_temperature_flattens():
    out = soft_probs(Tensor(np.array([[10.0, 0.0]])), 1000.0)
    np.testing.assert_allclose(out.values, [[0.5025, 0.4975]], atol=1e-4)


def test_soft_probs_bad_temperature():
    with pytest.raises(ContractError):
        soft_probs(Tensor(np.zeros((1, 2))), 0.0)


def test_kd_self_distillation_uniform():
    logits = Tensor(np.zeros((1, 4)))
    loss = kd_loss(logits, Tensor(logits.values.copy()), 1.0)
    assert float(loss.values) == pytest.approx(math.log(4), abs=1e-6)


def test_kd_self_equals_entropy():
    rng = np.random.Generator(np.random.PCG64(0))
    z = rng.standard_normal((5, 6))
    for t in (1.0, 2.0):
        loss = float(kd_loss(Tensor(z), Tensor(z.copy()), t).values)
        p = soft_probs(Tensor(z), t).values
        entropy = float((-p * np.log(p)).sum(axis=-1).mean())
        assert loss == pytest.approx(entropy, abs=1e-6)


def test_kd_gibbs_inequality():
    rng = np.random.Generator(np.random.PCG64(1))
    zt = rng.standard_normal((8, 5))
    zs = rng.standard_normal((8, 5))
    loss = float(kd_loss(Tensor(zs), Tensor(zt), 2.0).values)
    p = soft_probs(Tensor(zt), 2.0).values
    entropy = float((-p * np.log(p)).sum(axis=-1).mean())
    assert loss >= entropy - 1e-6


def test_kd_one_hot_teacher_limit():
    teacher = Tensor(np.array([[1000.0, 0.0]]))
    student = Tensor(np.zeros((1, 2)))
    loss = kd_loss(student, teacher, 1.0)
    assert float(loss.values) == pytest.approx(math.log(2), abs=1e-6)


def test_kd_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(2))
    zs = rng.standard_normal((4, 5))
    zt = rng.standard_normal((4, 5))
    base = float(kd_loss(Tensor(zs), Tensor(zt), 2.0).values)
    shifted = float(kd_loss(Tensor(zs + 3.3), Tensor(zt - 1.7), 2.0).values)
    assert shifted == pytest.approx(base, abs=1e-6)


def test_kd_gradient_is_prob_gap():
    rng = np.random.Generator(np.random.PCG64(3))
    zs = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    zt = Tensor(rng.standard_normal((6, 4)))
    loss = kd_loss(zs, zt, 1.0)
    backward(loss)
    s = soft_probs(Tensor(zs.values), 1.0).values
    t = soft_probs(Tensor(zt.values), 1.0).values
    np.testing.assert_allclose(zs.grad, (s - t) / 6, atol=1e-10)
    err = finite_diff_check(lambda: kd_loss(zs, zt, 1.0), {"zs": zs}, "zs", eps=1e-5)
    assert err < 1e-4


def test_kd_no_gradient_to_teacher():
    zs = Tensor(np.zeros((2, 3)), requires_grad=True)
    zt = Tensor(np.ones((2, 3)), requires_grad=True)
    backward(kd_loss(zs, zt, 1.0))
    assert zt.grad is None


@pytest.mark.parametrize("temperature", [0.0, -1.0, math.nan])
def test_kd_bad_temperature(temperature):
    with pytest.raises(ContractError, match="temperature must be positive"):
        kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), temperature)


def test_kd_shape_mismatch():
    with pytest.raises(ShapeError):
        kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), 1.0)


def test_combined_loss_examples():
    cfg = DistillConfig(temperature=2.0, lambda_pt=0.5, lambda_kd=0.5)
    out = combined_loss(Tensor(np.asarray(2.0)), Tensor(np.asarray(1.0)), cfg)
    assert float(out.values) == pytest.approx(1.5)
    kd_only = DistillConfig(temperature=2.0, lambda_pt=0.0, lambda_kd=1.0)
    assert float(combined_loss(Tensor(np.asarray(2.0)), Tensor(np.asarray(1.0)), kd_only).values) == 1.0
    pt_only = DistillConfig(temperature=2.0, lambda_pt=1.0, lambda_kd=0.0)
    assert float(combined_loss(Tensor(np.asarray(2.0)), Tensor(np.asarray(1.0)), pt_only).values) == 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lambda_pt, lambda_kd", [(0.0, 1.0), (0.0, 0.3), (0.7, 0.0)])
def test_combined_loss_with_a_zero_weight_keeps_the_two_term_bytes(lambda_pt, lambda_kd, dtype):
    """With the zero-weighted term left off the tape, the loss and the
    logits' gradient keep the bytes of lambda_pt * l_pt + lambda_kd * l_kd."""
    rng = np.random.Generator(np.random.PCG64(5))
    zs, zt = ((rng.standard_normal((16, 5)) * 3).astype(dtype) for _ in range(2))
    targets = rng.integers(0, 5, size=16)
    cfg = DistillConfig(2.0, lambda_pt, lambda_kd)

    def loss_and_grad(mix):
        logits = Tensor(zs.copy(), requires_grad=True)
        loss = mix(cross_entropy_with_targets(logits, targets), kd_loss(logits, Tensor(zt), 2.0))
        backward(loss)
        return loss.values.tobytes(), logits.grad.tobytes()

    def two_terms(l_pt, l_kd):
        return add(scale(l_pt, lambda_pt), scale(l_kd, lambda_kd))

    assert loss_and_grad(lambda l_pt, l_kd: combined_loss(l_pt, l_kd, cfg)) \
        == loss_and_grad(two_terms)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_combined_loss_keeps_a_non_finite_zero_weighted_term(value):
    cfg = DistillConfig(2.0, lambda_pt=0.0, lambda_kd=1.0)
    with np.errstate(invalid="ignore"):  # 0 * inf
        out = combined_loss(Tensor(np.asarray(value)), Tensor(np.asarray(1.0)), cfg)
    assert np.isnan(out.values)


@pytest.mark.parametrize("key", ["temperature", "lambda_pt", "lambda_kd"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_distill_config_rejects_non_finite_values(key, value):
    with pytest.raises(ContractError, match="finite"):
        DistillConfig(**{key: value})


def test_distill_config_invariants():
    with pytest.raises(ContractError):
        DistillConfig(temperature=0.0)
    with pytest.raises(ContractError):
        DistillConfig(lambda_pt=0.0, lambda_kd=0.0)
