import math

import numpy as np
import pytest

from sparsekit import tensor as T
from sparsekit.tensor import (ContractError, ShapeError, Tensor,
                              UnsupportedPrimitiveError, backward,
                              finite_diff_check, seeded_init)


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    out = T.matmul(a, Tensor(np.eye(2, dtype=np.float32)))
    np.testing.assert_array_equal(out.values, a.values)


def test_softmax_symmetry():
    out = T.softmax_last_axis(Tensor(np.zeros(2, dtype=np.float32)))
    np.testing.assert_allclose(out.values, [0.5, 0.5])


def test_layer_norm_hand_example():
    out = T.layer_norm_last_axis(Tensor(np.array([1.0, 3.0])), eps=1e-5)
    np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-4)


def test_softmax_rows_normalized_and_nonnegative():
    rng = np.random.Generator(np.random.PCG64(0))
    x = Tensor(rng.standard_normal((50, 7)).astype(np.float32) * 5)
    s = T.softmax_last_axis(x).values
    assert (s >= 0).all()
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)


def test_unknown_init_scheme():
    with pytest.raises(UnsupportedPrimitiveError, match="conv2d"):
        seeded_init((2, 2), "conv2d", 1)


def test_shape_error_names_primitive():
    a = Tensor(np.zeros((2, 3), dtype=np.float32))
    b = Tensor(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(a, b)


def test_backward_mean_is_uniform():
    w = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32), requires_grad=True)
    backward(T.mean(w))
    np.testing.assert_array_equal(w.grad, [0.25, 0.25, 0.25, 0.25])


def test_backward_quadratic_analytic():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    # sum(w*w) via mean * n
    loss = T.scale(T.mean(T.mul(w, w)), 2.0)
    backward(loss)
    np.testing.assert_allclose(w.grad, [2.0, -4.0])


def test_backward_accumulates_without_zeroing():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = T.mean(T.mul(w, w))
    backward(loss)
    first = w.grad.copy()
    backward(loss)
    np.testing.assert_array_equal(w.grad, 2 * first)


def test_backward_requires_scalar_loss():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ContractError):
        backward(T.mul(w, w))


def test_unreached_parameter_grad_is_zero():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    other = Tensor(np.array([3.0]), requires_grad=True)
    backward(T.mean(T.mul(w, w)))
    assert other.grad is None  # zero by convention


def test_finite_diff_quadratic():
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    err = finite_diff_check(lambda: T.mean(T.mul(w, w)), {"w": w}, "w", eps=1e-3)
    assert err < 1e-5


def test_finite_diff_independent_param():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([5.0]), requires_grad=True)
    err = finite_diff_check(lambda: T.mean(T.mul(c, c)), {"w": w, "c": c}, "w", eps=1e-3)
    assert err == 0.0


def test_finite_diff_unknown_param():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(KeyError):
        finite_diff_check(lambda: T.mean(w), {"w": w}, "nope", eps=1e-3)


def test_finite_diff_bad_eps():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractError):
        finite_diff_check(lambda: T.mean(w), {"w": w}, "w", eps=0.0)


def _random_param(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.mark.parametrize("build", [
    lambda w, rng: T.mean(T.matmul(w, Tensor(rng.standard_normal((4, 3))))),
    lambda w, rng: T.mean(T.add(w, rng.standard_normal(w.shape))),
    lambda w, rng: T.mean(T.sub(w, rng.standard_normal(w.shape))),
    lambda w, rng: T.mean(T.mul(w, rng.standard_normal(w.shape))),
    lambda w, rng: T.mean(T.transpose(w, (1, 0))),
    lambda w, rng: T.mean(T.mul(T.reshape(w, (12,)), np.arange(12.0))),
    lambda w, rng: T.mean(T.gelu(w)),
    lambda w, rng: T.mean(T.mul(T.softmax_last_axis(w), rng.standard_normal(w.shape))),
    lambda w, rng: T.mean(T.mul(T.layer_norm_last_axis(w), rng.standard_normal(w.shape))),
    lambda w, rng: T.cross_entropy_with_targets(w, np.array([0, 2, -1])),
    lambda w, rng: T.scale(T.mean(w), 3.7),
])
def test_finite_diff_per_primitive(build):
    rng = np.random.Generator(np.random.PCG64(42))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    loss_fn = lambda: build(w, np.random.Generator(np.random.PCG64(7)))
    err = finite_diff_check(loss_fn, {"w": w}, "w", eps=1e-4)
    assert err < 1e-3


def test_finite_diff_embedding_lookup():
    rng = np.random.Generator(np.random.PCG64(3))
    table = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    ids = np.array([[0, 2], [4, 2]])
    coeff = rng.standard_normal((2, 2, 4))
    loss_fn = lambda: T.mean(T.mul(T.embedding_lookup(table, ids), coeff))
    assert finite_diff_check(loss_fn, {"t": table}, "t", eps=1e-4) < 1e-3


def test_position_embedding_bit_equal_to_lookup():
    """Forward bytes of embedding_lookup over arange(seq) ids, and backward
    bytes of its np.add.at scatter, also for signed zeros: 0.0 + (-0.0) is +0.0."""
    rng = np.random.Generator(np.random.PCG64(5))
    table = Tensor(rng.standard_normal((10, 6)).astype(np.float32))
    batch, seq = 5, 7
    ids = np.broadcast_to(np.arange(seq), (batch, seq))
    out = T.position_embedding(table, batch, seq)
    assert out.values.tobytes() == T.embedding_lookup(table, ids).values.tobytes()

    g = rng.standard_normal((batch, seq, 6)).astype(np.float32)
    g[:, 0] = -0.0                 # a position whose every row is -0.0
    g[0, 1] = -0.0                 # -0.0 first, numbers after it
    g[1:, 2] = -0.0                # a number first, -0.0 after it
    g[:, 3] = np.array([0.0, -0.0, 0.0, -0.0, -0.0], dtype=np.float32)[:, None]
    g[:, 4, 0] = [1.0, -1.0, -0.0, -0.0, -0.0]  # cancels to +0.0, then -0.0 rows
    want = np.zeros_like(table.values)
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 6))
    got, = out._backward(g)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert np.signbit(got[:seq]).sum() == np.signbit(want[:seq]).sum()


def test_finite_diff_position_embedding():
    rng = np.random.Generator(np.random.PCG64(4))
    table = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    coeff = rng.standard_normal((2, 4, 3))
    loss_fn = lambda: T.mean(T.mul(T.position_embedding(table, 2, 4), coeff))
    assert finite_diff_check(loss_fn, {"t": table}, "t", eps=1e-4) < 1e-3
    with pytest.raises(ShapeError):
        T.position_embedding(table, 2, 7)


# -- fused layer primitives -------------------------------------------------

FUSED = ["linear-2d", "linear-3d", "add_layer_norm", "attention"]
SMALL = {"batch": 2, "seq": 4, "hidden": 6, "out": 5, "heads": 2}
DESK = {"batch": 16, "seq": 16, "hidden": 32, "out": 64, "heads": 4}  # the default model's


def _padded_mask_bias(batch, seq, dtype):
    """Additive attention mask; row i has i % 3 padded slots at the end."""
    attention_mask = (np.arange(seq) < seq - np.arange(batch)[:, None] % 3).astype(np.int64)
    return ((1.0 - attention_mask) * -1e9)[:, None, None, :].astype(dtype)


def _fused_case(name, dtype, seed, batch, seq, hidden, out, heads):
    """(inputs, fused forward, the unfused composition it replaced, loss):
    the loss weights an output with a fixed random tensor."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)

    if name.startswith("linear"):
        x_shape = (batch, hidden) if name == "linear-2d" else (batch, seq, hidden)
        inputs = {"x": leaf(*x_shape), "w": leaf(hidden, out), "b": leaf(out)}
        out_shape = x_shape[:-1] + (out,)
        fused = lambda i: T.linear(i["x"], i["w"], i["b"])
        unfused = lambda i: T.add(T.matmul(i["x"], i["w"]), i["b"])
    elif name == "add_layer_norm":
        inputs = {"x": leaf(batch, seq, hidden), "y": leaf(batch, seq, hidden),
                  "gain": leaf(hidden), "bias": leaf(hidden)}
        out_shape = (batch, seq, hidden)
        fused = lambda i: T.add_layer_norm(i["x"], i["y"], i["gain"], i["bias"])
        unfused = lambda i: T.add(T.mul(T.layer_norm_last_axis(T.add(i["x"], i["y"])),
                                        i["gain"]), i["bias"])
    else:
        mask = _padded_mask_bias(batch, seq, dtype)
        inputs = {n: leaf(batch, seq, hidden) for n in "qkv"}
        out_shape = (batch, seq, hidden)
        fused = lambda i: T.attention(i["q"], i["k"], i["v"], mask, heads)

        def unfused(i):
            # the encoder's attention before it was fused
            dh = hidden // heads

            def split(t):
                return T.transpose(T.reshape(t, (batch, seq, heads, dh)), (0, 2, 1, 3))
            q, k, v = split(i["q"]), split(i["k"]), split(i["v"])
            scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
            probs = T.softmax_last_axis(T.add(scores, Tensor(mask)))
            return T.reshape(T.transpose(T.matmul(probs, v), (0, 2, 1, 3)), out_shape)
    coeff = rng.standard_normal(out_shape).astype(dtype)
    return inputs, fused, unfused, lambda o: T.mean(T.mul(o, coeff))


@pytest.mark.parametrize("name", FUSED)
def test_fused_primitive_finite_diff(name):
    inputs, fused, _, loss = _fused_case(name, np.float64, 11, **SMALL)
    for param in inputs:
        err = finite_diff_check(lambda: loss(fused(inputs)), inputs, param, eps=1e-4)
        assert err < 1e-3, f"d/d{param} off by {err}"


@pytest.mark.parametrize("dims", [SMALL, DESK], ids=["small", "desk"])
@pytest.mark.parametrize("name", FUSED)
def test_fused_primitive_bit_equal_to_unfused(name, dims):
    """In float32 each fused forward, and each input gradient, has the bytes
    of the unfused composition it replaced."""
    inputs, fused, unfused, loss = _fused_case(name, np.float32, 13, **dims)
    results = []
    for build in (fused, unfused):
        for t in inputs.values():
            t.zero_grad()
        out = build(inputs)
        backward(loss(out))
        results.append((out.values.tobytes(), {n: t.grad.tobytes() for n, t in inputs.items()}))
    assert results[0][0] == results[1][0], "forward differs"
    for n in inputs:
        assert results[0][1][n] == results[1][1][n], f"d/d{n} differs"


def test_fused_attention_ignores_padded_keys():
    rng = np.random.Generator(np.random.PCG64(12))
    q, k, v = (Tensor(rng.standard_normal((3, 4, 6))) for _ in range(3))
    mask = _padded_mask_bias(3, 4, np.float64)
    out = T.attention(q, k, v, mask, 2).values
    # a padded key or value moves no output
    k.values[1, 3] += 5.0
    v.values[2, 2:] -= 7.0
    np.testing.assert_array_equal(T.attention(q, k, v, mask, 2).values, out)


def test_fused_primitive_shape_errors():
    a = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="linear"):
        T.linear(a, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))
    with pytest.raises(ShapeError, match="add-layer-norm"):
        T.add_layer_norm(a, Tensor(np.zeros((2, 3, 5))), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    with pytest.raises(ShapeError, match="attention"):
        T.attention(a, a, a, np.zeros((2, 1, 1, 3)), 3)


def test_seeded_init_zeros_and_ones():
    np.testing.assert_array_equal(seeded_init((3,), "zeros", 1).values, [0, 0, 0])
    np.testing.assert_array_equal(seeded_init((2,), "ones", 1).values, [1, 1])


def test_seeded_init_deterministic():
    a = seeded_init((32, 32), "normal-0.02", 123)
    b = seeded_init((32, 32), "normal-0.02", 123)
    assert a.values.tobytes() == b.values.tobytes()
    c = seeded_init((32, 32), "normal-0.02", 124)
    assert a.values.tobytes() != c.values.tobytes()


def test_seeded_init_std():
    draws = seeded_init((10_000,), "normal-0.02", 9).values
    assert 0.018 <= draws.std() <= 0.022


def test_evaluation_deterministic():
    def run():
        w = seeded_init((8, 8), "normal-0.02", 5)
        return T.softmax_last_axis(T.matmul(w, w)).values.tobytes()

    assert run() == run()


def test_cross_entropy_degenerate_all_ignored():
    logits = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
    loss = T.cross_entropy_with_targets(logits, np.array([-1, -1]))
    assert float(loss.values) == 0.0
    assert loss.degenerate
    backward(loss)
    np.testing.assert_array_equal(logits.grad, np.zeros((2, 3)))


def test_no_grad_results_are_plain_leaves():
    w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with T.no_grad():
        out = T.gelu(T.mul(w, w))
        loss = T.mean(out)
    for t in (out, loss):
        assert t.parents == () and t._backward is None
    np.testing.assert_array_equal(out.values, T.gelu(T.mul(w, w)).values)


def test_no_grad_restores_taping_after_block_error_and_nesting():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("inside")
    assert T.mul(w, w).parents == (w, w)
    with T.no_grad():
        with T.no_grad():
            pass
        assert T.mul(w, w).parents == ()  # inner exit keeps the outer block tape-free
    backward(T.mean(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [1.0, 2.0])
