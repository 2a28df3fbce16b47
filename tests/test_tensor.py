import math

import numpy as np
import pytest

from sparsekit import tensor as T
from sparsekit.tensor import (ContractError, ShapeError, Tensor,
                              UnsupportedPrimitiveError, backward, seeded_init)

from oracles import finite_diff_check, mean, sub


def test_matmul_identity():
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
    out = T.matmul(a, Tensor(np.eye(2, dtype=np.float32)))
    np.testing.assert_array_equal(out.values, a.values)


def test_softmax_symmetry():
    out = T.softmax_last_axis(Tensor(np.zeros(2, dtype=np.float32)))
    np.testing.assert_allclose(out.values, [0.5, 0.5])


def test_layer_norm_hand_example():
    out = T.layer_norm_last_axis(Tensor(np.array([1.0, 3.0])))
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
    backward(mean(w))
    np.testing.assert_array_equal(w.grad, [0.25, 0.25, 0.25, 0.25])


def test_backward_quadratic_analytic():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    # sum(w*w) via mean * n
    loss = T.scale(mean(T.mul(w, w)), 2.0)
    backward(loss)
    np.testing.assert_allclose(w.grad, [2.0, -4.0])


def test_backward_accumulates_without_zeroing():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    loss = mean(T.mul(w, w))
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
    backward(mean(T.mul(w, w)))
    assert other.grad is None  # zero by convention


def test_finite_diff_quadratic():
    w = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    err = finite_diff_check(lambda: mean(T.mul(w, w)), {"w": w}, "w", eps=1e-3)
    assert err < 1e-5


def test_finite_diff_independent_param():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = Tensor(np.array([5.0]), requires_grad=True)
    err = finite_diff_check(lambda: mean(T.mul(c, c)), {"w": w, "c": c}, "w", eps=1e-3)
    assert err == 0.0


def test_finite_diff_unknown_param():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(KeyError):
        finite_diff_check(lambda: mean(w), {"w": w}, "nope", eps=1e-3)


def test_finite_diff_bad_eps():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractError):
        finite_diff_check(lambda: mean(w), {"w": w}, "w", eps=0.0)


def _random_param(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


@pytest.mark.parametrize("build", [
    lambda w, rng: mean(T.matmul(w, Tensor(rng.standard_normal((4, 3))))),
    lambda w, rng: mean(T.add(w, rng.standard_normal(w.shape))),
    lambda w, rng: mean(sub(w, rng.standard_normal(w.shape))),
    lambda w, rng: mean(T.mul(w, rng.standard_normal(w.shape))),
    lambda w, rng: mean(T.transpose(w, (1, 0))),
    lambda w, rng: mean(T.mul(T.reshape(w, (12,)), np.arange(12.0))),
    lambda w, rng: mean(T.gelu(w)),
    lambda w, rng: mean(T.mul(T.softmax_last_axis(w), rng.standard_normal(w.shape))),
    lambda w, rng: mean(T.mul(T.layer_norm_last_axis(w), rng.standard_normal(w.shape))),
    lambda w, rng: T.cross_entropy_with_targets(w, np.array([0, 2, -1])),
    lambda w, rng: T.scale(mean(w), 3.7),
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
    loss_fn = lambda: mean(T.mul(T.embedding_lookup(table, ids), coeff))
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
    loss_fn = lambda: mean(T.mul(T.position_embedding(table, 2, 4), coeff))
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
        rows = math.prod(x_shape[:-1])  # linear runs on x viewed as (rows, hidden)
        unfused = lambda i: T.reshape(T.add(T.matmul(T.reshape(i["x"], (rows, hidden)), i["w"]),
                                            i["b"]), out_shape)
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
    return inputs, fused, unfused, lambda o: mean(T.mul(o, coeff))


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
    with pytest.raises(ShapeError, match="attention"):  # queries of another batch
        T.attention(Tensor(np.zeros((3, 1, 4))), a, a, np.zeros((2, 1, 1, 3)), 2)


# -- in-place kernels against the formulas they were written from -----------
#
# Each reference below is the expression a kernel computed before it wrote
# into its own temporaries; the kernel must give the same bytes, forward and
# backward, on signed zeros, infinities and NaN as well as on ordinary values.

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e30, -1e-40, 3.0])
quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf and the like


def _with_specials(rng, shape, dtype):
    x = rng.standard_normal(shape).astype(dtype)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, 3 * SPECIALS.size, replace=False)] = np.tile(SPECIALS, 3)
    return x


def _kernel_grads(out, g):
    """The input gradients the node's backward gives for the output gradient g."""
    return [np.asarray(a).tobytes() for a in out._backward(g)]


def _ref_gelu(x, g):
    c = T._SQRT_2_OVER_PI
    th = np.tanh(c * (x + T.GELU_COEFF * x * x * x))
    dinner = c * (1.0 + 3.0 * T.GELU_COEFF * x * x)
    dx = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * dinner
    return 0.5 * x * (1.0 + th), [g * dx]


@quiet
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bit_equal_to_formula(dtype):
    rng = np.random.Generator(np.random.PCG64(31))
    x = _with_specials(rng, (16, 16, 64), dtype)
    g = _with_specials(rng, x.shape, dtype)
    out = T.gelu(Tensor(x, requires_grad=True))
    want_out, want_grads = _ref_gelu(x, g)
    assert out.values.dtype == dtype and out.values.tobytes() == want_out.tobytes()
    assert _kernel_grads(out, g) == [w.tobytes() for w in want_grads]


def _ref_add_layer_norm(x, y, gain, bias, g, eps=1e-5):
    d = x + y
    d -= T._mean_last(d)
    inv = 1.0 / np.sqrt(T._mean_last(np.square(d)) + eps)
    xhat = d * inv
    gx = g * gain
    dx = inv * (gx - T._mean_last(gx) - xhat * T._mean_last(gx * xhat))
    return xhat * gain + bias, [dx, dx, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]


@quiet
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_add_layer_norm_bit_equal_to_formula(dtype):
    rng = np.random.Generator(np.random.PCG64(32))
    x, y, g = (_with_specials(rng, (16, 16, 32), dtype) for _ in range(3))
    x[3, 5] = -0.0  # a row of signed zeros, plus an exactly cancelling sum
    y[3, 5] = 0.0
    gain, bias = (rng.standard_normal(32).astype(dtype) for _ in range(2))
    gain[:2] = (-0.0, 0.0)
    args = [Tensor(a, requires_grad=True) for a in (x, y, gain, bias)]
    out = T.add_layer_norm(*args)
    want_out, want_grads = _ref_add_layer_norm(x, y, gain, bias, g)
    assert out.values.dtype == dtype and out.values.tobytes() == want_out.tobytes()
    assert _kernel_grads(out, g) == [w.tobytes() for w in want_grads]


@pytest.mark.parametrize("shape", [(16, 16, 32), (16, 16, 128), (34, 1, 32), (34, 1, 128)],
                         ids=["desk", "wide", "desk-rows", "wide-rows"])
def test_add_layer_norm_gain_bias_grads_bit_equal_to_unbroadcast(shape):
    """The gain and bias gradients, one sum over the (rows, hidden) view, have
    the bytes of `_unbroadcast`'s sum over the leading axes, at the encoder's
    shapes and at the (rows, 1, hidden) shape of its last layer on the
    masked rows."""
    rng = np.random.Generator(np.random.PCG64(38))
    # finite values: a NaN in a row would make every column's sum NaN
    x, y, g = (rng.standard_normal(shape).astype(np.float32) for _ in range(3))
    gain, bias = (rng.standard_normal(shape[-1]).astype(np.float32) for _ in range(2))
    out = T.add_layer_norm(*(Tensor(a, requires_grad=True) for a in (x, y, gain, bias)))
    d = x + y
    d -= T._mean_last(d)
    xhat = d * (1.0 / np.sqrt(T._mean_last(np.square(d)) + 1e-5))
    want = [T._unbroadcast(g * xhat, gain.shape), T._unbroadcast(g, bias.shape)]
    assert _kernel_grads(out, g)[2:] == [w.tobytes() for w in want]


@quiet
@pytest.mark.parametrize("table_shape, ids_shape",
                         [((64, 128), (16, 16)), ((64, 32), (16, 16)), ((16, 16, 128), (34,)),
                          ((256, 128), (34, 1))],
                         ids=["token-wide", "token-desk", "per-row-keys", "masked-rows"])
def test_embedding_lookup_grad_bit_equal_to_row_scatter(table_shape, ids_shape):
    """The flat scatter-add of the backward has the bytes of np.add.at over
    the table's leading axis, with repeated ids, at the token table's shapes
    and at the encoder's gathers of the masked rows and of their samples'
    keys."""
    rng = np.random.Generator(np.random.PCG64(39))
    ids = rng.integers(0, table_shape[0], size=ids_shape)
    ids.reshape(-1)[:3] = ids.reshape(-1)[3]  # one id four times
    g = _with_specials(rng, ids_shape + table_shape[1:], np.float32)
    table = rng.standard_normal(table_shape).astype(np.float32)
    out = T.embedding_lookup(Tensor(table, requires_grad=True), ids)
    assert out.values.tobytes() == table[ids].tobytes()
    want = np.zeros(table_shape, dtype=np.float32)
    np.add.at(want, ids, g)
    assert _kernel_grads(out, g) == [want.tobytes()]


@quiet
@pytest.mark.parametrize("x_shape", [(16, 32), (16, 16, 32)], ids=["2d", "3d"])
def test_linear_bit_equal_to_formula(x_shape):
    rng = np.random.Generator(np.random.PCG64(33))
    x = _with_specials(rng, x_shape, np.float32)
    w, b = rng.standard_normal((32, 64)).astype(np.float32), _with_specials(rng, (64,), np.float32)
    g = rng.standard_normal(x_shape[:-1] + (64,)).astype(np.float32)
    out = T.linear(Tensor(x), Tensor(w), Tensor(b))
    x2, g2 = x.reshape(-1, 32), g.reshape(-1, 64)
    assert out.values.tobytes() == (x2 @ w + b).tobytes()
    want = [g2 @ w.T, x2.T @ g2, g2.sum(axis=0)]
    assert _kernel_grads(out, g) == [a.tobytes() for a in want]


def _ref_linear_per_sample(x, w, b, g):
    """Forward and backward of `linear` as numpy's stacked matmul runs them:
    one gemm per sample, and the weight gradient summed over the batch."""
    gw = np.matmul(np.swapaxes(x, -1, -2), g)
    gw = gw.sum(axis=0) if gw.ndim == 3 else gw
    grads = [np.matmul(g, np.swapaxes(w, -1, -2)), gw, g.sum(axis=tuple(range(g.ndim - 1)))]
    return np.matmul(x, w) + b, grads


WIDE = {"batch": 16, "seq": 16, "hidden": 128, "out": 512}  # prune-wide's ffn_in


@pytest.mark.parametrize("dims", [SMALL, DESK, WIDE, {**WIDE, "hidden": 512, "out": 128}],
                         ids=["small", "desk", "wide-ffn-in", "wide-ffn-out"])
def test_linear_3d_agrees_with_per_sample_formula(dims):
    """In float64 the row-view gemms give the per-sample result up to
    rounding: within 1e-12 of each result's largest magnitude."""
    rng = np.random.Generator(np.random.PCG64(35))
    batch, seq, n_in, n_out = dims["batch"], dims["seq"], dims["hidden"], dims["out"]
    x, g = rng.standard_normal((batch, seq, n_in)), rng.standard_normal((batch, seq, n_out))
    w, b = rng.standard_normal((n_in, n_out)), rng.standard_normal(n_out)
    out = T.linear(Tensor(x), Tensor(w), Tensor(b))
    want_out, want_grads = _ref_linear_per_sample(x, w, b, g)
    for got, want in zip([out.values, *out._backward(g)], [want_out, *want_grads]):
        assert got.shape == want.shape and got.dtype == np.float64
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@quiet
@pytest.mark.parametrize("n_in, n_out", [(32, 32), (32, 3), (128, 128), (128, 3)],
                         ids=["desk-pooler", "desk-head", "wide-pooler", "wide-head"])
def test_linear_2d_bytes_unchanged(n_in, n_out):
    """A 2-D input (the pooler and classify head on CLS states) runs the
    same products as the per-sample formula, so its bytes did not move."""
    rng = np.random.Generator(np.random.PCG64(36))
    x = _with_specials(rng, (16, n_in), np.float32)
    w = rng.standard_normal((n_in, n_out)).astype(np.float32)
    b = rng.standard_normal(n_out).astype(np.float32)
    g = rng.standard_normal((16, n_out)).astype(np.float32)
    out = T.linear(Tensor(x), Tensor(w), Tensor(b))
    want_out, want_grads = _ref_linear_per_sample(x, w, b, g)
    assert out.values.tobytes() == want_out.tobytes()
    assert _kernel_grads(out, g) == [a.tobytes() for a in want_grads]


@pytest.mark.parametrize("hidden, ffn, vocab", [(32, 64, 64), (128, 512, 64)],
                         ids=["desk", "wide"])
def test_linear_rows_independent_of_batch_mates(hidden, ffn, vocab):
    """Each sequence's output rows have the same bytes in a 64-sequence chunk
    as in a 16-sequence minibatch or alone, at every linear shape of the
    encoder and MLM head, seq 16. The task teacher's chunked cache relies on
    this."""
    rng = np.random.Generator(np.random.PCG64(37))
    for n_in, n_out in [(hidden, hidden), (hidden, ffn), (ffn, hidden), (hidden, vocab)]:
        x = rng.standard_normal((64, 16, n_in)).astype(np.float32)
        w = (rng.standard_normal((n_in, n_out)) * 0.02).astype(np.float32)
        b = (rng.standard_normal(n_out) * 0.02).astype(np.float32)
        chunk = T.linear(Tensor(x), Tensor(w), Tensor(b)).values
        for i, n in [(0, 16), (16, 16), (32, 16), (48, 16), (5, 1), (63, 1)]:
            part = T.linear(Tensor(x[i:i + n]), Tensor(w), Tensor(b)).values
            assert part.tobytes() == chunk[i:i + n].tobytes(), f"{n_in}x{n_out}, {n} from {i}"


def _ref_attention(q, k, v, mask_bias, heads, g):
    """Forward and backward of `attention` with the row max by `z.max`."""
    batch, seq, hidden = q.shape
    split = (batch, seq, heads, hidden // heads)
    qh, kh, vh = (t.reshape(split).transpose(0, 2, 1, 3) for t in (q, k, v))
    c = 1.0 / math.sqrt(split[3])
    z = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * c + mask_bias
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(q.shape)

    gh = g.reshape(split).transpose(0, 2, 1, 3)
    gs = np.matmul(gh, np.swapaxes(vh, -1, -2))
    gz = s * (gs - (gs * s).sum(axis=-1, keepdims=True)) * c
    gkt = np.matmul(np.swapaxes(qh, -1, -2), gz)
    grads = [merge(np.matmul(gz, kh)), merge(gkt.transpose(0, 1, 3, 2)),
             merge(np.matmul(np.swapaxes(s, -1, -2), gh))]
    return merge(np.matmul(s, vh)), grads


def _attention_mask_bias(rng, batch, heads, seq):
    """Per-head additive bias: padded keys in every batch row, one fully
    padded batch row, and score rows holding +-0, +-inf and NaN."""
    mask = _padded_mask_bias(batch, seq, np.float32)
    mask[1] = -1e9  # every key padded
    bias = np.broadcast_to(mask, (batch, heads, seq, seq)).copy()
    bias[2, 0, 3] = np.where(rng.random(seq) < 0.5, 0.0, -0.0)  # with q = 0 below
    bias[4, 1, 0, 5] = np.inf
    bias[4, 1, 1, :] = -np.inf
    bias[4, 1, 2, ::3] = -np.inf
    bias[5, 2, 7, 2] = np.nan
    bias[5, 3, 8, [0, 4]] = (np.nan, np.inf)
    return bias


@quiet
@pytest.mark.parametrize("dims", [DESK, {**DESK, "hidden": 128}], ids=["desk", "wide"])
def test_attention_bit_equal_to_formula(dims):
    batch, seq, hidden, heads = dims["batch"], dims["seq"], dims["hidden"], dims["heads"]
    rng = np.random.Generator(np.random.PCG64(34))
    q, k, v, g = (rng.standard_normal((batch, seq, hidden)).astype(np.float32)
                  for _ in range(4))
    q[2, 3] = np.where(rng.random(hidden) < 0.5, 0.0, -0.0)  # scores of +-0 in row 3
    k[6, :, :hidden // heads] = 0.0
    mask_bias = _attention_mask_bias(rng, batch, heads, seq)
    out = T.attention(*(Tensor(a, requires_grad=True) for a in (q, k, v)), mask_bias, heads)
    want_out, want_grads = _ref_attention(q, k, v, mask_bias, heads, g)
    assert np.isnan(want_out).any() and out.values.tobytes() == want_out.tobytes()
    assert _kernel_grads(out, g) == [w.tobytes() for w in want_grads]


def _ref_attention_per_sample(q, k, v, mask_bias, heads, g):
    """Forward and backward of attention, one sample and head at a time."""
    out, gq, gk, gv = np.zeros_like(q), np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    d = q.shape[2] // heads
    for b in range(q.shape[0]):
        for h in range(heads):
            c = slice(h * d, (h + 1) * d)
            qb, kb, vb, gb = q[b, :, c], k[b, :, c], v[b, :, c], g[b, :, c]
            z = qb @ kb.T / math.sqrt(d) + mask_bias[b, 0]
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            out[b, :, c] = p @ vb
            gp = gb @ vb.T
            gz = p * (gp - (gp * p).sum(axis=1, keepdims=True)) / math.sqrt(d)
            gq[b, :, c], gk[b, :, c], gv[b, :, c] = gz @ kb, gz.T @ qb, p.T @ gb
    return out, [gq, gk, gv]


@pytest.mark.parametrize("batch, queries, keys, hidden, heads",
                         [(3, 2, 5, 8, 2), (2, 7, 3, 6, 3), (34, 1, 16, 32, 4), (34, 1, 16, 128, 4)],
                         ids=["fewer-queries", "more-queries", "desk-rows", "wide-rows"])
def test_attention_own_query_length_agrees_with_per_sample_reference(batch, queries, keys,
                                                                     hidden, heads):
    """With q (batch, queries, hidden) against k, v (batch, keys, hidden),
    the output and all three gradients are within 1e-12 of the largest
    magnitude of a per-sample, per-head float64 reference."""
    rng = np.random.Generator(np.random.PCG64(40))
    q, g = (rng.standard_normal((batch, queries, hidden)) for _ in range(2))
    k, v = (rng.standard_normal((batch, keys, hidden)) for _ in range(2))
    mask_bias = _padded_mask_bias(batch, keys, np.float64)
    out = T.attention(Tensor(q), Tensor(k), Tensor(v), mask_bias, heads)
    want_out, want_grads = _ref_attention_per_sample(q, k, v, mask_bias, heads, g)
    for got, want in zip([out.values, *out._backward(g)], [want_out, *want_grads]):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
        loss = mean(out)
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
    backward(mean(T.mul(w, w)))
    np.testing.assert_allclose(w.grad, [1.0, 2.0])
