from types import SimpleNamespace

import numpy as np
import pytest

from sparsekit import optim
from sparsekit.optim import Adam
from sparsekit.pruning import restore_pattern
from sparsekit.tensor import ContractError, Tensor


def _param(values, name="w.weight"):
    t = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    return {name: t}


def test_adam_matches_reference():
    rng = np.random.Generator(np.random.PCG64(0))
    w0 = rng.standard_normal((4, 3)).astype(np.float32)
    grads = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(5)]

    params = _param(w0.copy())
    opt = Adam(params, weight_decay=0.0)
    for g in grads:
        params["w.weight"].grad = g
        opt.step(1e-2)

    # reference: textbook Adam in float64
    w = w0.astype(np.float64)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    for t, g in enumerate(grads, 1):
        g = g.astype(np.float64)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w -= 1e-2 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
    np.testing.assert_allclose(params["w.weight"].values, w, rtol=1e-5, atol=1e-6)


def test_weight_decay_only_on_weight_matrices():
    params = {
        "a.weight": Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True),
        "a.bias": Tensor(np.ones(2, dtype=np.float32), requires_grad=True),
        "embeddings.token": Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True),
    }
    opt = Adam(params, weight_decay=0.1)
    for p in params.values():
        p.grad = np.zeros_like(p.values)
    opt.step(1.0)
    assert (params["a.weight"].values < 1.0).all()
    np.testing.assert_array_equal(params["a.bias"].values, np.ones(2))
    # the token table ends in neither ".weight" nor gets decay
    np.testing.assert_array_equal(params["embeddings.token"].values, np.ones((3, 2)))


def test_zero_grad_skips_update():
    params = _param([[1.0, 2.0]])
    opt = Adam(params)
    opt.step(1.0)  # grad is None
    np.testing.assert_array_equal(params["w.weight"].values, [[1.0, 2.0]])
    assert opt.t == 1


def test_masked_positions_never_move():
    params = _param(np.ones((2, 2)))
    model = SimpleNamespace(parameters=params)
    opt = Adam(params, weight_decay=0.05)
    # build up momentum everywhere while unmasked
    for _ in range(3):
        params["w.weight"].grad = np.full((2, 2), 0.5, dtype=np.float32)
        opt.step(1e-2)
    # zero one position and freeze the pattern
    params["w.weight"].values[0, 0] = 0.0
    mask = {"w.weight": np.array([[False, True], [True, True]])}
    for _ in range(10):
        params["w.weight"].grad = np.full((2, 2), 0.5, dtype=np.float32)
        opt.step(1e-2)
        restore_pattern(model, mask)
        # stale momentum, decay, nothing may touch the masked slot
        assert params["w.weight"].values[0, 0] == 0.0
    assert (params["w.weight"].values.reshape(-1)[1:] != 1.0).all()


def _moments(opt, name):
    """The first and second moments of parameter `name`, shaped like it."""
    i = list(opt.parameters).index(name)
    lo, hi = opt._bounds[i], opt._bounds[i + 1]
    shape = opt.parameters[name].shape
    return opt._m[lo:hi].reshape(shape), opt._v[lo:hi].reshape(shape)


def _reference_step(params, state, t, lr, weight_decay, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as a loop over the parameters, one at a time."""
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        if weight_decay and name.endswith(".weight") and p.values.ndim == 2:
            update = update + lr * weight_decay * p.values
        p.values -= update


@pytest.mark.parametrize("run_size", [None, 1, 20])
def test_flat_step_bit_equal_to_per_parameter_loop(run_size, monkeypatch):
    """Adam's step against `_reference_step`."""
    if run_size is not None:  # runs of one parameter each, or a few parameters
        monkeypatch.setattr(optim, "RUN_SIZE", run_size)
    rng = np.random.Generator(np.random.PCG64(3))
    shapes = {"a.weight": (4, 3), "a.bias": (3,), "b.weight": (3, 5), "emb": (6, 2)}
    init = {n: rng.standard_normal(s).astype(np.float32) for n, s in shapes.items()}
    # signed zeros in decayed and undecayed tensors, and steps at learning
    # rate 0 (as in a rewound prune window)
    init["a.weight"][0] = -0.0
    init["a.bias"][:2] = (-0.0, 0.0)
    init["emb"][1:3] = -0.0
    flat = {n: Tensor(v.copy(), requires_grad=True) for n, v in init.items()}
    ref = {n: Tensor(v.copy(), requires_grad=True) for n, v in init.items()}
    state = {n: (np.zeros(s, np.float32), np.zeros(s, np.float32)) for n, s in shapes.items()}
    opt = Adam(flat, weight_decay=0.01)
    for t in range(1, 13):
        lr = 0.0 if t % 4 == 2 else 0.01 * t
        for n, s in shapes.items():
            g = None if (n == "b.weight" and t % 3 == 0) or (n == "emb" and t < 4) \
                else rng.standard_normal(s).astype(np.float32)
            flat[n].grad, ref[n].grad = g, g
        opt.step(lr)
        _reference_step(ref, state, t, lr, 0.01)
        for n in shapes:
            assert flat[n].values.tobytes() == ref[n].values.tobytes(), (t, n)
            m, v = _moments(opt, n)
            assert m.tobytes() == state[n][0].tobytes(), (t, n)
            assert v.tobytes() == state[n][1].tobytes(), (t, n)


def test_parameters_keep_their_own_arrays():
    params = {"w.weight": Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)}
    opt = Adam(params)
    params["w.weight"].values = np.full((2, 2), 3.0, dtype=np.float32)  # a caller may rebind
    params["w.weight"].grad = np.ones((2, 2), dtype=np.float32)
    opt.step(0.1)
    assert (params["w.weight"].values < 3.0).all()


def test_mixed_parameter_dtypes_rejected():
    params = {"a": Tensor(np.ones(2, dtype=np.float32), requires_grad=True),
              "b": Tensor(np.ones(2, dtype=np.float64), requires_grad=True)}
    with pytest.raises(ContractError, match="mix dtypes"):
        Adam(params)
