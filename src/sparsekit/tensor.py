"""Minimal reverse-mode autodiff over dense numpy tensors.

Only the primitives needed by the encoder model and its training losses are
implemented. Parameters are float32; every primitive also runs in float64,
so the finite-difference gradient oracle stays honest.
"""
from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence

import numpy as np


class SparsekitError(ValueError):
    """Base of every error sparsekit raises on bad input."""


class ShapeError(SparsekitError):
    """Input shapes invalid for a primitive."""


class UnsupportedPrimitiveError(SparsekitError):
    """Unknown init scheme."""


class ContractError(SparsekitError):
    """Operation precondition violated."""


GELU_COEFF = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
LN_EPS = 1e-5  # added to the variance in every layer norm


class Tensor:
    """Dense array plus an optional gradient buffer and autodiff tape links."""

    __slots__ = ("values", "grad", "requires_grad", "parents", "_backward")

    def __init__(self, values, requires_grad=False, parents=(), backward_fn=None):
        self.values = np.asarray(values)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.parents: tuple = tuple(parents)
        self._backward: Optional[Callable] = backward_fn

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self):
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_taping = True


@contextlib.contextmanager
def no_grad():
    """Build no autodiff tape inside the block: every primitive returns a
    plain leaf, so a frozen model's forward keeps no intermediates alive.
    Values are the same as with taping on. The switch is per process, not
    per thread."""
    global _taping
    outer, _taping = _taping, False
    try:
        yield
    finally:
        _taping = outer


def _node(values, parents, backward_fn) -> Tensor:
    if not _taping:
        return Tensor(values)
    return Tensor(values, parents=parents, backward_fn=backward_fn)


# -- primitives -----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.values + b.values
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return _node(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out = a.values * b.values
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.values, b.values
    return _node(out, (a, b), lambda g: (_unbroadcast(g * bv, a.shape), _unbroadcast(g * av, b.shape)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    out = np.matmul(a.values, b.values)
    av, bv = a.values, b.values

    def back(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), back)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.values.ndim)):
        raise ShapeError(f"transpose: axes {axes} invalid for shape {a.shape}")
    inv = tuple(np.argsort(axes))
    return _node(a.values.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return _node(a.values.reshape(shape), (a,), lambda g: (g.reshape(old),))


def gelu(a: Tensor) -> Tensor:
    # The tanh approximation 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))),
    # one ufunc per operator of that formula in its order, written into
    # arrays allocated here.
    x = a.values
    th = np.multiply(GELU_COEFF, x)
    np.multiply(th, x, out=th)
    np.multiply(th, x, out=th)
    np.add(x, th, out=th)
    np.multiply(_SQRT_2_OVER_PI, th, out=th)
    np.tanh(th, out=th)
    out = np.multiply(0.5, x)
    np.multiply(out, np.add(1.0, th), out=out)

    def back(g):
        # 0.5 (1 + th) + 0.5 x (1 - th^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2)
        dinner = np.multiply(3.0 * GELU_COEFF, x)
        np.multiply(dinner, x, out=dinner)
        np.add(1.0, dinner, out=dinner)
        np.multiply(_SQRT_2_OVER_PI, dinner, out=dinner)
        dx = np.add(1.0, th)
        np.multiply(0.5, dx, out=dx)
        t = np.multiply(0.5, x)
        np.multiply(t, np.subtract(1.0, np.multiply(th, th)), out=t)
        np.multiply(t, dinner, out=t)
        np.add(dx, t, out=dx)
        return (np.multiply(g, dx, out=dx),)

    return _node(out, (a,), back)


# softmax and log-softmax along the last axis, each shifted by the row max
def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax_last_axis(a: Tensor) -> Tensor:
    s = _softmax(a.values)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _node(s, (a,), back)


def layer_norm_last_axis(a: Tensor) -> Tensor:
    x = a.values
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv

    def back(g):
        gm = g.mean(axis=-1, keepdims=True)
        gxh = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gxh),)

    return _node(xhat, (a,), back)


# -- fused layer primitives -------------------------------------------------
#
# One tape node each for the model's linear layers, residual layer norms and
# attention cores. Forward and backward run the same array ops, in the same
# order, as the unfused primitives they replace, so results are bit-equal;
# the exception is `linear` on a 3-D input, which runs 2-D gemms over the
# row view (see its docstring).
# Elementwise steps write with `out=` into arrays the primitive allocated
# itself, never into an input, a gradient it was given or an array another
# node holds; the ufunc and its operand order stay those of the formula.

def _mean_last(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True) by numpy's own formula, minus its wrappers."""
    out = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(out, np.intp(a.shape[-1]), out=out, casting="unsafe")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x of shape (..., n_in), w (n_in, n_out) and b (n_out,).

    x is viewed as a (rows, n_in) matrix, so the output, the input gradient
    and the weight gradient are one 2-D gemm each over all rows, and the
    bias gradient one sum over them. For a 2-D x these are the formula's
    own products x @ w, g @ w.T and x.T @ g. For a 3-D x they replace
    numpy's one gemm per sample and the batch sum of per-sample weight
    gradients, and round differently from them. With numpy 2.4.6's OpenBLAS a
    row's output bytes do not depend on the other rows once there are 16 or
    more, at every shape of the desk and wide encoders; the task teacher's
    chunked cache relies on this. Fewer rows may round differently."""
    if x.values.ndim < 2 or w.values.ndim != 2 or x.shape[-1] != w.shape[0] \
            or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape}, {b.shape} do not chain")
    xv, wv = x.values, w.values
    x2 = xv.reshape(-1, wv.shape[0])

    def back(g):
        g2 = g.reshape(-1, wv.shape[1])
        return np.matmul(g2, wv.T).reshape(xv.shape), np.matmul(x2.T, g2), \
            np.add.reduce(g2, axis=0)

    out = np.matmul(x2, wv)
    np.add(out, b.values, out=out)
    return _node(out.reshape(xv.shape[:-1] + wv.shape[1:]), (x, w, b), back)


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """layer_norm(x + y) * gain + bias over the last axis."""
    if x.shape != y.shape or gain.shape != x.shape[-1:] or bias.shape != gain.shape:
        raise ShapeError(f"add-layer-norm: shapes {x.shape}, {y.shape}, {gain.shape}, "
                         f"{bias.shape} do not match")
    xhat = x.values + y.values
    xhat -= _mean_last(xhat)
    inv = _mean_last(np.square(xhat))
    np.add(inv, LN_EPS, out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(xhat, inv, out=xhat)
    gv = gain.values

    def back(g):
        # inv * (gx - mean(gx) - xhat * mean(gx * xhat)) for gx = g * gain
        gx = np.multiply(g, gv)
        t = np.multiply(gx, xhat)
        np.subtract(gx, _mean_last(gx), out=gx)
        np.multiply(xhat, _mean_last(t), out=t)
        np.subtract(gx, t, out=gx)
        dx = np.multiply(inv, gx, out=gx)
        # the gain and bias gradients, each one sum over the (rows, hidden) view
        gxh = np.multiply(g, xhat, out=t).reshape(-1, gv.size)
        return dx, dx, np.add.reduce(gxh, axis=0), np.add.reduce(g.reshape(-1, gv.size), axis=0)

    out = np.multiply(xhat, gv)
    np.add(out, bias.values, out=out)
    return _node(out, (x, y, gain, bias), back)


def attention(q: Tensor, k: Tensor, v: Tensor, mask_bias: np.ndarray, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of (batch, queries, hidden)
    query projections against (batch, keys, hidden) key and value
    projections: split heads, softmax(q k^T / sqrt(d_head) + mask_bias),
    weight v, merge heads. mask_bias is a constant array that broadcasts
    against the (batch, heads, queries, keys) scores. The output has q's
    shape; the encoder's last layer passes one query per row it keeps."""
    if q.values.ndim != 3 or k.values.ndim != 3 or v.shape != k.shape \
            or (q.shape[0], q.shape[2]) != (k.shape[0], k.shape[2]) or q.shape[2] % heads:
        raise ShapeError(f"attention: shapes {q.shape}, {k.shape}, {v.shape} with {heads} heads")
    d_head = q.shape[2] // heads

    def split(t):
        return t.values.reshape(t.shape[:2] + (heads, d_head)).transpose(0, 2, 1, 3)

    qh, kh, vh = split(q), split(k), split(v)
    c = 1.0 / math.sqrt(d_head)
    z = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * c + mask_bias
    # The row max over a key-major copy: numpy's max reduce over the last
    # axis runs once per row of (at the desk shape) 16 keys, while over the
    # leading axis it runs once per key across all rows. A max does not
    # depend on order, and NaN still propagates; only the sign of a zero
    # max may differ, which exp(z - max) does not see.
    zmax = np.maximum.reduce(np.moveaxis(z, -1, 0).copy(), axis=0)
    np.subtract(z, zmax[..., None], out=z)
    s = np.exp(z, out=z)
    np.divide(s, s.sum(axis=-1, keepdims=True), out=s)

    def merge(t, shape):
        return t.transpose(0, 2, 1, 3).reshape(shape)

    def back(g):
        gh = g.reshape(q.shape[:2] + (heads, d_head)).transpose(0, 2, 1, 3)
        gs = np.matmul(gh, np.swapaxes(vh, -1, -2))
        # gz = s * (gs - (gs * s).sum(axis=-1, keepdims=True)) * c
        gz = np.subtract(gs, (gs * s).sum(axis=-1, keepdims=True), out=gs)
        np.multiply(s, gz, out=gz)
        np.multiply(gz, c, out=gz)
        gkt = np.matmul(np.swapaxes(qh, -1, -2), gz)
        return merge(np.matmul(gz, kh), q.shape), merge(gkt.transpose(0, 1, 3, 2), k.shape), \
            merge(np.matmul(np.swapaxes(s, -1, -2), gh), v.shape)

    return _node(merge(np.matmul(s, vh), q.shape), (q, k, v), back)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """table[ids]: the table's leading-axis entries (rows of a 2-D table)
    at integer `ids`, shaped ids.shape + table.shape[1:]."""
    ids = np.asarray(ids)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding-lookup: id out of range for table of {table.shape[0]} rows")
    out = table.values[ids]

    def back(g):
        # np.add.at over the flat table and flat element indices: numpy's
        # 1-D fast path, 3-6x faster at the encoder's shapes than its
        # row-wise scatter, with each element's additions in the same order
        gt = np.zeros(table.shape, dtype=table.dtype)
        width = math.prod(table.shape[1:])
        flat = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        np.add.at(gt.reshape(-1), flat, g.reshape(-1))
        return (gt,)

    return _node(out, (table,), back)


def position_embedding(table: Tensor, batch: int, seq: int) -> Tensor:
    """Rows 0..seq-1 of `table` for each of `batch` rows: `embedding_lookup`
    with ids `arange(seq)` in every row, whose backward is a sum over rows."""
    if seq > table.shape[0]:
        raise ShapeError(f"position-embedding: {seq} positions for a table of {table.shape[0]} rows")
    out = np.repeat(table.values[None, :seq], batch, axis=0)

    def back(g):
        gt = np.zeros_like(table.values)
        rows = gt[:seq]
        for gb in g:  # from +0.0 in row order, as np.add.at adds them
            rows += gb
        return (gt,)

    return _node(out, (table,), back)


def cross_entropy_with_targets(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of one target class per row of
    (rows, classes) logits; 0 with no rows."""
    targets = np.asarray(targets)
    if logits.values.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross-entropy: logits {logits.shape} vs targets {targets.shape}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[1]:
        raise ShapeError(f"cross-entropy: target out of range for {logits.shape[1]} classes")
    rows = np.arange(targets.shape[0])
    n = max(rows.size, 1)
    logp = _log_softmax(logits.values)
    # the sum of the negated terms: +0.0 for no rows, where -sum would be -0.0
    loss = (-logp[rows, targets]).sum() / n

    def back(g):
        grad = np.exp(logp)
        grad[rows, targets] -= 1.0
        grad *= np.float64(1 / n)  # a float64 weight: each product rounds once to the dtype
        return (g * grad,)

    return _node(np.asarray(loss, dtype=logits.dtype), (logits,), back)


def scale(a: Tensor, c: float) -> Tensor:
    return _node(a.values * c, (a,), lambda g: (g * c,))


def take_rows(a: Tensor, index) -> Tensor:
    """a[:, index], as a copy: the entries at `index` along axis 1, such as
    each sequence's CLS state."""
    out = np.take(a.values, index, axis=1)

    def back(g):
        ga = np.zeros_like(a.values)
        ga[:, index] = g
        return (ga,)

    return _node(out, (a,), back)


# -- reverse pass ---------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(param) into every reachable requires_grad tensor.

    Calling twice without zeroing doubles the stored gradients.
    """
    if loss.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))

    adj = {id(loss): np.ones_like(loss.values)}
    for node in reversed(topo):
        g = adj.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._backward is None:
            continue
        for p, pg in zip(node.parents, node._backward(g)):
            if pg is None:
                continue
            prev = adj.get(id(p))
            adj[id(p)] = pg if prev is None else prev + pg


# -- initialization -------------------------------------------------------

def seeded_init(shape, scheme: str, seed: int) -> Tensor:
    """Deterministic float32 parameter init; PRNG is numpy PCG64 keyed by the seed."""
    shape = tuple(shape)
    if scheme == "zeros":
        vals = np.zeros(shape, dtype=np.float32)
    elif scheme == "ones":
        vals = np.ones(shape, dtype=np.float32)
    elif scheme == "normal-0.02":
        rng = np.random.Generator(np.random.PCG64(seed))
        vals = (rng.standard_normal(shape) * 0.02).astype(np.float32)
    else:
        raise UnsupportedPrimitiveError(f"unknown init scheme {scheme!r}")
    return Tensor(vals, requires_grad=True)

