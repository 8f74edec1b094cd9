"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Each ``Tensor`` wraps a float64 array; operations record closures on a tape
(the parent DAG) and ``backward`` replays them in reverse topological order.
Only the operations needed by the classifier are provided.
"""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    pass


class NonFiniteValueError(FloatingPointError):
    pass


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Populate gradients of every upstream tensor with requires_grad."""
        if self.data.size != 1:
            raise ShapeMismatchError("backward() requires a scalar output")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum gradient g down to the given broadcast source shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def backward(g):
        if a.requires_grad:
            a._accumulate(s * g)

    return Tensor(a.data * s, parents=(a,), backward=backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(np.where(mask, a.data, 0.0), parents=(a,), backward=backward)


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=-1, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            a._accumulate(out_data * (g - dot))

    return Tensor(out_data, parents=(a,), backward=backward)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply learned gain and shift."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if gain.data.shape != a.data.shape[-1:] or bias.data.shape != a.data.shape[-1:]:
        raise ShapeMismatchError("layer_norm gain/bias must match the last axis")
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    norm = centered * inv_std
    out_data = norm * gain.data + bias.data

    def backward(g):
        n = a.data.shape[-1]
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * norm, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            gh = g * gain.data
            # d norm / d a through mean and variance
            term = gh - gh.mean(axis=-1, keepdims=True) - norm * (gh * norm).mean(
                axis=-1, keepdims=True
            )
            a._accumulate(term * inv_std)

    return Tensor(out_data, parents=(a, gain, bias), backward=backward)


def dropout(a, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout with a seeded mask; identity when eval or rate == 0."""
    a = _as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatchError(f"dropout rate must be in [0,1), got {rate}")
    if not train or rate == 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep) / keep

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(a.data * mask, parents=(a,), backward=backward)


def mean_pool(a, axis: int = 0) -> Tensor:
    a = _as_tensor(a)
    n = a.data.shape[axis]

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.repeat(np.expand_dims(g / n, axis), n, axis=axis))

    return Tensor(a.data.mean(axis=axis), parents=(a,), backward=backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                t._accumulate(g[tuple(sl)])
            offset += size

    return Tensor(out_data, parents=tuple(tensors), backward=backward)


def embedding_add(tokens, table) -> Tensor:
    """Add a fixed (or learned) positional table to a token matrix."""
    tokens, table = _as_tensor(tokens), _as_tensor(table)
    if tokens.data.shape != table.data.shape:
        raise ShapeMismatchError(
            f"embedding_add shapes differ: {tokens.data.shape} vs {table.data.shape}"
        )
    return add(tokens, table)


def cross_entropy_with_logits(logits, label: int) -> Tensor:
    """Negative log-likelihood of ``label`` under softmax(logits); scalar."""
    logits = _as_tensor(logits)
    vec = logits.data.reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise NonFiniteValueError("non-finite logits")
    if not 0 <= label < vec.size:
        raise ShapeMismatchError(f"label {label} out of range for {vec.size} classes")
    shifted = vec - vec.max()
    logsumexp = np.log(np.exp(shifted).sum())
    probs = np.exp(shifted - logsumexp)
    loss = logsumexp - shifted[label]

    def backward(g):
        if logits.requires_grad:
            grad = probs.copy()
            grad[label] -= 1.0
            logits._accumulate(float(g) * grad.reshape(logits.data.shape))

    return Tensor(loss, parents=(logits,), backward=backward)
