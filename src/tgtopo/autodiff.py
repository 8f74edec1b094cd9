"""Minimal reverse-mode automatic differentiation over dense numpy arrays.

Each ``Tensor`` wraps a float64 array; operations record closures on a tape
(the parent DAG) and ``backward`` replays them in reverse creation order,
which runs a node after every node that consumes it.  Only the operations
needed by the classifier are provided.  An op computes its value and gives
``_node`` one gradient function of ``g`` per input; the node's one closure
feeds each input that requires a gradient, in the order given.  ``layer_norm``
keeps a closure of its own: one ``_layer_norm`` gradient call feeds two inputs.

Backward visits only the parents whose closure can run (``_nodes``), never
constant inputs such as token matrices or leaf parameters.  A tensor's first
gradient is stored as a copy, because one backward closure may hand the same
array to several parents; a tensor bound to a gradient arena
(``optim.pack``) copies it into its arena view instead.  Trainable tensors
are views into their model's flat parameter arena, so code that changes a
parameter's values writes into ``t.data`` in place rather than rebinding it.

Fused ops stand for a chain of the ops below as one tape node: in ``model``,
``TemporalGraphClassifier._structural_view``, ``encode`` and
``TemporalGraphClassifier._head`` (given a label, with the loss).  Their
forward and backward run the same numpy expressions on arrays of the same
layout as the chain would, and an input's gradient adds the chain's
contributions in a fixed order (the fusion views: the residual's, then q's,
k's and v's; a hidden SAGE layer: its W_self term, then its neighbours'), so
it is bit for bit the gradient of the unfused chain run in that order.

The kernels ``_layer_norm`` and ``_attention`` also take stacks of (S, N, d)
inputs and (S, ...) parameters, each slice byte-equal to an unstacked call
(``_attention`` is the one attention kernel: ``model.encode`` runs it on the
encoders' stacks, ``model.fusion_attention`` on the 3 view tokens):
``swapaxes(-1, -2)`` for ``.T``, heads on a stack axis of their own,
``sum(..., keepdims=True) / d`` for ``mean``.  Every matmul keeps the memory
layout its operands had in the chain (a transposed operand stays a transposed
view), because BLAS may round another layout differently.  The parameter
stacks are blocks of the arenas, laid out when the model is built
(``model._stack``), and ``accumulate_blocks`` lets a backward write a stacked
gradient straight into its gradient block.

A step allocates little beyond what its tape keeps: kernels write their
temporaries into arrays they made themselves (``_layer_norm``, ``_relu_in_place``,
``model.encode``'s bias adds), as the same float operations in the same order, so
the bytes are those of the expressions they replace.  They never write into an
input, into an array a closure reads later, or into a gradient they were handed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InputError, NumericalError


class ShapeMismatchError(InputError):
    pass


class NonFiniteValueError(NumericalError):
    pass


# creation stamps, shared by every tape: a node is stamped after its parents
_created = itertools.count()
LN_EPS = 1e-5  # added to the variance by every layer norm


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_view",
                 "_nodes", "_stamp")

    def __init__(self, data, requires_grad=False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._backward = backward
        self._grad_view = None  # arena slot the first gradient is written into
        self._nodes = [p for p in parents if p._backward is not None and p.requires_grad]
        self._stamp = next(_created)

    def _accumulate(self, g):
        if g.shape != self.data.shape:  # numpy would broadcast it silently
            raise ShapeMismatchError(f"gradient {g.shape} for a tensor of shape {self.data.shape}")
        if self.grad is not None:
            self.grad += g
        elif self._grad_view is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self._grad_view[...] = g
            self.grad = self._grad_view

    def backward(self):
        """Populate gradients of every upstream tensor with requires_grad.

        Runs the nodes upstream of this one in reverse creation order, so
        each runs after every node that consumes it."""
        if self.data.size != 1:
            raise ShapeMismatchError("backward() requires a scalar output")
        nodes, stack = {}, [self] if self._backward is not None else []
        while stack:
            node = stack.pop()
            if node._stamp not in nodes:
                nodes[node._stamp] = node
                stack += node._nodes
        self._accumulate(np.ones_like(self.data))
        for stamp in sorted(nodes, reverse=True):
            if nodes[stamp].grad is not None:
                nodes[stamp]._backward(nodes[stamp].grad)


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


def _node(out, *inputs) -> Tensor:
    """A tape node of value ``out`` over ``(tensor, grad)`` pairs: the tensors, in order,
    are its parents, and its backward gives each that requires a gradient ``grad(g)``."""

    def backward(g):
        for t, grad in inputs:
            if t.requires_grad:
                t._accumulate(grad(g))

    return Tensor(out, parents=tuple(t for t, _ in inputs), backward=backward)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(a.data + b.data, (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def scale(a, s: float) -> Tensor:
    a, s = _as_tensor(a), float(s)
    return _node(a.data * s, (a, lambda g: s * g))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(f"matmul {a.data.shape} @ {b.data.shape}")
    return _node(a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def _attention(x, w, scale, w_t=None):
    """Multi-head self-attention on a stack ``x`` (..., N, d) with the heads'
    q, k, v weights stacked as ``w`` (..., h, 3, d, k), op for op as the
    matmul/softmax/concat chain (``w_t``, if given, is ``w.swapaxes(-1, -2)``).
    Returns the head outputs, probabilities (..., h, N, N) and ``grad(g,
    out=None)``: the parts (..., h, 3, N, d) of x's gradient, in the order the
    chain added them, and w's gradient, written into ``out`` if given."""
    w_t = w.swapaxes(-1, -2) if w_t is None else w_t
    qkv = x[..., None, None, :, :] @ w
    q, k, v = qkv[..., 0, :, :], qkv[..., 1, :, :], qkv[..., 2, :, :]
    # the softmax works in place: fresh (..., h, N, N) temporaries of long
    # streams cost more in page faults than the arithmetic on them
    probs = q @ k.swapaxes(-1, -2)
    probs *= scale
    probs -= np.maximum.reduce(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=-1, keepdims=True)
    out = probs @ v

    def grad(g, out=None):
        # the chain copied each head's column block before using it
        g_out = np.ascontiguousarray(g.reshape(g.shape[:-1] + (w.shape[-4], -1)).swapaxes(-3, -2))
        g_scores = g_out @ v.swapaxes(-1, -2)  # the probabilities' gradient, then in place
        g_v = probs.swapaxes(-1, -2) @ g_out
        g_scores -= np.add.reduce(g_scores * probs, axis=-1, keepdims=True)
        g_scores *= probs
        g_scores *= scale
        g_k = (q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2)
        parts = np.empty(w.shape[:-2] + x.shape[-2:])
        g_w = np.empty(w.shape) if out is None else out
        x_t = x.swapaxes(-1, -2)[..., None, :, :]
        # three products each, so every operand keeps the chain's layout
        for i, g_i in enumerate((g_scores @ k, g_k, g_v)):
            np.matmul(g_i, w_t[..., i, :, :], out=parts[..., i, :, :])
            np.matmul(x_t, g_i, out=g_w[..., i, :, :])
        return parts, g_w

    return out.swapaxes(-3, -2).reshape(x.shape[:-1] + (-1,)), probs, grad


def accumulate_blocks(groups, views, fill):
    """``_accumulate`` of stacked gradients: the gradient-arena block
    ``views[j]`` tiles the tensors ``groups[j]``, and ``fill(out)`` writes the
    stacked gradient of ``groups[j]`` into ``out[j]``.  When no tensor has a
    gradient yet, ``out`` is the blocks themselves; else each tensor
    accumulates its slice of new arrays."""
    if any(t.grad is not None for ts in groups for t in ts):
        grads = [np.empty(view.shape) for view in views]
        fill(grads)
        for ts, g in zip(groups, grads):
            for t, g_t in zip(ts, g.reshape(len(ts), *ts[0].data.shape)):
                t._accumulate(g_t)
        return
    fill(views)
    for ts in groups:
        for t in ts:
            t.grad = t._grad_view


def _relu_in_place(x):
    """``np.where(x > 0, x, 0.0)`` bit for bit, written into ``x``: fmax maps NaN to 0.0,
    and + 0.0 makes the -0.0 it may keep 0.0."""
    return np.add(np.fmax(x, 0.0, out=x), 0.0, out=x)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    return _node(np.where(mask, a.data, 0.0), (a, lambda g: g * mask))


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = _as_tensor(a)
    exp = np.exp(a.data - np.maximum.reduce(a.data, axis=-1, keepdims=True))
    out = exp / np.add.reduce(exp, axis=-1, keepdims=True)
    return _node(out, (a, lambda g: out * (g - np.add.reduce(g * out, axis=-1, keepdims=True))))


def _layer_norm(a, gain, bias):
    """Layer norm over the last axis of ``a``; returns the output and
    ``grad(g)``: the gradient of ``a`` and the gain's before its row sum."""
    d = a.shape[-1]
    norm = a - np.add.reduce(a, axis=-1, keepdims=True) / d  # centered, then normalized
    out = np.square(norm)  # then the output
    inv_std = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + LN_EPS)
    norm *= inv_std

    def grad(g):
        gh = g * gain  # then a's gradient: d norm / d a through mean and variance
        g_gain = np.multiply(gh, norm)  # gh * norm, then norm's term, then the gain's gradient
        gh -= np.add.reduce(gh, axis=-1, keepdims=True) / d
        gh -= np.multiply(norm, np.add.reduce(g_gain, axis=-1, keepdims=True) / d, out=g_gain)
        gh *= inv_std
        return gh, np.multiply(g, norm, out=g_gain)

    return np.add(np.multiply(norm, gain, out=out), bias, out=out), grad


def layer_norm(a, gain, bias) -> Tensor:
    """Normalize over the last axis, with ``LN_EPS``, then apply learned gain and shift.
    Its own backward, not ``_node``'s: one ``_layer_norm`` gradient call feeds ``a`` and gain."""
    a, gain, bias = _as_tensor(a), _as_tensor(gain), _as_tensor(bias)
    if gain.data.shape != a.data.shape[-1:] or bias.data.shape != a.data.shape[-1:]:
        raise ShapeMismatchError("layer_norm gain/bias must match the last axis")
    out_data, grad = _layer_norm(a.data, gain.data, bias.data)

    def backward(g):
        g_a, g_gain = grad(g)
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g_gain, gain.data.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if a.requires_grad:
            a._accumulate(g_a)

    return Tensor(out_data, parents=(a, gain, bias), backward=backward)


def dropout_mask(rng: np.random.Generator, rate: float, shape) -> np.ndarray:
    """Inverted-dropout mask: each entry is 0 or 1 / (1 - rate)."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


def dropout(a, rate: float, rng: np.random.Generator, train: bool = True) -> Tensor:
    """Inverted dropout with a seeded mask; identity when eval or rate == 0."""
    a = _as_tensor(a)
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatchError(f"dropout rate must be in [0,1), got {rate}")
    if not train or rate == 0.0:
        return a
    mask = dropout_mask(rng, rate, a.data.shape)
    return _node(a.data * mask, (a, lambda g: g * mask))


def mean_pool(a, axis: int = 0) -> Tensor:
    a = _as_tensor(a)
    n = a.data.shape[axis]
    return _node(a.data.mean(axis=axis),
                 (a, lambda g: np.repeat(np.expand_dims(g / n, axis), n, axis=axis)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    ends = np.cumsum([t.data.shape[axis] for t in tensors])
    return _node(np.concatenate([t.data for t in tensors], axis=axis),  # axis may be < 0
                 *((t, lambda g, s=slice(end - t.data.shape[axis], end):
                    g.swapaxes(0, axis)[s].swapaxes(0, axis)) for t, end in zip(tensors, ends)))


def embedding_add(tokens, table) -> Tensor:
    """Add a fixed (or learned) positional table to a token matrix."""
    tokens, table = _as_tensor(tokens), _as_tensor(table)
    if tokens.data.shape != table.data.shape:
        raise ShapeMismatchError(
            f"embedding_add shapes differ: {tokens.data.shape} vs {table.data.shape}"
        )
    return add(tokens, table)


def _cross_entropy(vec, label):
    """The loss of the logits row ``vec`` at ``label`` and its gradient in them,
    softmax − one-hot; ``cross_entropy_with_logits`` and the model's head run this."""
    if not np.isfinite(vec).all():
        raise NonFiniteValueError("non-finite logits")
    if not 0 <= label < vec.size:
        raise ShapeMismatchError(f"label {label} out of range for {vec.size} classes")
    shifted = vec - np.maximum.reduce(vec)
    logsumexp = np.log(np.add.reduce(np.exp(shifted)))
    grad = np.exp(shifted - logsumexp)
    grad[label] -= 1.0
    return logsumexp - shifted[label], grad


def cross_entropy_with_logits(logits, label: int) -> Tensor:
    """Negative log-likelihood of ``label`` under softmax(logits); scalar."""
    logits = _as_tensor(logits)
    loss, grad = _cross_entropy(logits.data.reshape(-1), label)
    return _node(loss, (logits, lambda g: float(g) * grad.reshape(logits.data.shape)))
