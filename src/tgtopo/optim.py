"""Adam with decoupled weight decay over one flat parameter arena; its betas and eps are fixed.

``pack`` copies parameters, in the order given, into one contiguous float64
array and rebinds each tensor's ``data`` to a reshaped view of it; each
tensor's ``_grad_view`` is its view of a gradient arena of the same layout,
into which ``Tensor._accumulate`` writes a first gradient.  A model packs its
parameters when it is built, each encoder parameter group as one (S, ...)
block of both arenas.  ``Adam`` updates the arena its parameters tile, in any
order, with a handful of vectorized updates instead of a Python loop over
tensors; ``pack`` refuses part of an arena (a new one would leave a model's
blocks stale).  A step sweeps five arrays of the arena's length: parameters,
gradients, the moments ``m`` and ``v``, and one scratch array that holds g²,
then the denominator, then the update.  Every element goes through the same
float operations in the same order as a per-tensor loop would, so results are
bit-identical to it.  Code that changes a packed parameter must write into
``t.data`` in place, not rebind it.  ``step`` copies only gradients set by
hand and leaves the arena's gradients intact.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import ShapeMismatchError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's settings, those Kingma & Ba (2015) suggest


def pack(tensors):
    """The parameter and gradient arenas that ``tensors`` tile, in any order:
    the ones they already live in, or, if none lives in one, new ones filled
    in the given order.  Tensors of an arena that do not tile one exactly
    raise ValueError, because repacking them would leave every other view of
    the old arena (a model's encoder blocks) stale."""
    tensors = list(tensors)
    size = sum(t.data.size for t in tensors)
    arenas = {(id(t.data.base), id(getattr(t._grad_view, "base", None))) for t in tensors}
    if any(t._grad_view is not None for t in tensors):
        flat = tensors[0].data.base
        if len(arenas) > 1 or getattr(flat, "size", 0) != size or len(set(tensors)) < len(tensors):
            raise ValueError("the tensors live in an arena but do not tile exactly one")
        return flat, tensors[0]._grad_view.base
    flat, grad = np.empty(size), np.empty(size)
    offset = 0
    for t in tensors:
        end = offset + t.data.size
        view = flat[offset:end].reshape(t.data.shape)
        view[...] = t.data
        t.data = view
        t._grad_view = grad[offset:end].reshape(view.shape)
        offset = end
    return flat, grad


class Adam:
    """Bias-corrected Adam with ``BETA1``, ``BETA2`` and ``EPS``; weight decay
    is decoupled and applied as p <- p * (1 - lr * wd) before the moment
    update.  ``m`` and ``v`` lack their (1 - beta) factors (m <- beta1 m + g,
    v <- beta2 v + g^2); those and the bias corrections fold into the step
    size and eps, so ``step`` makes 11 passes over the arena and one divide."""

    def __init__(self, params: dict, lr=1e-3, weight_decay=1e-4):
        if not lr > 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.flat, self._grad = pack(params.values())
        self._tmp = np.empty_like(self.flat)
        self._slots = [(name, t, t._grad_view) for name, t in params.items()]
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def step(self):
        for name, p, gv in self._slots:
            if p.grad is gv:
                continue
            if p.grad is None:
                gv[...] = 0.0
            elif p.grad.shape != gv.shape:
                raise ShapeMismatchError(f"gradient shape mismatch for {name}")
            else:
                gv[...] = p.grad
        self.step_count += 1
        t = self.step_count
        # lr * (m / bc1) / (sqrt(v / bc2) + eps) as in Kingma & Ba (2015), section 2
        scale = math.sqrt((1.0 - BETA2**t) / (1.0 - BETA2))
        alpha = self.lr * (1.0 - BETA1) / (1.0 - BETA1**t) * scale
        p, g, m, v, tmp = self.flat, self._grad, self.m, self.v, self._tmp
        if self.weight_decay:
            p *= 1.0 - self.lr * self.weight_decay
        m *= BETA1
        m += g
        v *= BETA2
        v += np.square(g, out=tmp)
        np.sqrt(v, out=tmp)
        tmp += EPS * scale
        p -= np.multiply(alpha, np.divide(m, tmp, out=tmp), out=tmp)
