"""Finite-difference validation of every autodiff op.

Central differences with h = 1e-5; relative error normalized by
max(|analytic|, |numeric|, 1) must stay below 1e-4.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from tgtopo.autodiff import (
    LN_EPS,
    NonFiniteValueError,
    ShapeMismatchError,
    Tensor,
    _attention,
    _layer_norm,
    _relu_in_place,
    add,
    concat,
    cross_entropy_with_logits,
    dropout,
    embedding_add,
    layer_norm,
    matmul,
    mean_pool,
    relu,
    scale,
    softmax,
)

H = 1e-5
TOL = 1e-4


def fd_check(make_inputs, forward, n_trials=20, seed=0):
    """Compare analytic grads of a scalar loss against central differences.

    ``make_inputs(rng)`` returns a list of parameter Tensors; ``forward``
    maps them to a scalar Tensor.  Every entry of every input is probed.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_trials):
        params = make_inputs(rng)
        loss = forward(params)
        loss.backward()
        for p in params:
            assert p.grad is not None and p.grad.shape == p.data.shape
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + H
                hi = float(forward(params).data.reshape(-1)[0])
                flat[i] = orig - H
                lo = float(forward(params).data.reshape(-1)[0])
                flat[i] = orig
                numeric = (hi - lo) / (2 * H)
                analytic = gflat[i]
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
                worst = max(worst, rel)
                assert rel < TOL, f"rel err {rel} at entry {i}"
    return worst


def _reshape_row(t):
    # view a tensor as a 1 x n row while keeping the tape connected
    out = Tensor(t.data.reshape(1, -1), parents=(t,), backward=lambda g: (
        t._accumulate(g.reshape(t.data.shape)) if t.requires_grad else None
    ))
    return out


def weighted_sum(t, seed=100):
    """Scalar projection with fixed generic weights (keeps grads non-trivial)."""
    rng = np.random.default_rng(seed)
    w = Tensor(rng.normal(size=(t.data.size, 1)))
    return matmul(_reshape_row(t), w)


def _transpose(t):
    return Tensor(t.data.T, parents=(t,), backward=lambda g: (
        t._accumulate(g.T) if t.requires_grad else None
    ))


def attention_chain(x, heads, s):
    """The op chain that ``_attention`` computes, kept as its reference.

    One head's output was used as is (fusion attention); several were
    concatenated (the encoders).  Backward runs the nodes in reverse creation
    order, so the projections are made last head first, v before k before q:
    x then adds its gradients as q, k, v of head 0, then of head 1, ..., the
    order the fused op keeps."""
    outs, probs = [], []
    projections = [[matmul(x, w) for w in ws[::-1]][::-1] for ws in heads[::-1]][::-1]
    for q, k, v in projections:
        p = softmax(scale(matmul(q, _transpose(k)), s))
        probs.append(p.data)
        outs.append(matmul(p, v))
    return (outs[0] if len(outs) == 1 else concat(outs, axis=1)), probs


def _attention_inputs(rng, n, d, num_heads):
    x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    ws = [Tensor(rng.normal(size=(d, d // num_heads)) * 0.5, requires_grad=True)
          for _ in range(3 * num_heads)]
    return [x, *ws]


def _heads(ws):
    return [tuple(ws[i:i + 3]) for i in range(0, len(ws), 3)]


class TestFiniteDifferences:
    def test_add(self):
        def make(rng):
            return [
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            ]

        fd_check(make, lambda ps: weighted_sum(add(ps[0], ps[1])))

    def test_add_broadcast(self):
        def make(rng):
            return [
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=(4,)), requires_grad=True),
            ]

        fd_check(make, lambda ps: weighted_sum(add(ps[0], ps[1])))

    def test_scale(self):
        def make(rng):
            return [Tensor(rng.normal(size=(2, 5)), requires_grad=True)]

        fd_check(make, lambda ps: weighted_sum(scale(ps[0], -1.7)))

    def test_matmul(self):
        def make(rng):
            return [
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=(4, 2)), requires_grad=True),
            ]

        fd_check(make, lambda ps: weighted_sum(matmul(ps[0], ps[1])))

    def test_relu(self):
        def make(rng):
            # keep entries away from the kink at 0
            d = rng.normal(size=(3, 4))
            d[np.abs(d) < 0.05] += 0.1
            return [Tensor(d, requires_grad=True)]

        fd_check(make, lambda ps: weighted_sum(relu(ps[0])))

    def test_softmax(self):
        def make(rng):
            return [Tensor(rng.normal(size=(3, 5)), requires_grad=True)]

        fd_check(make, lambda ps: weighted_sum(softmax(ps[0])))

    def test_layer_norm(self):
        def make(rng):
            return [
                Tensor(rng.normal(size=(3, 6)), requires_grad=True),
                Tensor(rng.normal(size=(6,)) + 1.0, requires_grad=True),
                Tensor(rng.normal(size=(6,)), requires_grad=True),
            ]

        fd_check(make, lambda ps: weighted_sum(layer_norm(ps[0], ps[1], ps[2])))

    def test_dropout(self):
        def make(rng):
            return [Tensor(rng.normal(size=(4, 4)), requires_grad=True)]

        def forward(ps):
            # fixed mask seed so repeated forwards see the same mask
            mask_rng = np.random.default_rng(77)
            return weighted_sum(dropout(ps[0], 0.4, mask_rng, train=True))

        fd_check(forward=forward, make_inputs=make)

    def test_mean_pool(self):
        def make(rng):
            return [Tensor(rng.normal(size=(5, 3)), requires_grad=True)]

        fd_check(make, lambda ps: weighted_sum(mean_pool(ps[0], axis=0)))

    @pytest.mark.parametrize("axis, shapes", [(0, [(2, 3), (4, 3)]), (-1, [(3, 2), (3, 4)])])
    def test_concat(self, axis, shapes):
        def make(rng):
            return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]

        fd_check(make, lambda ps: weighted_sum(concat(ps, axis=axis)))

    def test_embedding_add(self):
        def make(rng):
            return [
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            ]

        fd_check(make, lambda ps: weighted_sum(embedding_add(ps[0], ps[1])))

    def test_cross_entropy(self):
        def make(rng):
            return [Tensor(rng.normal(size=(1, 4)), requires_grad=True)]

        fd_check(make, lambda ps: cross_entropy_with_logits(ps[0], 2))

    def test_composite_mlp(self):
        # one block exercising matmul -> add -> relu -> layer_norm -> softmax -> CE
        def make(rng):
            return [
                Tensor(rng.normal(size=(1, 5)), requires_grad=True),
                Tensor(rng.normal(size=(5, 4)) * 0.5, requires_grad=True),
                Tensor(rng.normal(size=(4,)), requires_grad=True),
                Tensor(np.ones(4) + rng.normal(size=4) * 0.1, requires_grad=True),
                Tensor(rng.normal(size=(4,)) * 0.1, requires_grad=True),
            ]

        def forward(ps):
            x, w, b, gain, bias = ps
            h = relu(add(matmul(x, w), b))
            h = layer_norm(h, gain, bias)
            return cross_entropy_with_logits(h, 1)

        fd_check(make, forward)


class TestFusedOpsMatchChain:
    """The attention kernel ``_attention`` gives the bytes of the op chain it
    replaces: the output, the probabilities, x's gradient (its parts summed in
    the chain's order) and every weight's gradient."""

    @staticmethod
    def _assert_kernel_is_chain(rng, n, d, num_heads, residual=False):
        ps = _attention_inputs(rng, n, d, num_heads)
        s = 1.0 / np.sqrt(d // num_heads)
        attended, probs = attention_chain(ps[0], _heads(ps[1:]), s)
        # residual: x also feeds an add, as the fusion views do, so x sums
        # the residual's gradient first, then q, k, v of each head
        out = add(ps[0], attended) if residual else attended
        weighted_sum(out, seed=n).backward()
        stack = np.array([[w.data for w in ws] for ws in _heads(ps[1:])])
        k_out, k_probs, grad = _attention(ps[0].data, stack, s)
        parts, g_stack = grad(attended.grad)
        g_x = ([attended.grad] if residual else []) + list(parts.reshape(-1, n, d))
        assert k_out.tobytes() == attended.data.tobytes()
        assert [p.tobytes() for p in k_probs] == [p.tobytes() for p in probs]
        assert functools.reduce(np.add, g_x).tobytes() == ps[0].grad.tobytes()
        assert ([g.tobytes() for g in g_stack.reshape(-1, d, d // num_heads)]
                == [w.grad.tobytes() for w in ps[1:]])

    @pytest.mark.parametrize("num_heads", [1, 2])
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    def test_attention(self, num_heads, n, residual):
        self._assert_kernel_is_chain(np.random.default_rng(31 + n + num_heads), n, 8, num_heads,
                                     residual)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [5, 92])
    def test_attention_at_encoder_width(self, num_heads, n):
        # d = 32 as in the encoders; with one head BLAS rounds g_k @ wk.T
        # differently once g_k is copied out of its transposed layout
        self._assert_kernel_is_chain(np.random.default_rng(41 + n + num_heads), n, 32, num_heads)


def layer_norm_oracle(a, gain, bias):
    """``_layer_norm`` as it was before it reused its buffers: the reference
    for the bytes of its output and both gradients."""
    d = a.shape[-1]
    centered = a - np.add.reduce(a, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(np.add.reduce(centered**2, axis=-1, keepdims=True) / d + LN_EPS)
    norm = centered * inv_std

    def grad(g):
        gh = g * gain
        term = (gh - np.add.reduce(gh, axis=-1, keepdims=True) / d
                - norm * (np.add.reduce(gh * norm, axis=-1, keepdims=True) / d))
        return term * inv_std, g * norm

    return norm * gain + bias, grad


# every class of float64 the ReLU must map as np.where does: signed zeros,
# NaN of either sign, infinities, subnormals and the normals around them
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
           2.225073858507201e-308, -2.225073858507201e-308, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1.0, -1.0, 1.7976931348623157e308, -1.7976931348623157e308]


class TestInPlaceKernels:
    """The kernels that write their temporaries into arrays they own give the
    bytes of the expressions they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=7),
                      elements=st.one_of(st.sampled_from(SPECIAL),
                                         st.floats(allow_nan=True, allow_infinity=True))))
    @example(np.array(SPECIAL))
    def test_relu_is_where_bit_for_bit(self, x):
        want = np.where(x > 0, x, 0.0)
        got = x.copy()
        assert _relu_in_place(got) is got
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(stack=st.sampled_from([(), (1,), (2,), (3,)]), n=st.integers(1, 9),
           d=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           magnitude=st.sampled_from([1e-3, 1.0, 1e3]))
    @example(stack=(), n=1, d=1, seed=0, magnitude=1.0)
    @example(stack=(2,), n=1, d=1, seed=1, magnitude=1.0)
    @example(stack=(2,), n=92, d=32, seed=2, magnitude=1.0)  # an encoder's stack
    def test_layer_norm_is_the_oracle_bit_for_bit(self, stack, n, d, seed, magnitude):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(*stack, n, d)) * magnitude
        gain, bias = (rng.normal(size=(*stack, 1, d) if stack else d) for _ in range(2))
        g = rng.normal(size=a.shape)
        inputs = [a, gain, bias, g]
        copies = [x.copy() for x in inputs]
        want, want_grad = layer_norm_oracle(a, gain, bias)
        got, grad = _layer_norm(a, gain, bias)
        assert got.tobytes() == want.tobytes()
        want_g = want_grad(g)
        for _ in range(2):  # the closure's arrays outlive a backward
            got_g = grad(g)
            assert [x.tobytes() for x in got_g] == [x.tobytes() for x in want_g]
            assert not np.shares_memory(got_g[0], got_g[1])
        assert got.tobytes() == want.tobytes()  # backward writes nothing it returned before
        assert [x.tobytes() for x in inputs] == [x.tobytes() for x in copies]


class TestOpSemantics:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.normal(size=(6, 3))))
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_cross_entropy_matches_log_softmax(self):
        logits = Tensor(np.array([[2.0, -1.0, 0.5]]), requires_grad=True)
        loss = cross_entropy_with_logits(logits, 0)
        probs = softmax(logits).data.reshape(-1)
        assert float(loss.data) == pytest.approx(-np.log(probs[0]))

    def test_cross_entropy_grad_is_probs_minus_onehot(self):
        logits = Tensor(np.array([[0.3, -0.2, 1.1]]), requires_grad=True)
        cross_entropy_with_logits(logits, 2).backward()
        probs = softmax(Tensor(logits.data)).data.reshape(-1)
        want = probs.copy()
        want[2] -= 1.0
        assert np.allclose(logits.grad.reshape(-1), want)

    def test_relu_values(self):
        out = relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        out = dropout(x, 0.5, np.random.default_rng(0), train=False)
        assert out is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.3, rng, train=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = add(x, x)  # dy/dx = 2
        weighted_sum(y, seed=5).backward()
        w = np.random.default_rng(5).normal(size=(2, 1)).reshape(-1)
        assert np.allclose(x.grad.reshape(-1), 2.0 * w)

    def test_add_parents_do_not_share_gradient_arrays(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((2, 3)), requires_grad=True)
        weighted_sum(add(a, b), seed=6).backward()
        before = b.grad.copy()
        a._accumulate(np.ones((2, 3)))
        assert np.array_equal(b.grad, before)
        assert not np.array_equal(a.grad, before)

    def test_backward_runs_each_node_once_in_reverse_creation_order(self):
        # a diamond whose depth-first order would differ: b feeds c and the
        # root, a feeds b and c; every node runs once, after all its consumers
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        a = scale(x, 3.0)
        b = relu(a)
        c = add(a, b)
        root = weighted_sum(add(c, scale(b, 0.5)), seed=7)
        ran = []
        for node in (a, b, c):
            node._backward = (lambda t, run: lambda g: ran.append(t) or run(g))(
                node, node._backward)
        root.backward()
        assert ran == [c, b, a]
        # d root / dx through a: c's 1 + relu' * (c's 1 + 0.5), times 3
        w = np.random.default_rng(7).normal(size=(2, 1)).reshape(-1)
        assert np.allclose(x.grad.reshape(-1), 3.0 * w * (1.0 + np.array([1.0, 0.0]) * 1.5))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            add(x, x).backward()

    def test_matmul_shape_check(self):
        with pytest.raises(ShapeMismatchError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_non_finite_logits_rejected(self):
        with pytest.raises(NonFiniteValueError):
            cross_entropy_with_logits(Tensor([[np.nan, 0.0]]), 0)

    def test_label_out_of_range(self):
        with pytest.raises(ShapeMismatchError):
            cross_entropy_with_logits(Tensor([[0.0, 1.0]]), 5)


# each op's input shapes, and the op on inputs of those shapes
OPS = {
    "add": ([(3, 4), (4,)], add),
    "scale": ([(3, 4)], lambda a: scale(a, 1.5)),
    "matmul": ([(3, 4), (4, 2)], matmul),
    "relu": ([(3, 4)], relu),
    "softmax": ([(3, 4)], softmax),
    "layer_norm": ([(3, 4), (4,), (4,)], layer_norm),
    "dropout": ([(3, 4)], lambda a: dropout(a, 0.5, np.random.default_rng(3), train=True)),
    "mean_pool": ([(3, 4)], mean_pool),
    "concat_axis_0": ([(2, 4), (3, 4), (1, 4)], lambda *ts: concat(ts, axis=0)),
    "concat_axis_-1": ([(3, 2), (3, 1), (3, 3)], lambda *ts: concat(ts, axis=-1)),
    "cross_entropy_with_logits": ([(1, 3)], lambda a: cross_entropy_with_logits(a, 1)),
}


@pytest.mark.parametrize("name", OPS)
def test_only_inputs_that_require_grad_get_a_gradient(name):
    # every mix of constant and trainable inputs: a constant keeps no gradient,
    # and a trainable input gets one of its own shape
    shapes, op = OPS[name]
    rng = np.random.default_rng(8)
    for flags in itertools.product((False, True), repeat=len(shapes)):
        inputs = [Tensor(rng.normal(size=s), requires_grad=f) for s, f in zip(shapes, flags)]
        weighted_sum(op(*inputs)).backward()
        for t, trainable in zip(inputs, flags):
            assert t.grad.shape == t.data.shape if trainable else t.grad is None
