import numpy as np
import pytest

from tgtopo.autodiff import ShapeMismatchError, Tensor, add, matmul
from tgtopo.optim import Adam


def _param(values):
    t = Tensor(np.array(values, dtype=np.float64), requires_grad=True)
    return t


def _reference_adam_step(params, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """Per-tensor Adam loop with the moments kept without their (1 - beta)
    factors, and those factors and the bias corrections folded into the step
    size and eps: the arena must reproduce it bit for bit."""
    scale = np.sqrt((1.0 - beta2**t) / (1.0 - beta2))
    alpha = lr * (1.0 - beta1) / (1.0 - beta1**t) * scale
    for name, (data, g) in params.items():
        if g is None:
            g = np.zeros_like(data)
        if weight_decay:
            data *= 1.0 - lr * weight_decay
        m[name] *= beta1
        m[name] += g
        v[name] *= beta2
        v[name] += g * g
        data -= alpha * (m[name] / (np.sqrt(v[name]) + eps * scale))


def _textbook_adam_step(params, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """Per-tensor Adam as Kingma & Ba's Algorithm 1 writes it, with decay
    subtracted: the folded form agrees with it to a few ulps."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, (data, g) in params.items():
        if g is None:
            g = np.zeros_like(data)
        if weight_decay:
            data -= lr * weight_decay * data
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        data -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


class TestAdam:
    def test_first_step_without_decay(self):
        # with zero moments the first bias-corrected step is lr * g/|g|
        p = _param([1.0, -2.0])
        p.grad = np.array([0.5, -3.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        expected = np.array([1.0, -2.0]) - 0.1 * np.sign([0.5, -3.0]) * (
            np.abs([0.5, -3.0]) / (np.abs([0.5, -3.0]) + 1e-8)
        )
        assert np.allclose(p.data, expected, atol=1e-7)

    def test_decoupled_decay_applied_before_moments(self):
        p = _param([10.0])
        p.grad = np.zeros(1)
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.01)
        opt.step()
        # zero gradient: only the decay shrink acts
        assert p.data[0] == pytest.approx(10.0 * (1 - 0.1 * 0.01))

    def test_two_step_hand_trace(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        p = _param([0.3])
        opt = Adam({"p": p}, lr=lr, weight_decay=0.0)
        x = 0.3
        m = v = 0.0
        for t, g in ((1, 0.7), (2, -0.2)):
            p.grad = np.array([g])
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert p.data[0] == pytest.approx(x, abs=1e-12)

    def test_none_grad_with_decay_still_shrinks(self):
        p = _param([2.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.5)
        opt.step()
        assert p.data[0] == pytest.approx(2.0 * (1 - 0.05))

    def test_none_grad_no_decay_is_noop(self):
        p = _param([2.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        opt.step()
        assert p.data[0] == 2.0

    def test_zero_grad_clears(self):
        p = _param([1.0])
        p.grad = np.array([5.0])
        opt = Adam({"p": p}, lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_shape_mismatch_rejected(self):
        p = _param([1.0, 2.0])
        p.grad = np.array([1.0])
        opt = Adam({"p": p}, lr=0.1)
        with pytest.raises(ShapeMismatchError):
            opt.step()

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            Adam({}, lr=0.0)

    def test_converges_on_quadratic(self):
        # minimize (x - 3)^2; gradient fed manually
        p = _param([0.0])
        opt = Adam({"p": p}, lr=0.1, weight_decay=0.0)
        for _ in range(500):
            p.grad = 2.0 * (p.data - 3.0)
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-3)


class TestFlatArena:
    def test_matches_per_tensor_reference_bit_for_bit(self):
        rng = np.random.default_rng(21)
        shapes = {"w": (3, 4), "b": (5,), "s": (), "t": (2, 1, 3), "u": (1, 7)}
        init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = {name: _param(x) for name, x in init.items()}
        hp = dict(lr=0.01, weight_decay=1e-3)
        opt = Adam(params, **hp)
        hp.update(beta1=0.9, beta2=0.999, eps=1e-8)  # the references take Adam's constants
        refs = [{name: x.copy() for name, x in init.items()} for _ in range(2)]
        moments = [[{name: np.zeros_like(x) for name, x in init.items()} for _ in range(2)]
                   for _ in range(2)]
        for step in range(1, 6):
            grads = {
                name: None if (step + i) % 3 == 0 else rng.normal(size=shapes[name])
                for i, name in enumerate(shapes)
            }
            for name, p in params.items():
                p.grad = grads[name]
            opt.step()
            for reference, ref, (m, v) in zip((_reference_adam_step, _textbook_adam_step),
                                              refs, moments):
                reference({n: (ref[n], grads[n]) for n in shapes}, m, v, step, **hp)
            for name, p in params.items():
                assert p.data.shape == shapes[name]
                assert p.data.tobytes() == refs[0][name].tobytes(), (step, name)
                np.testing.assert_array_max_ulp(p.data, refs[1][name], maxulp=step)  # ulp a step
        assert all(np.shares_memory(p.data, opt.flat) for p in params.values())


class TestGradientArena:
    def _linear_loss(self, params):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 4)))
        out = add(matmul(x, params["w"]), params["b"])
        return matmul(Tensor(np.ones((1, 3))), matmul(out, Tensor(np.ones((2, 1)))))

    def test_backward_writes_into_arena_and_step_matches_copy(self):
        rng = np.random.default_rng(9)
        init = {"w": rng.normal(size=(4, 2)), "b": rng.normal(size=(2,))}
        bound = {n: _param(x.copy()) for n, x in init.items()}
        by_hand = {n: _param(x.copy()) for n, x in init.items()}
        opt_bound, opt_hand = Adam(bound, lr=0.01), Adam(by_hand, lr=0.01)
        for _ in range(3):
            opt_bound.zero_grad()
            self._linear_loss(bound).backward()
            for name, p in bound.items():
                assert np.shares_memory(p.grad, opt_bound._grad)
                by_hand[name].grad = p.grad.copy()
            opt_bound.step()
            opt_hand.step()
            assert opt_bound.flat.tobytes() == opt_hand.flat.tobytes()
        # the step reads the arena's gradients but does not overwrite them
        for name, p in bound.items():
            assert p.grad.tobytes() == by_hand[name].grad.tobytes()

    def test_gradient_accumulates_in_arena(self):
        p = _param(np.ones((2, 3)))
        Adam({"p": p})
        add(p, p)._backward(np.full((2, 3), 0.5))
        assert np.array_equal(p.grad, np.ones((2, 3)))

    def test_arena_rejects_wrong_gradient_shape(self):
        # a (16,) gradient would broadcast silently into a (32, 16) view
        p = _param(np.zeros((32, 16)))
        Adam({"p": p})
        with pytest.raises(ShapeMismatchError):
            p._accumulate(np.ones(16))
        assert p.grad is None

    def test_arena_rejects_wrong_shape_after_first_gradient(self):
        # `grad += g` would broadcast a (16,) gradient into the (32, 16) one
        p = _param(np.zeros((32, 16)))
        Adam({"p": p})
        p._accumulate(np.ones((32, 16)))
        with pytest.raises(ShapeMismatchError):
            p._accumulate(np.ones(16))
        assert np.array_equal(p.grad, np.ones((32, 16)))

    def test_unbound_tensor_rejects_wrong_gradient_shape(self):
        p = _param(np.zeros((32, 16)))
        with pytest.raises(ShapeMismatchError):
            p._accumulate(np.ones((1, 16)))
        assert p.grad is None
