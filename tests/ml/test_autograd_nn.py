"""Gradient checks for the autograd engine and NN layers."""

import numpy as np
import pytest

from repro.ml.autograd import Tensor, no_grad, parameter
from repro.ml.nn import (
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    TransformerBlock,
    binary_cross_entropy_with_logits,
)
from repro.ml.optim import Adam


def numeric_gradient(f, tensor, eps=1e-6):
    grad = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    for _ in it:
        index = it.multi_index
        original = tensor.data[index]
        tensor.data[index] = original + eps
        plus = float(f().data.sum())
        tensor.data[index] = original - eps
        minus = float(f().data.sum())
        tensor.data[index] = original
        grad[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(f, tensors, atol=1e-6):
    out = f()
    out.backward(np.ones_like(out.data))
    for tensor in tensors:
        numeric = numeric_gradient(f, tensor)
        assert np.allclose(tensor.grad, numeric, atol=atol), (
            f"gradient mismatch: max err "
            f"{np.abs(tensor.grad - numeric).max():.2e}"
        )
        tensor.grad = None


RNG = np.random.default_rng(0)


def make(shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


class TestPrimitiveGradients:
    def test_add_mul_broadcast(self):
        a, b = make((3, 4)), make((4,))
        check_gradients(lambda: (a * b + b) * 2.0, [a, b])

    def test_matmul_2d(self):
        a, b = make((3, 4)), make((4, 5))
        check_gradients(lambda: a @ b, [a, b])

    def test_matmul_batched(self):
        a, b = make((2, 3, 4)), make((2, 4, 5))
        check_gradients(lambda: a @ b, [a, b])

    def test_matmul_broadcast_weight(self):
        a, w = make((2, 3, 4)), make((4, 5))
        check_gradients(lambda: a @ w, [a, w])

    def test_reductions(self):
        a = make((3, 4))
        check_gradients(lambda: a.sum(axis=1), [a])
        check_gradients(lambda: a.mean(axis=0, keepdims=True), [a])
        check_gradients(lambda: a.sum(), [a])

    def test_reshape_transpose_getitem(self):
        a = make((2, 3, 4))
        check_gradients(lambda: a.reshape(6, 4).transpose(1, 0), [a])
        check_gradients(lambda: a[:, 0, :], [a])

    def test_nonlinearities(self):
        a = make((3, 4))
        check_gradients(lambda: a.tanh(), [a])
        check_gradients(lambda: a.sigmoid(), [a])
        check_gradients(lambda: a.gelu(), [a], atol=1e-5)
        check_gradients(lambda: a.exp(), [a])
        check_gradients(lambda: (a * a + 1.0).log(), [a])

    def test_softmax(self):
        a = make((3, 5))
        weights = Tensor(RNG.normal(size=(3, 5)))
        check_gradients(lambda: a.softmax(axis=-1) * weights, [a])

    def test_cat_and_broadcast_to(self):
        a, b = make((2, 3)), make((1, 3))
        check_gradients(
            lambda: Tensor.cat([a, b.broadcast_to((2, 3))], axis=0), [a, b]
        )

    def test_take_rows(self):
        table = make((6, 4))
        indices = np.array([0, 2, 2, 5])
        check_gradients(lambda: table.take_rows(indices), [table])

    def test_division(self):
        a, b = make((3,)), Tensor(np.array([2.0, 4.0, 8.0]), requires_grad=True)
        check_gradients(lambda: a / b, [a, b], atol=1e-5)


class TestGraphMechanics:
    def test_no_grad_blocks_graph(self):
        a = make((2, 2))
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_backward_on_nongrad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).backward()

    def test_gradient_accumulates_over_reuse(self):
        a = make((2,))
        out = a * 3.0 + a * 2.0
        out.backward(np.ones(2))
        assert np.allclose(a.grad, [5.0, 5.0])


class TestLayers:
    def test_linear_gradcheck(self):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng)
        x = make((5, 4))
        check_gradients(lambda: layer(x), [x, layer.weight, layer.bias])

    def test_layernorm_normalises(self):
        layer = LayerNorm(8)
        x = make((4, 8))
        out = layer(x)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_gradcheck(self):
        layer = LayerNorm(6)
        x = make((3, 6))
        check_gradients(lambda: layer(x), [x, layer.gamma, layer.beta], atol=1e-5)

    def test_attention_shape_and_gradflow(self):
        rng = np.random.default_rng(2)
        attention = MultiHeadSelfAttention(dim=8, n_heads=2, rng=rng)
        x = make((2, 5, 8))
        out = attention(x)
        assert out.shape == (2, 5, 8)
        out.sum().backward()
        assert x.grad is not None
        assert attention.query.weight.grad is not None

    def test_attention_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(dim=8, n_heads=3, rng=np.random.default_rng(0))

    def test_transformer_block_preserves_shape(self):
        rng = np.random.default_rng(3)
        block = TransformerBlock(dim=8, n_heads=2, ffn_hidden=16, rng=rng)
        block.set_training(False)
        x = make((2, 4, 8))
        assert block(x).shape == (2, 4, 8)

    def test_bce_matches_reference(self):
        logits = Tensor(np.array([0.0, 2.0, -2.0]), requires_grad=True)
        targets = np.array([1.0, 1.0, 0.0])
        loss = binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.data))
        reference = -np.mean(targets * np.log(p) + (1 - targets) * np.log(1 - p))
        assert float(loss.data) == pytest.approx(reference, abs=1e-9)

    def test_bce_gradcheck(self):
        logits = make((6,))
        targets = (RNG.random(6) > 0.5).astype(float)
        weights = RNG.uniform(0.5, 2.0, size=6)
        check_gradients(
            lambda: binary_cross_entropy_with_logits(logits, targets, weights),
            [logits],
            atol=1e-6,
        )


class TestOptimisers:
    def test_adam_minimises_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        optimizer = Adam([x], lr=0.1)
        for _ in range(300):
            loss = (x * x).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.abs(x.data).max() < 0.05

    def test_gradient_clipping_bounds_norm(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([x], lr=1e-3, grad_clip=0.5)
        (x * 1e6).sum().backward()
        optimizer._clip()
        assert np.linalg.norm(x.grad) <= 0.5 + 1e-9

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
