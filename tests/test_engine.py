import numpy as np
import pytest
from scipy.special import erf

import pgot
from pgot import engine
from pgot.engine import (
    ContractError,
    ParameterError,
    Rng,
    ShapeError,
    Tape,
    Tensor,
)

from gradcheck import check_grads


def rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, shape).astype(np.float64)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.allclose(engine.matmul(a, b).data, [[5, 6], [7, 8]])

    def test_dot(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        assert np.allclose(engine.matmul(a, b).data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            engine.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient(self):
        rng = Rng(11)
        check_grads(
            lambda t: engine.sum_(engine.matmul(t["a"], t["b"])),
            {"a": rand(rng, 3, 4), "b": rand(rng, 4, 2)},
        )

    def test_batched_gradient(self):
        rng = Rng(12)
        check_grads(
            lambda t: engine.sum_(engine.matmul(t["a"], t["b"])),
            {"a": rand(rng, 2, 3, 4), "b": rand(rng, 2, 4, 2)},
        )


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = engine.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_no_overflow(self):
        out = engine.softmax(Tensor([1000.0, 0.0]), axis=0)
        assert np.allclose(out.data, [1.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = Rng(13)
        x = Tensor(rng.uniform(-50, 50, (20, 7)))
        out = engine.softmax(x, axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-5)

    def test_gradient(self):
        rng = Rng(14)
        w = rand(rng, 4, 5)
        check_grads(
            lambda t: engine.sum_(engine.mul(engine.softmax(t["x"], axis=1), Tensor(w))),
            {"x": rand(rng, 4, 5)},
        )


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor([[5.0, 5.0, 5.0]])
        out = engine.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-4)

    def test_already_standardized_row(self):
        x = Tensor([[-1.0, 1.0]])
        out = engine.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-2)

    def test_standardization(self):
        rng = Rng(15)
        x = Tensor(rng.uniform(-3, 3, (10, 16)))
        out = engine.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-5)
        assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-3)

    def test_affine_shape_error(self):
        with pytest.raises(ShapeError):
            engine.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_gradient(self):
        rng = Rng(16)
        w = rand(rng, 5, 6)
        check_grads(
            lambda t: engine.sum_(
                engine.mul(engine.layer_norm(t["x"], t["gain"], t["bias"]), Tensor(w))
            ),
            {"x": rand(rng, 5, 6), "gain": rand(rng, 6), "bias": rand(rng, 6)},
        )


class TestElementwise:
    def test_sigmoid_zero(self):
        assert engine.sigmoid(Tensor([0.0])).item() == 0.5

    def test_dropout_zero_rate_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = engine.dropout(x, 0.0, Rng(1), training=True)
        assert np.array_equal(out.data, x.data)

    def test_dropout_eval_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = engine.dropout(x, 0.5, Rng(1), training=False)
        assert np.array_equal(out.data, x.data)

    def test_dropout_scales_survivors(self):
        x = Tensor(np.ones((1000,)))
        out = engine.dropout(x, 0.25, Rng(2), training=True)
        kept = out.data != 0
        assert np.allclose(out.data[kept], 1 / 0.75)
        assert 0.6 < kept.mean() < 0.9

    def test_dropout_bad_rate(self):
        with pytest.raises(ParameterError):
            engine.dropout(Tensor([1.0]), 1.0, Rng(1), training=True)

    def test_concat(self):
        out = engine.concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert np.allclose(out.data, [1, 2, 3])

    def test_gelu_zero(self):
        assert engine.gelu(Tensor([0.0])).item() == 0.0

    def test_float32_erf_within_1e6_of_exact(self):
        x = np.concatenate(
            [np.linspace(-10.0, 10.0, 400_001), [0.0, -0.0, np.inf, -np.inf, np.nan]]
        ).astype(np.float32)
        approx = engine._erf_f32(x)
        exact = erf(x.astype(np.float64))
        assert approx.dtype == np.float32
        assert np.array_equal(np.isnan(approx), np.isnan(exact))
        finite = ~np.isnan(exact)
        assert np.max(np.abs(approx[finite] - exact[finite])) < 1e-6
        assert np.array_equal(approx[-5:-1], [0.0, 0.0, 1.0, -1.0])
        assert np.array_equal(np.signbit(approx[-5:-1]), [False, True, False, True])

    def test_gelu_erf_by_mode(self, monkeypatch):
        calls = []
        monkeypatch.setattr(engine, "erf", lambda v: calls.append(v.dtype) or erf(v))
        x = np.linspace(-4.0, 4.0, 101)
        engine.gelu(Tensor(x))
        assert calls == []
        with engine.float64_mode():
            out = engine.gelu(Tensor(x)).data
        assert calls == [np.float64]
        assert np.array_equal(out, x * (0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))))

    @pytest.mark.parametrize("op", ["sigmoid", "gelu", "exp", "softplus"])
    def test_unary_gradients(self, op):
        rng = Rng(hash(op) % 2**31)
        fn = getattr(engine, op)
        check_grads(lambda t: engine.sum_(fn(t["x"])), {"x": rand(rng, 3, 4)})

    def test_sqrt_gradient(self):
        rng = Rng(17)
        check_grads(
            lambda t: engine.sum_(engine.sqrt(t["x"])),
            {"x": rng.uniform(0.5, 2.0, (3, 4)).astype(np.float64)},
        )

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_gradients(self, op):
        rng = Rng(hash(op) % 2**31)
        fn = getattr(engine, op)
        b = rand(rng, 3, 4)
        b[np.abs(b) < 0.2] = 0.5  # keep divisors away from zero
        check_grads(
            lambda t: engine.sum_(fn(t["a"], t["b"])),
            {"a": rand(rng, 3, 4), "b": b},
        )

    def test_broadcast_gradient(self):
        rng = Rng(18)
        check_grads(
            lambda t: engine.sum_(engine.mul(t["a"], t["b"])),
            {"a": rand(rng, 3, 4), "b": rand(rng, 4)},
        )

    def test_transpose_concat_slice_gradient(self):
        rng = Rng(19)

        def loss(t):
            x = engine.transpose(t["x"])
            y = engine.concat([x, x], axis=0)
            return engine.sum_(engine.mul(y[1:3], y[1:3]))

        check_grads(loss, {"x": rand(rng, 3, 4)})

    def test_mean_gradient(self):
        rng = Rng(20)
        check_grads(lambda t: engine.mean_(engine.mul(t["x"], t["x"])), {"x": rand(rng, 4, 3)})

    @pytest.mark.parametrize("op", ["sum_", "mean_"])
    @pytest.mark.parametrize("axis", [0, -1, (0, 2), (-1, 0)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_axis_reduction_gradient(self, op, axis, keepdims):
        rng = Rng(21)
        fn = getattr(engine, op)

        def loss(t):
            r = fn(t["x"], axis=axis, keepdims=keepdims)
            return engine.sum_(engine.mul(r, r))

        check_grads(loss, {"x": rand(rng, 2, 3, 4)})


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = engine.sum_(x)
            tape.backward(loss)
        assert np.allclose(x.grad, [1, 1, 1])

    def test_square_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = engine.sum_(x * x)
            tape.backward(loss)
        assert np.allclose(x.grad, [2, 4])

    def test_reuse_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = engine.sum_(x + x)
            tape.backward(loss)
        assert np.allclose(x.grad, [2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = x * x
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_off_tape_loss_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractError):
            Tape().backward(engine.sum_(x))

    def test_grad_shapes_match_leaves(self):
        rng = Rng(21)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        with Tape() as tape:
            loss = engine.sum_(engine.gelu(engine.matmul(a, b)))
            tape.backward(loss)
        assert a.grad.shape == a.data.shape
        assert b.grad.shape == b.data.shape

    def test_no_grad_leaf_untouched(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 5.0])
        with Tape() as tape:
            loss = engine.sum_(x * c)
            tape.backward(loss)
        assert c.grad is None


@pytest.mark.parametrize("module", [engine, pgot], ids=["pgot.engine", "pgot"])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


class TestRng:
    def test_same_seed_identical_stream(self):
        a = Rng(42).uniform(-1, 1, (100,))
        b = Rng(42).uniform(-1, 1, (100,))
        assert np.array_equal(a, b)


class TestAllocCounter:
    def test_counts_tensor_bytes(self):
        engine.reset_alloc_stats()
        Tensor(np.zeros((10, 10)))
        stats = engine.alloc_stats()
        assert stats["bytes"] == 400  # f32
        assert stats["max_single"] == 400
        assert stats["count"] == 1
