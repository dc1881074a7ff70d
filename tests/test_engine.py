import contextlib
import ctypes
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

from pgot.model import ModelConfig, PgotModel
from pgot.training import relative_l2_loss

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


# the shapes where an unpadded float32 gemm gave rows position-dependent bits (112 of these 462 on OpenBLAS Haswell)
SWEEP_N = (5, 7, 13, 64, 257, 1023, 8191)
SWEEP_K = (2, 8, 16, 32, 34, 64)
SWEEP_C = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64)


class TestFloat32Product:
    def test_rows_keep_their_bits_at_every_position(self):
        failures = []
        for n in SWEEP_N:
            for k in SWEEP_K:
                for c in SWEEP_C:
                    for seed in range(3):
                        gen = np.random.default_rng((n, k, c, seed))
                        a = gen.uniform(-1.0, 1.0, (n, k)).astype(np.float32)
                        b = Tensor(gen.uniform(-1.0, 1.0, (k, c)))
                        out = engine.matmul(Tensor(a), b).data
                        perms = (gen.permutation(n), np.arange(n)[::-1], np.roll(np.arange(n), 1))
                        for perm in perms:
                            if not np.array_equal(engine.matmul(Tensor(a[perm]), b).data, out[perm]):
                                failures.append((n, k, c, seed))
                        # a stack behind a leading axis, against a shared and against a stacked right operand
                        stack = Tensor(np.stack([a, a[perms[0]]]))
                        for right in (b, Tensor(np.stack([b.data, b.data]))):
                            if not np.array_equal(engine.matmul(stack, right).data, [out, out[perms[0]]]):
                                failures.append((n, k, c, seed, "stacked"))
        assert not failures, f"{len(failures)} shapes: {failures[:5]}"

    def test_failed_probe_falls_back_to_64_bit(self, monkeypatch):
        padded = engine._padded_matmul

        def position_dependent(a, b):  # the first row's last bit depends on what sits there
            out = padded(a, b)
            out[0] = np.nextafter(out[0], np.float32(np.inf))
            return out

        monkeypatch.setattr(engine, "_PADDING_HOLDS", {})
        monkeypatch.setattr(engine, "_padded_matmul", position_dependent)
        gen = np.random.default_rng(5)
        a = gen.uniform(-1.0, 1.0, (100, 32)).astype(np.float32)
        b = gen.uniform(-1.0, 1.0, (32, 3)).astype(np.float32)
        out = engine.matmul(Tensor(a), Tensor(b)).data
        assert engine._PADDING_HOLDS == {(32, 1): False}
        assert np.array_equal(out, engine._accum_matmul(a, b, np.float32))

    def test_passed_probe_is_float32(self):
        gen = np.random.default_rng(6)
        a = gen.uniform(-1.0, 1.0, (100, 32)).astype(np.float32)
        b = gen.uniform(-1.0, 1.0, (32, 3)).astype(np.float32)
        out = engine.matmul(Tensor(a), Tensor(b)).data
        if engine._PADDING_HOLDS[(32, 1)]:
            assert np.array_equal(out, engine._padded_matmul(a, b))

    def test_accumulate64_is_the_64_bit_product(self):
        gen = np.random.default_rng(7)
        a = gen.uniform(0.0, 1.0, (8, 4099)).astype(np.float32)
        b = gen.uniform(-1.0, 1.0, (4099, 32)).astype(np.float32)
        g = gen.uniform(-1.0, 1.0, (8, 32)).astype(np.float32)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with Tape() as tape:
            out = engine.matmul(ta, tb, accumulate64=True)
            tape.backward(engine.sum_(engine.mul(out, Tensor(g))))
        assert np.array_equal(out.data, engine._accum_matmul(a, b, np.float32))
        assert np.array_equal(tb.grad, engine._accum_matmul(a.T, g, np.float32))

    def test_model_gradients_match_float64_mode(self):
        config = ModelConfig(layers=2, width=32, slices=8, scales=2, heads=2, seed=3)
        gen = Rng(21)
        coords = gen.uniform(0.0, 1.0, (4096, 2))
        field = gen.uniform(-1.0, 1.0, (4096, 1))
        target = np.sin(3.0 * coords[:, :1])

        def gradients(model, dtype):
            with Tape() as tape:
                pred = model.predict(field.astype(dtype), coords.astype(dtype))
                tape.backward(relative_l2_loss(pred, target.astype(dtype)))
            return np.concatenate([p.grad.astype(np.float64).ravel() for _, p in model.parameters()])

        model = PgotModel(config)
        grad32 = gradients(model, np.float32)
        with engine.float64_mode():
            wide = PgotModel(config)
            for (_, p), (_, q) in zip(wide.parameters(), model.parameters()):
                p.data = q.data.astype(np.float64)
            grad64 = gradients(wide, np.float64)
        # over the whole gradient: a scalar such as tau_raw sums terms that cancel, so alone it is looser
        assert np.linalg.norm(grad32 - grad64) <= 1e-6 * np.linalg.norm(grad64)


    def test_stacked_gradients_are_the_sum_of_per_sample_gradients(self):
        """Backward through a (B, N, d_a) stack: the summed losses' gradients are the per-sample sums."""
        gen = Rng(22)
        coords = gen.uniform(0.0, 1.0, (64, 2))
        fields = gen.uniform(-1.0, 1.0, (2, 64, 1))
        targets = [np.sin(3.0 * coords[:, :1]), np.cos(2.0 * coords[:, 1:])]

        def gradients(model, loss_fn):
            with Tape() as tape:
                tape.backward(loss_fn())
            grads = [p.grad.copy() for _, p in model.parameters()]
            model.zero_grad()
            return grads

        with engine.float64_mode():
            model = PgotModel(ModelConfig(seed=4))

            def stacked():
                pred = model.predict(fields, coords)
                return relative_l2_loss(pred[0], targets[0]) + relative_l2_loss(pred[1], targets[1])

            together = gradients(model, stacked)
            apart = [
                gradients(model, lambda b=b: relative_l2_loss(model.predict(fields[b], coords), targets[b]))
                for b in range(2)
            ]
        for (name, _), g, g0, g1 in zip(model.parameters(), together, *apart):
            assert np.allclose(g, g0 + g1, rtol=1e-10, atol=1e-12), name


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

    @staticmethod
    def outputs_and_gradient(x, axis):
        """Softmax's output and the gradient of ``sum(softmax(x) * w)`` for a fixed normal ``w``, as bytes."""
        t = Tensor(x, requires_grad=True)
        w = np.random.default_rng(16).normal(0.0, 1.0, x.shape).astype(np.float32)
        with np.errstate(all="ignore"), Tape() as tape:
            out = engine.softmax(t, axis=axis)
            tape.backward(engine.sum_(engine.mul(out, Tensor(w))))
        return out.data.tobytes(), t.grad.tobytes()

    @pytest.mark.parametrize(
        "shape, axis",
        [
            ((6, 8), -1), ((6, 8), 1), ((6, 8), 0), ((5, 1), -1), ((1, 5), 0), ((3, 2048, 8), -1), ((3, 2048, 8), 1),
            ((2, 8, 8), -1), ((256, 8), -1), ((8192, 8), -1), ((8192, 1), 1),
        ],
    )
    def test_per_slice_maximum_keeps_the_bits_of_the_reduction(self, shape, axis, monkeypatch):
        """Outputs and gradients are those of numpy's maximum reduction, on either side of the switch to one
        maximum per slice: the latent MHSA's (2, 8, 8) scores reduce, assignments of 256 rows and more loop."""
        k = shape[axis]
        last = np.random.default_rng(15).normal(0.0, 3.0, np.moveaxis(np.empty(shape), axis, -1).shape)
        rows = last.reshape(-1, k)  # a view: writes land in last
        if k > 1:
            rows[0] = 0.0
            rows[1] = -0.0
            rows[2] = 0.0
            rows[2, ::2] = -0.0  # a maximum of +0 and -0 in either order
            rows[3, :2] = -1.0
            rows[3, 2] = np.inf
            rows[4] = -np.inf
            rows[5, 1] = np.nan
        else:
            rows[0], rows[1], rows[2] = 0.0, -0.0, np.nan
        x = np.ascontiguousarray(np.moveaxis(last, -1, axis), dtype=np.float32)
        got = self.outputs_and_gradient(x, axis)
        monkeypatch.setattr(engine, "_max_keepdims", lambda a, axis: a.max(axis, keepdims=True))
        assert got == self.outputs_and_gradient(x, axis)


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

    @pytest.mark.parametrize("mode", ["float32", "float64_mode"])
    def test_sigmoid_is_the_two_branch_formula_bit_for_bit(self, mode):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 88.0, -88.0, 104.0, -104.0, 1e-45, -1e-45]
        with engine.float64_mode() if mode == "float64_mode" else contextlib.nullcontext():
            x = Tensor(np.concatenate([np.random.default_rng(3).normal(0.0, 30.0, 4096), edges]))
            out = engine.sigmoid(x).data
        e = np.exp(-np.abs(x.data))
        ref = np.where(x.data >= 0, 1 / (1 + e), e / (1 + e))
        assert out.dtype == ref.dtype == x.data.dtype
        assert out.tobytes() == ref.tobytes()

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
        approx = 2 * engine._half_erf_f32(x)
        assert approx.tobytes() == _copysign_erf_f32(x).tobytes()
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

    def test_default_transpose_swaps_the_last_two_axes(self):
        x = rand(Rng(23), 2, 3, 4)
        assert np.array_equal(engine.transpose(Tensor(x)).data, np.swapaxes(x, -1, -2).astype(np.float32))
        weights = rand(Rng(24), 2, 4, 3)
        check_grads(lambda t: engine.sum_(engine.mul(engine.transpose(t["x"]), Tensor(weights))), {"x": x})

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

    def test_loss_of_another_tape_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape_a:
            loss = engine.sum_(x * x)
        with pytest.raises(ContractError, match="not recorded on this tape"):
            Tape().backward(loss)
        tape_a.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_leaf_loss_rejected(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            engine.sum_(x * x)
            with pytest.raises(ContractError, match="not recorded on this tape"):
                tape.backward(x)

    def test_grad_shapes_match_leaves(self):
        rng = Rng(21)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        with Tape() as tape:
            loss = engine.sum_(engine.gelu(engine.matmul(a, b)))
            tape.backward(loss)
        assert a.grad.shape == a.data.shape
        assert b.grad.shape == b.data.shape

    def test_output_off_the_loss_path_skipped(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            unused = engine.exp(x)  # recorded on the tape, but feeds nothing the loss uses
            loss = engine.sum_(x * x)
            tape.backward(loss)
        assert np.array_equal(x.grad, [2.0, 4.0])
        assert unused.grad is None

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


# ops whose numpy result may be a strided view or need a cast: Tensor.__init__ alone makes it C-contiguous in the storage dtype
LAYOUT_OPS = {
    "transpose": lambda t: engine.transpose(t, (2, 0, 1)),
    "strided-getitem": lambda t: t[::2, :, 1::2],
    "reshape-of-transpose": lambda t: engine.reshape(engine.transpose(t), (-1, 4)),
    "sigmoid": engine.sigmoid,
    "softplus": engine.softplus,
    "softmax": lambda t: engine.softmax(t, axis=1),
}


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
@pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
def test_op_output_is_contiguous_in_the_storage_dtype(mode, op):
    with engine.float64_mode() if mode == "float64_mode" else contextlib.nullcontext():
        x = Tensor(np.random.default_rng(0).uniform(-3.0, 3.0, (4, 6, 8)))
        out = LAYOUT_OPS[op](x)
        assert out.data.dtype == (np.float64 if mode == "float64_mode" else np.float32)
    assert out.data.flags.c_contiguous


class TestAllocCounter:
    def test_counts_tensor_bytes(self):
        engine.reset_alloc_stats()
        Tensor(np.zeros((10, 10)))
        stats = engine.alloc_stats()
        assert stats["bytes"] == 400  # f32
        assert stats["max_single"] == 400
        assert stats["count"] == 1


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except TypeError:  # no C library handle
        return False


def _default_fwd_bwd(n: int):
    """One taped fwd+bwd of the default config on a fixed n-point cloud, as a function."""
    gen = np.random.default_rng(0)
    coords = gen.uniform(0.0, 1.0, (n, 2))
    field = gen.uniform(-1.0, 1.0, (n, 1))
    model = PgotModel(ModelConfig())

    def fwd_bwd():
        with Tape() as tape:
            tape.backward(relative_l2_loss(model.predict(field, coords), np.sin(coords[:, :1])))
        model.zero_grad()

    return fwd_bwd


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_second_large_pass_reuses_freed_memory():
    import resource

    fwd_bwd = _default_fwd_bwd(2048)
    fwd_bwd()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fwd_bwd()
    # with glibc's default thresholds the freed tape goes back to the kernel: about 6,800 faults here
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 500


def test_fwdbwd_traced_peak_per_point():
    """One taped fwd+bwd of the default config at N=2048 holds at most 8,000 B per point at its peak."""
    n = 2048
    fwd_bwd = _default_fwd_bwd(n)
    fwd_bwd()  # warm-up: the matmul padding probes run once per shape
    tracemalloc.start()
    try:
        fwd_bwd()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 7,600 B here; a GELU record that keeps its input and cdf reads about 9,270 B,
    # and a tape that keeps every op output alive about 13,700 B
    assert peak / n <= 8_000


@contextlib.contextmanager
def _no_cyclic_gc():
    """Arrays must be freed by reference counting alone, so a reference cycle would show."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestTapeFreesWhatBackwardDoesNotRead:
    def _layer(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-1.0, 1.0, (16, 4)))
        w = Tensor(rng.uniform(-1.0, 1.0, (4, 8)), requires_grad=True)
        b = Tensor(rng.uniform(-1.0, 1.0, (8,)), requires_grad=True)
        return x, w, b

    def test_product_that_feeds_only_an_add_is_freed(self):
        x, w, b = self._layer()
        with _no_cyclic_gc(), Tape() as tape:
            h = engine.matmul(x, w)
            ref = weakref.ref(h.data)
            y = engine.add(h, b)
            del h
            assert ref() is None
            tape.backward(engine.sum_(y))
        assert w.grad is not None and b.grad is not None

    def test_gelu_keeps_only_its_derivative(self):
        x, w, b = self._layer()
        with _no_cyclic_gc(), Tape() as tape:
            h = engine.add(engine.matmul(x, w), b)
            ref = weakref.ref(h.data)
            y = engine.gelu(h)
            del h
            assert ref() is None
            bwd = tape._records[-1][2]
            kept = [c.cell_contents for c in bwd.__closure__ if isinstance(c.cell_contents, np.ndarray)]
            assert len(kept) == 1 and kept[0].shape == y.shape
            kept_ref = weakref.ref(kept[0])
            del bwd, kept
            assert kept_ref() is not None
            tape.backward(engine.sum_(y))
            assert kept_ref() is None
        assert w.grad is not None


# every op in engine.__all__ that records, called so that it does
RECORDING_OPS = {
    "matmul": lambda t: engine.matmul(t, engine.transpose(t)),
    "transpose": engine.transpose,
    "reshape": lambda t: engine.reshape(t, (-1,)),
    "concat": lambda t: engine.concat([t, t], axis=0),
    "add": lambda t: engine.add(t, t),
    "sub": lambda t: engine.sub(t, t),
    "mul": lambda t: engine.mul(t, t),
    "div": lambda t: engine.div(t, engine.exp(t)),
    "neg": engine.neg,
    "sigmoid": engine.sigmoid,
    "gelu": engine.gelu,
    "exp": engine.exp,
    "sqrt": lambda t: engine.sqrt(engine.exp(t)),
    "softplus": engine.softplus,
    "clip_min": lambda t: engine.clip_min(t, 0.0),
    "sum_": engine.sum_,
    "softmax": engine.softmax,
    "layer_norm": lambda t: engine.layer_norm(t, Tensor(np.ones(3), requires_grad=True),
                                              Tensor(np.zeros(3), requires_grad=True)),
    "dropout": lambda t: engine.dropout(t, 0.5, Rng(0), training=True),
}
# mean_ records through sum_ and mul
NOT_RECORDING = {
    "Tensor", "Tape", "Rng", "ShapeError", "ParameterError", "ContractError", "float64_mode",
    "reset_alloc_stats", "alloc_stats", "mean_",
}


@pytest.fixture
def recorded(monkeypatch):
    """The arguments of every ``Tape.record`` call; the tape gets a wrapper of each closure, as from the span tracer."""
    calls = []
    record = Tape.record

    def spy(tape, out, parents, backward_fn):
        calls.append((out, parents, backward_fn))
        return record(tape, out, parents, lambda g: backward_fn(g))

    monkeypatch.setattr(Tape, "record", spy)
    return calls


def test_recording_ops_cover_engine_all():
    assert set(RECORDING_OPS) | NOT_RECORDING == set(engine.__all__)


@pytest.mark.parametrize("op", sorted(RECORDING_OPS))
def test_record_gets_tensors_and_a_closure_named_after_the_op(recorded, op):
    """The span tracer wraps ``Tape.record(out, parents, backward_fn)`` and names the op from the closure."""
    x = Tensor(np.random.default_rng(1).uniform(0.5, 1.5, (2, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(engine.sum_(RECORDING_OPS[op](x)))
    out, parents, backward_fn = next(c for c in recorded if c[2].__qualname__.startswith(f"{op}."))
    assert isinstance(out, Tensor)
    assert type(parents) is tuple and all(isinstance(p, Tensor) for p in parents)
    assert x.grad is not None and x.grad.shape == x.shape


@pytest.mark.parametrize("needs", ["a", "b", "both"])
def test_matmul_computes_only_the_gradients_received(recorded, needs):
    """A constant operand gets no gradient computed; the one returned keeps its bits."""
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-1.0, 1.0, (5, 4)), requires_grad=needs in ("a", "both"))
    b = Tensor(rng.uniform(-1.0, 1.0, (4, 3)), requires_grad=needs in ("b", "both"))
    g = rng.uniform(-1.0, 1.0, (5, 3)).astype(np.float32)
    with Tape():
        engine.matmul(a, b)
    ga, gb = recorded[0][2](g)
    assert (ga is None) == (needs == "b")
    assert (gb is None) == (needs == "a")
    if ga is not None:
        assert np.array_equal(ga, np.matmul(g, b.data.T))
    if gb is not None:
        assert np.array_equal(gb, np.matmul(a.data.T, g))


def _mode(mode):
    return engine.float64_mode() if mode == "float64_mode" else contextlib.nullcontext()


def _copysign_erf_f32(x):
    """The float32 erf over the whole array, its sign copied with ``np.copysign``."""
    t = np.abs(x)
    t *= np.float32(0.3275911)
    t += 1.0
    np.reciprocal(t, out=t)
    y = t * np.float32(1.061405429)
    for c in (-1.453152027, 1.421413741, -0.284496736, 0.254829592):
        y += np.float32(c)
        y *= t
    np.multiply(x, x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    y *= t
    np.subtract(1.0, y, out=y)
    return np.copysign(y, x, out=y)


def _unblocked_gelu(x):
    """GELU and its derivative over the whole array at once: the bits the blocked kernel must give."""
    cdf = x * engine._INV_SQRT2
    cdf = _copysign_erf_f32(cdf) if x.dtype == np.float32 else erf(cdf)
    cdf += 1.0
    cdf *= 0.5
    d = x * x
    d *= -0.5
    np.exp(d, out=d)
    d *= engine._INV_SQRT2PI
    d *= x
    d += cdf
    return x * cdf, d


def _gelu_points(dtype):
    """+-0, a sweep of |x| up to 10, and neighbours of the erf argument 1 (x = sqrt(2)),
    where scipy's erf changes formula, and of tiny and subnormal inputs."""
    root2 = np.array(np.sqrt(2.0), dtype)
    edges = [root2, np.nextafter(root2, dtype(0)), np.nextafter(root2, dtype(2)), dtype(1e-30),
             np.finfo(dtype).smallest_subnormal, dtype(10.0)]
    edges = np.array(edges, dtype)
    sweep = np.random.default_rng(5).uniform(-10.0, 10.0, 4096).astype(dtype)
    return np.concatenate([[0.0, -0.0], edges, -edges, sweep]).astype(dtype)


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
def test_gelu_gradient_is_the_derivative_times_g_bit_for_bit(recorded, mode):
    """The recorded derivative times g keeps the bits of computing cdf + x*pdf in backward."""
    with _mode(mode):
        dtype = np.float64 if mode == "float64_mode" else np.float32
        x = _gelu_points(dtype)
        g = np.random.default_rng(6).uniform(-2.0, 2.0, x.shape).astype(dtype)
        with Tape():
            out = engine.gelu(Tensor(x, requires_grad=True)).data
        (grad,) = recorded[0][2](g)
    want, d = _unblocked_gelu(x)
    d *= g
    assert grad.dtype == out.dtype == dtype
    assert np.array_equal(out, want)
    assert np.array_equal(grad, d)
    assert np.array_equal(np.signbit(grad), np.signbit(d))


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
def test_gelu_off_the_tape_records_nothing_and_keeps_its_bits(recorded, mode):
    with _mode(mode):
        x = _gelu_points(np.float32)
        free = engine.gelu(Tensor(x, requires_grad=True))
        with Tape():
            const = engine.gelu(Tensor(x))
            assert recorded == []
            taped = engine.gelu(Tensor(x, requires_grad=True))
    assert len(recorded) == 1
    assert free._node is None and const._node is None and taped._node is not None
    assert free.data.tobytes() == const.data.tobytes() == taped.data.tobytes()


# signed zeros, infinities, NaNs of either sign, subnormals and the largest finite values
_SPECIAL_F32 = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45, 1e-40, -1e-40, 3.4e38, -3.4e38], np.float32
)


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
@pytest.mark.parametrize(
    "shape",
    # one block per 2^16 elements: whole blocks, a partial last block, a stack, a row wider than a block,
    # 1-D, 0-d (a Tensor stores 0-d values as shape (1,)), one partial block and exactly one block
    [(8192, 64), (1025, 64), (3, 2048, 48), (1, 70000), (100_003,), (), (256, 16), (1024, 64), (2048, 32)],
)
def test_gelu_blocks_keep_the_bits_of_one_pass(recorded, mode, shape):
    """Output and recorded derivative, recorded or not, are bitwise those of the unblocked formula."""
    assert engine._GELU_BLOCK == 1 << 16
    with _mode(mode), np.errstate(all="ignore"):
        x = Tensor(np.random.default_rng(9).normal(0.0, 4.0, shape)).data
        flat = x.reshape(-1)
        # special values at the start, on both sides of every block edge and at the end
        for edge in [0, *range(engine._GELU_BLOCK - 6, flat.size - 6, engine._GELU_BLOCK), flat.size - 12]:
            if edge >= 0:
                flat[edge:edge + 12] = _SPECIAL_F32[: flat.size - edge]
        out, d = _unblocked_gelu(x)
        free = engine.gelu(Tensor(x)).data
        with Tape():
            taped = engine.gelu(Tensor(x, requires_grad=True)).data
        (derivative,) = recorded[0][2](np.ones_like(x))
    assert free.dtype == taped.dtype == derivative.dtype == x.dtype
    assert free.tobytes() == out.tobytes() == taped.tobytes()
    assert derivative.tobytes() == d.tobytes()


def test_float32_erf_copies_the_sign_of_every_input():
    """The bitwise sign copy is ``np.copysign``: at signed zeros, infinities, NaNs and subnormals too."""
    with np.errstate(all="ignore"):
        got, want = 2 * engine._half_erf_f32(_SPECIAL_F32), _copysign_erf_f32(_SPECIAL_F32)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(_SPECIAL_F32))


def test_recorded_gelu_keeps_its_bits_over_a_sweep_of_float32_patterns(recorded):
    """Every 4,099th float32 bit pattern and the special values; ``tools/gelu_bits.py`` checks all 2^32."""
    patterns = np.arange(0, 1 << 32, 4099, dtype=np.uint64).astype(np.uint32).view(np.float32)
    x = np.concatenate([patterns, _SPECIAL_F32])
    with np.errstate(all="ignore"):
        with Tape():
            out = engine.gelu(Tensor(x, requires_grad=True)).data
        (derivative,) = recorded[0][2](np.ones_like(x))
        want, d = _unblocked_gelu(x)
    assert out.tobytes() == want.tobytes()
    assert derivative.tobytes() == d.tobytes()


def test_unrecorded_gelu_holds_its_output_and_two_blocks():
    x = Tensor(np.random.default_rng(10).normal(0.0, 2.0, (65536, 64)))
    block = engine._GELU_BLOCK * x.data.itemsize
    tracemalloc.start()
    try:
        out = engine.gelu(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.data.nbytes + 2 * block + 64 * 1024


def test_dropout_keeps_a_bool_mask(recorded):
    x = Tensor(np.random.default_rng(8).uniform(-1.0, 1.0, (513, 64)), requires_grad=True)
    with Tape():
        out = engine.dropout(x, 0.3, Rng(4), training=True)
    bwd = recorded[0][2]
    kept = [c.cell_contents for c in bwd.__closure__ if isinstance(c.cell_contents, np.ndarray)]
    assert [a.dtype for a in kept] == [np.bool_]
    keep = (Rng(4).random(x.shape) >= 0.3).astype(np.float32)
    scale = 1.0 / (1.0 - 0.3)
    g = np.random.default_rng(9).uniform(-1.0, 1.0, x.shape).astype(np.float32)
    assert out.data.tobytes() == (x.data * keep * scale).tobytes()
    assert bwd(g)[0].tobytes() == (g * keep * scale).tobytes()


def _storage_dtype(mode):
    return np.float64 if mode == "float64_mode" else np.float32


def _check_closures_keep_the_storage_dtype(records, dtype):
    """Each closure, given a gradient of its output in ``dtype``, returns one per parent in ``dtype``.

    The tape's first gradient, the loss's ``ones_like``, has that dtype, so by induction every
    gradient the tape receives has it too: the tape stores it without a cast.
    """
    assert records
    for out, parents, backward_fn in records:
        assert out.data.dtype == dtype
        g = np.random.default_rng(10).uniform(-1.0, 1.0, out.shape).astype(dtype)
        grads = backward_fn(g)
        assert len(grads) == len(parents)
        for parent, grad in zip(parents, grads):
            if grad is not None:
                assert grad.dtype == dtype, backward_fn.__qualname__
                assert grad.shape == parent.shape, backward_fn.__qualname__


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
@pytest.mark.parametrize("op", sorted(RECORDING_OPS))
def test_backward_closures_return_the_storage_dtype(recorded, mode, op):
    with _mode(mode):
        x = Tensor(np.random.default_rng(1).uniform(0.5, 1.5, (2, 3)), requires_grad=True)
        with Tape():
            RECORDING_OPS[op](x)
    assert any(fn.__qualname__.startswith(f"{op}.") for _, _, fn in recorded)
    _check_closures_keep_the_storage_dtype(recorded, _storage_dtype(mode))


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
def test_model_backward_closures_return_the_storage_dtype(recorded, mode):
    with _mode(mode):
        _default_fwd_bwd(37)()
    _check_closures_keep_the_storage_dtype(recorded, _storage_dtype(mode))


@pytest.mark.parametrize("mode", ["float32", "float64_mode"])
def test_parameter_grads_are_contiguous_writable_in_the_storage_dtype(mode):
    """Includes parameters that reach the loss only through ``sum_``, whose backward broadcasts."""
    gen = np.random.default_rng(2)
    coords = gen.uniform(0.0, 1.0, (37, 2))
    field = gen.uniform(-1.0, 1.0, (37, 1))
    with _mode(mode):
        model = PgotModel(ModelConfig())
        # a (1,) broadcast is a contiguous read-only view, so only a copy makes its gradient writable
        lone = [Tensor(np.full(shape, 0.5), requires_grad=True) for shape in [(1,), (2, 3)]]
        with Tape() as tape:
            loss = relative_l2_loss(model.predict(field, coords), np.sin(coords[:, :1]))
            tape.backward(engine.add(loss, engine.add(engine.sum_(lone[0]), engine.sum_(lone[1]))))
    params = [p for _, p in model.parameters()] + lone
    for p in params:
        assert p.grad.dtype == _storage_dtype(mode)
        assert p.grad.shape == p.shape
        assert p.grad.flags.c_contiguous and p.grad.flags.writeable
    assert all(np.array_equal(p.grad, np.ones(p.shape)) for p in lone)


def _reference_sum(a, axis, keepdims):
    """``_accum_sum``'s definition: numpy's float64 sum, cast back."""
    return a.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(a.dtype)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))  # -0 is not +0


def _cancelling(gen, shape, dtype=np.float32):
    """Magnitudes from 1e-20 to 1e20 whose rows cancel in pairs, so a column's float64 sum is its rounding.

    Then any other order of addition shows in the float32 result, not only in float64's low bits.
    """
    *lead, n, c = shape
    half = gen.standard_normal((*lead, n // 2, c)) * 10.0 ** gen.uniform(-20.0, 20.0, (*lead, n // 2, c))
    odd = gen.standard_normal((*lead, n % 2, c))
    return np.concatenate([half, -half[..., gen.permutation(n // 2), :], odd], axis=-2).astype(dtype)


def _column_axes(ndim):
    """Every spelling of "every axis but the last" for ``ndim`` axes: int or tuple, positive or negative."""
    lead = tuple(range(ndim - 1))
    spellings = [lead, tuple(i - ndim for i in lead), tuple(reversed(lead))]
    return spellings + ([0, -2] if ndim == 2 else [])


class TestColumnSums:
    """``_accum_sum`` over every axis but the last keeps the bits of numpy's float64 sum.

    float32 column sums take einsum, which adds the rows in numpy's order; everything else keeps ``a.sum``.
    """

    @pytest.mark.parametrize("n", [37, 256, 1023, 2048, 8192])
    @pytest.mark.parametrize("c", [1, 8, 16, 32, 34, 64])
    def test_workload_shapes(self, n, c):
        gen = np.random.default_rng(n * 100 + c)
        for a in (_cancelling(gen, (n, c)), _cancelling(gen, (3, n, c)), np.asfortranarray(_cancelling(gen, (n, c)))):
            for axis in _column_axes(a.ndim):
                for keepdims in (False, True):
                    _assert_same_bits(engine._accum_sum(a, axis, keepdims), _reference_sum(a, axis, keepdims))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_drawn_shapes_and_special_values(self, data):
        shape = tuple(data.draw(st.lists(st.integers(0, 4), max_size=2), label="lead"))
        shape += (data.draw(st.integers(0, 300), label="n"), data.draw(st.integers(1, 70), label="c"))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sign = np.where(gen.random(shape) < 0.5, -1.0, 1.0)
        a = sign * 10.0 ** gen.uniform(-30.0, 30.0, shape)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        odd = gen.random(shape) < data.draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]), label="special share")
        a[odd] = gen.choice(specials, size=int(odd.sum()))
        if data.draw(st.booleans(), label="rows cancel in pairs"):
            n = shape[-2]
            a[..., n // 2: n // 2 * 2, :] = -a[..., gen.permutation(n // 2), :]
        a = a.astype(np.float32)
        axis = data.draw(st.sampled_from(_column_axes(a.ndim)), label="axis")
        keepdims = data.draw(st.booleans(), label="keepdims")
        with np.errstate(invalid="ignore"):  # inf - inf
            _assert_same_bits(engine._accum_sum(a, axis, keepdims), _reference_sum(a, axis, keepdims))

    @pytest.mark.parametrize("shape", [(9, 1), (2048, 1), (3, 37, 1), (256, 8), (3, 1023, 34), (8192, 64)])
    def test_float64_keeps_numpy_sum(self, shape):
        a = _cancelling(np.random.default_rng(len(shape) + shape[-1]), shape, np.float64)
        for a in (a, np.asfortranarray(a)):
            for axis in _column_axes(a.ndim):
                _assert_same_bits(engine._accum_sum(a, axis, False), _reference_sum(a, axis, False))


@pytest.mark.parametrize("op", ["add", "sub"])
@pytest.mark.parametrize("constant", ["a", "b"])
@pytest.mark.parametrize("param_shape, constant_shape", [((5, 4), (4,)), ((4,), (5, 4)), ((5, 4), (5, 4))])
def test_add_and_sub_compute_no_gradient_for_a_constant(recorded, op, constant, param_shape, constant_shape):
    """The closure returns None for a constant operand; the parameter's gradient keeps its bits."""
    gen = np.random.default_rng(11)
    param = Tensor(gen.uniform(0.5, 1.5, param_shape), requires_grad=True)
    const = Tensor(gen.uniform(0.5, 1.5, constant_shape))
    a, b = (const, param) if constant == "a" else (param, const)
    with Tape():
        out = getattr(engine, op)(a, b)
    g = gen.uniform(-1.0, 1.0, out.shape).astype(np.float32)
    grads = recorded[0][2](g)
    full = -g if op == "sub" and constant == "a" else g  # the formulas each op used before
    want = full if full.shape == param_shape else _reference_sum(full, 0, False)
    assert grads["ab".index(constant)] is None
    _assert_same_bits(grads["ba".index(constant)], want)


def _assert_kept_arrays_intact(config, training):
    """A fwd+bwd leaves the data of every tensor built in it, op outputs included, byte for byte as built."""
    gen = np.random.default_rng(12)
    coords = gen.uniform(0.0, 1.0, (64, 2))
    field = gen.uniform(-1.0, 1.0, (64, config.d_a))
    model = PgotModel(config)
    built = []
    init = Tensor.__init__

    def snapshot_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, self.data.tobytes()))

    Tensor.__init__ = snapshot_init
    try:
        with Tape() as tape:
            pred = model.predict(field, coords, training=training)
            tape.backward(relative_l2_loss(pred, np.sin(coords[:, :1])))
    finally:
        Tensor.__init__ = init
    assert len(built) > 100
    changed = [i for i, (t, before) in enumerate(built) if t.data.tobytes() != before]
    assert not changed, f"{len(changed)} of {len(built)} tensors changed, the first at build index {changed[0]}"


@pytest.mark.parametrize("config, training", [
    (ModelConfig(), False),
    (ModelConfig(layers=8), False),
    (ModelConfig(dropout=0.3), True),
], ids=["default", "layers8", "dropout-training"])
def test_backward_writes_into_no_kept_array(config, training):
    _assert_kept_arrays_intact(config, training)
