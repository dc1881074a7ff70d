import numpy as np
import pytest

from pgot import engine
from pgot.engine import Rng, Tensor
from pgot.ffn import PlainFFN, TaylorDecompFFN
from pgot.geometry import pos_embed

from gradcheck import check_module_grads

FREQUENCIES = 8


def make_ffn(seed=0, width=8, d=2, **kw):
    return TaylorDecompFFN(Rng(seed), width, d * (2 * FREQUENCIES + 1), **kw)


def gate_feats(rng, n, d=2):
    return Tensor(pos_embed(rng.random((n, d)), FREQUENCIES))


class TestLinearExpert:
    def test_zero_maps_to_zero(self):
        ffn = make_ffn()
        out = ffn.linear_expert(Tensor(np.zeros((3, 8))), Rng(1), training=False)
        assert np.allclose(out.data, 0.0)

    def test_additivity(self):
        ffn = make_ffn(seed=2)
        rng = Rng(3)
        x = Tensor(rng.uniform(-1, 1, (4, 8)))
        y = Tensor(rng.uniform(-1, 1, (4, 8)))
        fx = ffn.linear_expert(x, rng, False).data
        fy = ffn.linear_expert(y, rng, False).data
        fxy = ffn.linear_expert(Tensor(x.data + y.data), rng, False).data
        assert np.allclose(fxy, fx + fy, atol=1e-5)

    def test_gradient(self):
        with engine.float64_mode():
            ffn = make_ffn(seed=4, width=4)
            x = Rng(5).uniform(-1, 1, (3, 4)).astype(np.float64)
            params = ffn.lin1.parameters("lin1") + ffn.lin2.parameters("lin2")
            check_module_grads(lambda: ffn.linear_expert(Tensor(x), Rng(6), False), params)


class TestNonlinearExpert:
    def test_zero_maps_to_zero(self):
        ffn = make_ffn()
        out = ffn.nonlinear_expert(Tensor(np.zeros((3, 8))))
        assert np.allclose(out.data, 0.0)

    def test_generically_nonadditive(self):
        ffn = make_ffn(seed=7)
        rng = Rng(8)
        x = Tensor(rng.uniform(-1, 1, (4, 8)))
        y = Tensor(rng.uniform(-1, 1, (4, 8)))
        fx = ffn.nonlinear_expert(x).data
        fy = ffn.nonlinear_expert(y).data
        fxy = ffn.nonlinear_expert(Tensor(x.data + y.data)).data
        assert np.linalg.norm(fxy - fx - fy) > 1e-3

    def test_gradient(self):
        with engine.float64_mode():
            ffn = make_ffn(seed=9, width=4)
            x = Rng(10).uniform(-1, 1, (3, 4)).astype(np.float64)
            params = ffn.non1.parameters("non1") + ffn.non2.parameters("non2")
            check_module_grads(lambda: ffn.nonlinear_expert(Tensor(x)), params)


class TestSpatialGate:
    def test_zero_weights_give_half(self):
        ffn = make_ffn(seed=11)
        for _, p in ffn.gate.parameters("gate"):
            p.data = np.zeros_like(p.data)
        alpha = ffn.spatial_gate(gate_feats(Rng(12), 6))
        assert np.allclose(alpha.data, 0.5)

    def test_saturated_bias(self):
        ffn = make_ffn(seed=13)
        for _, p in ffn.gate.parameters("gate"):
            p.data = np.zeros_like(p.data)
        ffn.gate.fc2.b.data = np.full_like(ffn.gate.fc2.b.data, 20.0)
        alpha = ffn.spatial_gate(gate_feats(Rng(14), 6))
        assert np.all(alpha.data > 0.999)

    def test_range_open_interval(self):
        ffn = make_ffn(seed=15)
        rng = Rng(16)
        for _ in range(100):
            alpha = ffn.spatial_gate(gate_feats(rng, 10))
            assert np.all(alpha.data > 0.0) and np.all(alpha.data < 1.0)

    def test_coordinate_purity(self):
        # identical coordinates, different features -> identical gate values
        ffn = make_ffn(seed=17)
        ffn.cache_enabled = True
        rng = Rng(18)
        for _ in range(100):
            feats = gate_feats(rng, 10)
            ffn(Tensor(rng.uniform(-1, 1, (10, 8))), feats, rng, False)
            alpha1 = ffn.last_gate
            ffn(Tensor(rng.uniform(-1, 1, (10, 8))), feats, rng, False)
            alpha2 = ffn.last_gate
            assert np.array_equal(alpha1, alpha2)


class TestBlend:
    def test_force_zero_is_linear_expert(self):
        ffn = make_ffn(seed=19, gate_force="zero")
        rng = Rng(20)
        x = Tensor(rng.uniform(-1, 1, (5, 8)))
        out = ffn(x, gate_feats(rng, 5), rng, False)
        expected = ffn.linear_expert(x, rng, False)
        assert np.array_equal(out.data, expected.data)

    def test_force_one_is_nonlinear_expert(self):
        ffn = make_ffn(seed=21, gate_force="one")
        rng = Rng(22)
        x = Tensor(rng.uniform(-1, 1, (5, 8)))
        out = ffn(x, gate_feats(rng, 5), rng, False)
        assert np.array_equal(out.data, ffn.nonlinear_expert(x).data)

    def test_force_half_is_mean_of_experts(self):
        ffn = make_ffn(seed=23, gate_force="half")
        rng = Rng(24)
        x = Tensor(rng.uniform(-1, 1, (5, 8)))
        out = ffn(x, gate_feats(rng, 5), rng, False)
        expected = 0.5 * (ffn.linear_expert(x, rng, False).data + ffn.nonlinear_expert(x).data)
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_convex_blend_between_experts(self):
        ffn = make_ffn(seed=25)
        rng = Rng(26)
        for _ in range(100):
            x = Tensor(rng.uniform(-1, 1, (6, 8)))
            feats = gate_feats(rng, 6)
            out = ffn(x, feats, rng, False).data
            f_lin = ffn.linear_expert(x, rng, False).data
            f_non = ffn.nonlinear_expert(x).data
            lo = np.minimum(f_lin, f_non) - 1e-5
            hi = np.maximum(f_lin, f_non) + 1e-5
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_per_channel_independence(self):
        ffn = make_ffn(seed=27, gate_force="half")
        rng = Rng(28)
        x = Tensor(rng.uniform(-1, 1, (4, 8)))
        feats = gate_feats(rng, 4)
        base = ffn(x, feats, rng, False).data.copy()
        # perturbing one channel of the gate output only moves that channel
        ffn.gate_force = None
        for _, p in ffn.gate.parameters("gate"):
            p.data = np.zeros_like(p.data)
        half = ffn(x, feats, rng, False).data
        ffn.gate.fc2.b.data[3] = 5.0
        bumped = ffn(x, feats, rng, False).data
        changed = np.any(half != bumped, axis=0)
        assert changed[3]
        assert not np.any(changed[np.arange(8) != 3])

    def test_gradient(self):
        with engine.float64_mode():
            ffn = make_ffn(seed=29, width=4)
            rng = Rng(30)
            x = rng.uniform(-1, 1, (3, 4)).astype(np.float64)
            feats = gate_feats(rng, 3)
            check_module_grads(
                lambda: ffn(Tensor(x), feats, rng, False), ffn.parameters("ffn")
            )


class TestPlainFFN:
    def test_ignores_gate_inputs(self):
        ffn = PlainFFN(Rng(31), 8)
        rng = Rng(32)
        x = Tensor(rng.uniform(-1, 1, (5, 8)))
        out1 = ffn(x, gate_feats(rng, 5), rng, False)
        out2 = ffn(x, gate_feats(rng, 5), rng, False)
        assert np.array_equal(out1.data, out2.data)
