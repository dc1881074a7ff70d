import numpy as np
import pytest

from pgot import engine
from pgot.attention import DEAD_SLICE_EPS, LatentMhsa, SpecGeoAttention
from pgot.engine import Rng, Tensor

from gradcheck import check_module_grads


def naive_mhsa(z: np.ndarray, layer: LatentMhsa) -> np.ndarray:
    """Dense O(M^2) reference attention, written independently in plain numpy."""
    z = z.astype(np.float64)
    wq = layer.wq.w.data.astype(np.float64)
    wk = layer.wk.w.data.astype(np.float64)
    wv = layer.wv.w.data.astype(np.float64)
    wo = layer.wo.w.data.astype(np.float64)
    m, c = z.shape
    h, dh = layer.heads, layer.head_dim
    q, k, v = z @ wq, z @ wk, z @ wv
    heads = []
    for head in range(h):
        sl = slice(head * dh, (head + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        scores -= scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        weights /= weights.sum(axis=1, keepdims=True)
        heads.append(weights @ v[:, sl])
    return np.concatenate(heads, axis=1) @ wo


def make_layer(seed=0, d=2, width=8, slices=4, heads=2, scales=2, use_geometry=True):
    return SpecGeoAttention(Rng(seed), d, width, slices, heads, scales, use_geometry=use_geometry)


class TestQuery:
    def test_no_geometry_is_plain_projection(self):
        layer = make_layer(use_geometry=False)
        x = Tensor(Rng(1).uniform(-1, 1, (5, 8)))
        out = layer.geometry_informed_query(x, Rng(2).random((5, 2)))
        assert np.allclose(out.data, x.data @ layer.wx.w.data, atol=1e-6)

    def test_identity_projection(self):
        layer = make_layer(use_geometry=False)
        layer.wx.w.data = np.eye(8, dtype=np.float32)
        x = Tensor(Rng(3).uniform(-1, 1, (5, 8)))
        out = layer.geometry_informed_query(x, Rng(4).random((5, 2)))
        assert np.allclose(out.data, x.data, atol=1e-6)


class TestAssignment:
    def test_identical_prototypes_give_uniform_rows(self):
        layer = make_layer()
        layer.prototypes.data = np.tile(layer.prototypes.data[0], (4, 1))
        xq = Tensor(Rng(5).uniform(-1, 1, (6, 8)))
        a = layer.compute_assignment(xq)
        assert np.allclose(a.data, 0.25, atol=1e-6)

    def test_large_temperature_limit(self):
        layer = make_layer()
        layer.tau_raw.data = np.array([1e6], dtype=np.float32)
        xq = Tensor(Rng(6).uniform(-1, 1, (6, 8)))
        a = layer.compute_assignment(xq)
        assert np.allclose(a.data, 0.25, atol=1e-3)

    def test_hand_computed_logits(self):
        # logits [[1,0],[0,1],[0,0]] at tau=1
        layer = SpecGeoAttention(Rng(7), 2, 2, 2, 1, 1, use_geometry=False)
        layer.prototypes.data = np.eye(2, dtype=np.float32)
        layer.tau_raw.data = np.array([np.log(np.expm1(1.0))], dtype=np.float32)
        xq = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        a = layer.compute_assignment(xq)
        e = np.e
        expected = np.array(
            [[e / (e + 1), 1 / (e + 1)], [1 / (e + 1), e / (e + 1)], [0.5, 0.5]]
        )
        assert np.allclose(a.data, expected, atol=1e-5)

    def test_rows_stochastic_for_wild_inputs(self):
        layer = make_layer()
        rng = Rng(8)
        for _ in range(100):
            xq = Tensor(rng.uniform(-30, 30, (10, 8)))
            a = layer.compute_assignment(xq)
            assert np.all(a.data >= 0)
            assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-5)


class TestSliceDeslice:
    def test_single_slice_is_mean(self):
        layer = SpecGeoAttention(Rng(9), 2, 4, 2, 1, 1, use_geometry=False)
        layer.wf.w.data = np.eye(4, dtype=np.float32)
        x = Tensor(Rng(10).uniform(-1, 1, (2, 4)))
        a = Tensor(np.array([[1.0, 0.0], [1.0, 0.0]]))
        z = layer.slice_tokens(a, x)
        assert np.allclose(z.data[0], x.data.mean(axis=0), atol=1e-6)

    def test_one_hot_rows_give_group_means(self):
        layer = SpecGeoAttention(Rng(11), 2, 4, 3, 1, 1, use_geometry=False)
        layer.wf.w.data = np.eye(4, dtype=np.float32)
        rng = Rng(12)
        x_np = rng.uniform(-1, 1, (9, 4))
        groups = rng.integers(0, 3, (9,))
        a_np = np.zeros((9, 3), dtype=np.float32)
        a_np[np.arange(9), groups] = 1.0
        z = layer.slice_tokens(Tensor(a_np), Tensor(x_np))
        for j in range(3):
            members = x_np[groups == j]
            expected = members.mean(axis=0) if len(members) else np.zeros(4)
            assert np.allclose(z.data[j], expected, atol=1e-5)

    def test_constant_field_preserved(self):
        layer = SpecGeoAttention(Rng(13), 2, 4, 3, 1, 1, use_geometry=False)
        layer.wf.w.data = np.eye(4, dtype=np.float32)
        x = Tensor(np.full((7, 4), 3.5, dtype=np.float32))
        a = engine.softmax(Tensor(Rng(14).uniform(-2, 2, (7, 3))), axis=1)
        z = layer.slice_tokens(a, x)
        out = layer.deslice(a, z)
        assert np.allclose(out.data, 3.5, atol=1e-5)

    def test_deslice_broadcast_single_token(self):
        layer = make_layer()
        z = Tensor(Rng(15).uniform(-1, 1, (1, 8)))
        a = Tensor(np.ones((5, 1), dtype=np.float32))
        out = layer.deslice(a, z)
        assert np.allclose(out.data, np.tile(z.data, (5, 1)))

    def test_deslice_rows_are_convex_combinations(self):
        layer = make_layer()
        rng = Rng(16)
        for _ in range(100):
            z = Tensor(rng.uniform(-2, 2, (4, 8)))
            a = engine.softmax(Tensor(rng.uniform(-3, 3, (10, 4))), axis=1)
            out = layer.deslice(a, z)
            lo = z.data.min(axis=0) - 1e-5
            hi = z.data.max(axis=0) + 1e-5
            assert np.all(out.data >= lo) and np.all(out.data <= hi)


class TestLatentMhsa:
    def test_single_token(self):
        layer = LatentMhsa(Rng(17), 8, 2)
        z = Tensor(Rng(18).uniform(-1, 1, (1, 8)))
        out = layer(z)
        expected = naive_mhsa(z.data, layer)
        assert np.allclose(out.data, expected, atol=1e-6)

    def test_equal_keys_give_uniform_attention(self):
        layer = LatentMhsa(Rng(19), 8, 2)
        layer.wk.w.data = np.zeros((8, 8), dtype=np.float32)
        z = Tensor(Rng(20).uniform(-1, 1, (5, 8)))
        out = layer(z)
        # zero keys -> uniform weights -> every row attends to mean value
        v = z.data @ layer.wv.w.data
        expected = np.tile(v.mean(axis=0), (5, 1)) @ layer.wo.w.data
        assert np.allclose(out.data, expected, atol=1e-5)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_matches_naive_oracle(self, heads):
        rng = Rng(21 + heads)
        for case in range(100):
            m = int(rng.integers(1, 5))
            layer = LatentMhsa(Rng(1000 + case), 8, heads)
            z = Tensor(rng.uniform(-1, 1, (m, 8)))
            out = layer(z)
            assert np.allclose(out.data, naive_mhsa(z.data, layer), atol=1e-5)

    def test_gradient(self):
        with engine.float64_mode():
            layer = LatentMhsa(Rng(22), 4, 2)
            z = Rng(23).uniform(-1, 1, (3, 4)).astype(np.float64)
            check_module_grads(lambda: layer(Tensor(z)), layer.parameters("mhsa"))


class TestForward:
    def test_output_shape_and_cache(self):
        layer = make_layer()
        layer.cache_enabled = True
        x = Tensor(Rng(24).uniform(-1, 1, (12, 8)))
        out = layer(x, Rng(25).random((12, 2)))
        assert out.shape == (12, 8)
        assert layer.last_assignment is not None
        assert layer.last_assignment.shape == (12, 4)
        assert np.allclose(layer.last_assignment.sum(axis=1), 1.0, atol=1e-5)

    def test_permutation_equivariance(self):
        layer = make_layer()
        rng = Rng(26)
        x_np = rng.uniform(-1, 1, (30, 8)).astype(np.float32)
        coords = rng.random((30, 2))
        perm = np.argsort(rng.random((30,)))
        out = layer(Tensor(x_np), coords).data
        out_perm = layer(Tensor(x_np[perm]), coords[perm]).data
        assert np.array_equal(out_perm, out[perm])

    def test_no_quadratic_intermediate(self):
        layer = make_layer(width=8, slices=4)
        n = 512
        x = Tensor(Rng(27).uniform(-1, 1, (n, 8)))
        coords = Rng(28).random((n, 2))
        engine.reset_alloc_stats()
        layer(x, coords)
        stats = engine.alloc_stats()
        assert stats["max_single"] < n * n * 4

    def test_dead_slice_zeroed(self):
        """An empty slice yields a zero token and counts as dead."""
        layer = SpecGeoAttention(Rng(29), 2, 4, 2, 1, 1, use_geometry=False)
        layer.wf.w.data = np.eye(4, dtype=np.float32)
        x = Tensor(Rng(30).uniform(-1, 1, (3, 4)))
        a = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        z = layer.slice_tokens(a, x)
        assert np.allclose(z.data[1], 0.0, atol=1e-6)
        assert layer.dead_slice_events == 1

    def test_tiny_slice_token_scaled_by_its_mass(self):
        """A slice of mass below DEAD_SLICE_EPS yields its weighted mean times mass / eps and counts as dead."""
        layer = SpecGeoAttention(Rng(29), 2, 4, 2, 1, 1, use_geometry=False)
        layer.wf.w.data = np.eye(4, dtype=np.float32)
        x = Tensor(np.ones((3, 4)))
        mass = 5e-9
        a = Tensor(np.array([[1.0, mass / 2], [1.0, mass / 2], [1.0, 0.0]]))
        z = layer.slice_tokens(a, x)
        assert np.allclose(z.data[1], mass / DEAD_SLICE_EPS, rtol=1e-6)  # mean 1 times 0.5, not 0
        assert np.allclose(z.data[0], 1.0)
        assert layer.dead_slice_events == 1

    def test_dead_slice_events_count_empty_slices(self, monkeypatch):
        layer = make_layer(slices=4)
        one_hot = np.eye(4)[[0, 2, 2, 0, 2]]  # slices 1 and 3 receive nothing
        monkeypatch.setattr(layer, "compute_assignment", lambda xq: Tensor(one_hot))
        x = Tensor(Rng(34).uniform(-1, 1, (5, 8)))
        coords = Rng(35).random((5, 2))
        layer(x, coords)
        assert layer.dead_slice_events == 2
        layer(x, coords)
        assert layer.dead_slice_events == 4

    def test_gradients_including_tau_and_prototypes(self):
        with engine.float64_mode():
            layer = make_layer(seed=31, width=4, slices=3, heads=2, scales=2)
            x = Rng(32).uniform(-1, 1, (5, 4)).astype(np.float64)
            coords = Rng(33).random((5, 2)).astype(np.float64)
            check_module_grads(lambda: layer(Tensor(x), coords), layer.parameters("sga"))
