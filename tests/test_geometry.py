import numpy as np
import pytest

from pgot import engine
from pgot.engine import Rng, Tensor
from pgot.errors import DataError
from pgot.geometry import GeometricEncoderBank, normalize_coords, pos_embed

from gradcheck import check_grads


class TestNormalizeCoords:
    def test_bounding_box_corners(self):
        out = normalize_coords(np.array([[0.0, 0.0], [2.0, 4.0]]))
        assert np.allclose(out, [[0, 0], [1, 1]])

    def test_single_point_degenerate(self):
        out = normalize_coords(np.array([[3.0, 3.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_random_cloud_hits_unit_cube(self):
        rng = Rng(5)
        for _ in range(20):
            coords = rng.uniform(-7, 13, (50, 3)).astype(np.float64)
            out = normalize_coords(coords)
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert np.allclose(out.min(axis=0), 0.0, atol=1e-6)
            assert np.allclose(out.max(axis=0), 1.0, atol=1e-6)

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            normalize_coords(np.array([[np.nan, 0.0]]))


class TestPosEmbed:
    # the first 2 * frequencies * d columns are sinusoidal, the last d the raw g

    def test_zero_coordinate(self):
        out = pos_embed(np.zeros((1, 1)), frequencies=3)
        assert np.allclose(out[:, :6], [[0, 1, 0, 1, 0, 1]])

    def test_half_at_k0(self):
        out = pos_embed(np.full((1, 1), 0.5), frequencies=1)
        assert np.allclose(out[:, :2], [[1.0, 0.0]], atol=1e-7)

    def test_output_dim_both(self):
        out = pos_embed(np.zeros((5, 2)), frequencies=4)
        assert out.shape == (5, 18)

    def test_bounded(self):
        rng = Rng(6)
        out = pos_embed(rng.random((100, 2)), frequencies=8)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestEncoderBank:
    def test_scale_multipliers(self):
        bank = GeometricEncoderBank(Rng(7), d=2, width=8, scales=2)
        coords = Rng(8).random((6, 2))
        assert np.allclose(bank.scale_input(0, coords), coords)
        assert np.allclose(bank.scale_input(1, coords), 10.0 * coords)

    def test_zero_weights_give_zero_output(self):
        bank = GeometricEncoderBank(Rng(9), d=2, width=8, scales=2)
        for _, p in bank.parameters("bank"):
            p.data = np.zeros_like(p.data)
        out = bank(Rng(10).random((5, 2)))
        assert np.allclose(out.data, 0.0)

    def test_output_shape(self):
        bank = GeometricEncoderBank(Rng(11), d=3, width=16, scales=3)
        out = bank(Rng(12).random((7, 3)))
        assert out.shape == (7, 16)

    def test_permutation_equivariance(self):
        bank = GeometricEncoderBank(Rng(13), d=2, width=8, scales=2)
        coords = Rng(14).random((40, 2))
        perm = np.argsort(Rng(15).random((40,)))
        out = bank(coords).data
        out_perm = bank(coords[perm]).data
        assert np.array_equal(out_perm, out[perm])

    def test_single_scale_degenerates(self):
        bank = GeometricEncoderBank(Rng(16), d=2, width=8, scales=1)
        assert len(bank.encoders) == 1
        out = bank(Rng(17).random((5, 2)))
        assert out.shape == (5, 8)

    def test_gradient(self):
        from gradcheck import check_module_grads

        coords = Rng(18).random((4, 2)).astype(np.float64)
        with engine.float64_mode():
            bank = GeometricEncoderBank(Rng(19), d=2, width=4, scales=2)
            check_module_grads(lambda: bank(coords), bank.parameters("bank"))
