import numpy as np
import pytest

from pgot import engine
from pgot.data import gen_poisson2d
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

    @staticmethod
    def row_major(coords):
        """The map computed on the (N, d) array itself: the bits the axis-major copy must give."""
        coords = np.asarray(coords, dtype=np.float64)
        lo = coords.min(axis=0)
        span = coords.max(axis=0) - lo
        flat = span == 0.0
        out = (coords - lo) / np.where(flat, 1.0, span)
        out[:, flat] = 0.5
        return out.astype(np.float32)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["contiguous", "degenerate-axis", "strided"])
    def test_axis_major_keeps_the_bits_of_the_row_major_map(self, d, layout):
        gen = np.random.default_rng(16)
        coords = gen.uniform(-7.0, 13.0, (2 * 513, 2 * d))
        if layout == "strided":
            coords = coords[::2, ::2]
        else:
            coords = np.ascontiguousarray(coords[:513, :d], dtype=np.float32)
        if layout == "degenerate-axis":
            coords[:, -1] = 2.5
        out = normalize_coords(coords)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert out.tobytes() == self.row_major(coords).tobytes()


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

    @staticmethod
    def direct(g, frequencies):
        """The features as sin and cos of (2^k pi) g, one pair per frequency."""
        angles = [(2.0**k) * np.pi * g for k in range(frequencies)]
        return np.concatenate([f(a) for a in angles for f in (np.sin, np.cos)] + [g], axis=1)

    @staticmethod
    def reduced(g, frequencies):
        """The features as sin and cos of pi (2^k g mod 2): the angle reduced exactly, then one pair each."""
        angles = [np.pi * np.mod((2.0**k) * g, 2.0) for k in range(frequencies)]
        return np.concatenate([f(a) for a in angles for f in (np.sin, np.cos)] + [g], axis=1)

    MESHES = {
        "random": lambda: Rng(20).random((4096, 2)).astype(np.float32),
        "grid9": lambda: normalize_coords(gen_poisson2d(0, 9, 1)[0].coords),
        "grid16": lambda: normalize_coords(gen_poisson2d(0, 16, 1)[0].coords),
    }

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    @pytest.mark.parametrize("frequencies", [1, 8, 9, 16, 24])
    def test_within_reduced_reference(self, mesh, frequencies):
        # doubling alone would reach about 1e-6 at 24 frequencies; the anchors every 8 octaves hold it here
        g = self.MESHES[mesh]().astype(np.float64)
        assert np.abs(pos_embed(g, frequencies) - self.reduced(g, frequencies)).max() <= 5e-13

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    def test_first_pair_and_coordinates_keep_their_bits(self, mesh):
        g = self.MESHES[mesh]().astype(np.float64)
        out = pos_embed(g, frequencies=8)
        assert np.array_equal(out[:, :2], np.sin(np.pi * g))
        assert np.array_equal(out[:, 2:4], np.cos(np.pi * g))
        assert np.array_equal(out[:, -2:], g)

    @staticmethod
    def row_major(g, frequencies):
        """``pos_embed`` computed on the (N, d) array itself: the bits the axis-major copy must give."""
        g = np.asarray(g, dtype=np.float64)
        feats = []
        for k in range(frequencies):
            if k % 8 == 0:
                x = (2.0**k) * g
                angle = np.pi * (x - 2.0 * np.floor(0.5 * x))
                s, c = np.sin(angle), np.cos(angle)
            else:
                s, c = 2.0 * s * c, 1.0 - 2.0 * s * s
            feats += [s, c]
        return np.concatenate(feats + [g], axis=1)

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    @pytest.mark.parametrize("frequencies", [1, 8, 9, 24])
    def test_axis_major_keeps_the_bits_of_the_row_major_features(self, mesh, frequencies):
        g = self.MESHES[mesh]()
        out = pos_embed(g, frequencies)
        want = self.row_major(g, frequencies)
        assert out.shape == want.shape and out.dtype == np.float64
        assert np.ascontiguousarray(out).tobytes() == want.tobytes()

    def test_float32_bounded_at_most_frequencies(self):
        out = pos_embed(self.MESHES["random"](), frequencies=24).astype(np.float32)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_criterion1_grid_float32_bits_match_direct(self):
        # the 16x16 grid of criterion 1 and train_poisson16: the model sees the same float32 features
        g = self.MESHES["grid16"]().astype(np.float64)
        assert np.array_equal(pos_embed(g, 8).astype(np.float32), self.direct(g, 8).astype(np.float32))


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
