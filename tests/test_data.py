import json
import struct

import numpy as np
import pytest

from pgot import engine
from pgot.data import (
    NormStats,
    Sample,
    compute_stats,
    denormalize,
    gen_pointcloud_stress,
    gen_poisson2d,
    normalize,
    radial_field,
    read_dataset,
    read_sample,
    solve_poisson,
    write_dataset,
    write_sample,
)
from pgot.engine import Rng
from pgot.errors import BadMagicError, DataError, TruncatedError, VersionError


class TestPoissonOracle:
    def test_zero_source_zero_solution(self):
        u = solve_poisson(np.zeros((16, 16)))
        assert np.allclose(u, 0.0)

    def test_manufactured_solution(self):
        n = 33
        xs = np.linspace(0, 1, n)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        a = 2 * np.pi**2 * np.sin(np.pi * gx) * np.sin(np.pi * gy)
        u = solve_poisson(a)
        exact = np.sin(np.pi * gx) * np.sin(np.pi * gy)
        h = 1.0 / (n - 1)
        assert np.max(np.abs(u - exact)) < 2.0 * h**2

    def test_solver_residual(self):
        sample = gen_poisson2d(3, 24, 1)[0]
        n = 24
        u = sample.target.reshape(n, n).astype(np.float64)
        a = sample.input.reshape(n, n).astype(np.float64)
        h = 1.0 / (n - 1)
        lap = (
            4 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1] - u[1:-1, :-2] - u[1:-1, 2:]
        ) / h**2
        rel = np.linalg.norm(lap - a[1:-1, 1:-1]) / np.linalg.norm(a[1:-1, 1:-1])
        # f32 storage rounds the fields; the f64 solve itself is ~1e-12
        assert rel < 1e-5

    def test_solver_residual_f64(self):
        rng = Rng(4)
        a = rng.uniform(-1, 1, (20, 20)).astype(np.float64)
        a[0, :] = a[-1, :] = a[:, 0] = a[:, -1] = 0.0
        u = solve_poisson(a)
        h = 1.0 / 19
        lap = (
            4 * u[1:-1, 1:-1] - u[:-2, 1:-1] - u[2:, 1:-1] - u[1:-1, :-2] - u[1:-1, 2:]
        ) / h**2
        assert np.linalg.norm(lap - a[1:-1, 1:-1]) / np.linalg.norm(a[1:-1, 1:-1]) < 1e-10

    def test_resolution_bounds(self):
        with pytest.raises(DataError):
            gen_poisson2d(1, 4, 1)
        with pytest.raises(DataError):
            gen_poisson2d(1, 100, 1)

    @pytest.mark.parametrize(
        "generator,args,named",
        [
            (gen_poisson2d, (-1, 12, 1), "seed"),
            (gen_poisson2d, (2**128, 12, 1), "seed"),
            (gen_poisson2d, (1.5, 12, 1), "seed"),
            (gen_poisson2d, (1, 12.0, 1), "resolution"),
            (gen_poisson2d, (1, 12, True), "samples"),
            (gen_pointcloud_stress, (1, 2049, 1), "points"),
            (gen_pointcloud_stress, (1, 64, 0), "samples"),
        ],
    )
    def test_bad_arguments_raise_data_error(self, generator, args, named):
        with pytest.raises(DataError, match=named):
            generator(*args)


class TestPointCloud:
    def test_boundary_values(self):
        r_in, r_out = 0.2, 1.0
        assert radial_field(np.array([r_in]), r_in, r_out)[0] == 0.0
        assert radial_field(np.array([r_out]), r_in, r_out)[0] == 1.0

    def test_geometric_midpoint(self):
        r_in, r_out = 0.2, 1.0
        mid = np.sqrt(r_in * r_out)
        assert abs(radial_field(np.array([mid]), r_in, r_out)[0] - 0.5) < 1e-12

    def test_points_inside_annulus(self):
        for s in gen_pointcloud_stress(5, 128, 3):
            r = np.hypot(s.coords[:, 0], s.coords[:, 1])
            r_in = s.input[0, 0]
            assert np.all(r >= r_in - 1e-6) and np.all(r <= 1.0 + 1e-6)

    def test_deterministic(self):
        a = gen_pointcloud_stress(6, 128, 2)
        b = gen_pointcloud_stress(6, 128, 2)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.coords, s2.coords)
            assert np.array_equal(s1.target, s2.target)


class TestFormat:
    def make_sample(self, seed=7, n=32):
        rng = Rng(seed)
        return Sample(
            coords=rng.uniform(0, 1, (n, 2)).astype(np.float32),
            input=rng.uniform(-1, 1, (n, 1)).astype(np.float32),
            target=rng.uniform(-1, 1, (n, 1)).astype(np.float32),
            meta={"task": "test", "seed": seed},
        )

    def test_round_trip_bit_exact(self, tmp_path):
        sample = self.make_sample()
        path = tmp_path / "s.pgds"
        write_sample(sample, path)
        loaded = read_sample(path)
        assert sample.coords.tobytes() == loaded.coords.tobytes()
        assert sample.input.tobytes() == loaded.input.tobytes()
        assert sample.target.tobytes() == loaded.target.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.pgds"
        write_sample(self.make_sample(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_sample(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "s.pgds"
        write_sample(self.make_sample(), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            read_sample(path)

    def test_truncation_fuzz(self, tmp_path):
        path = tmp_path / "s.pgds"
        write_sample(self.make_sample(), path)
        blob = path.read_bytes()
        rng = Rng(8)
        for _ in range(50):
            cut = int(rng.integers(0, len(blob)))
            path.write_bytes(blob[:cut])
            with pytest.raises((TruncatedError, BadMagicError, VersionError)) as err:
                read_sample(path)
            if isinstance(err.value, TruncatedError):
                assert "expected" in str(err.value)

    def test_truncation_names_the_offset(self, tmp_path):
        path = tmp_path / "s.pgds"
        sample = self.make_sample()
        write_sample(sample, path)
        path.write_bytes(path.read_bytes()[:24 + 5])  # magic, version and the four-field header, then 5 bytes
        n, d = sample.coords.shape
        message = f"^truncated payload reading coords at byte 24: expected {4 * n * d} bytes, got 5$"
        with pytest.raises(TruncatedError, match=message):
            read_sample(path)

    def test_header_larger_than_any_file(self, tmp_path):
        path = tmp_path / "s.pgds"
        write_sample(self.make_sample(), path)
        blob = bytearray(path.read_bytes())
        blob[8:16] = struct.pack("<2I", 2**31, 2**30)  # N * d * 4 bytes = 2**63
        path.write_bytes(bytes(blob))
        with pytest.raises(TruncatedError):
            read_sample(path)

    @pytest.mark.parametrize("n,bad_value", [(0, None), (3, None), (32, np.nan), (32, np.inf)])
    def test_unusable_content_refused(self, tmp_path, n, bad_value):
        sample = self.make_sample(n=n)
        if bad_value is not None:
            sample.target[5, 0] = bad_value
        path = tmp_path / "s.pgds"
        write_sample(sample, path)
        with pytest.raises(DataError):
            read_sample(path)

    def test_random_garbage_never_crashes(self, tmp_path):
        rng = Rng(9)
        path = tmp_path / "junk.pgds"
        for _ in range(50):
            size = int(rng.integers(0, 200))
            path.write_bytes(bytes(rng.integers(0, 256, (size,)).astype(np.uint8)))
            with pytest.raises(DataError):
                read_sample(path)


class TestDatasetDir:
    def test_write_read_round_trip(self, tmp_path):
        samples = gen_poisson2d(11, 12, 3)
        write_dataset(samples, tmp_path / "ds", task="poisson2d")
        loaded, manifest = read_dataset(tmp_path / "ds")
        assert manifest["count"] == 3
        assert manifest["split"] == "train"
        for s1, s2 in zip(samples, loaded):
            assert np.array_equal(s1.target, s2.target)

    def test_regeneration_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            write_dataset(gen_poisson2d(12, 12, 2), tmp_path / name, task="poisson2d")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.parametrize(
        "generator, args",
        [(gen_poisson2d, (7, 16, 2)), (gen_pointcloud_stress, (3, 64, 2))],
        ids=["poisson2d", "pointcloud_stress"],
    )
    def test_float64_mode_changes_no_generated_byte(self, generator, args):
        outside = generator(*args)
        with engine.float64_mode():
            inside = generator(*args)
        for s1, s2 in zip(outside, inside, strict=True):
            for field in ("coords", "input", "target"):
                a1, a2 = getattr(s1, field), getattr(s2, field)
                assert a1.dtype == a2.dtype and a1.tobytes() == a2.tobytes(), field

    def test_test_split_uses_train_stats(self, tmp_path):
        train_samples = gen_poisson2d(14, 12, 4)
        train_manifest = write_dataset(train_samples, tmp_path / "train", task="poisson2d")
        test_samples = gen_poisson2d(15, 12, 2)
        stats = NormStats.from_dict(train_manifest["normalization"])
        test_manifest = write_dataset(test_samples, tmp_path / "test", task="poisson2d", stats=stats)
        assert test_manifest["split"] == "test"
        assert test_manifest["normalization"] == train_manifest["normalization"]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            read_dataset(tmp_path)


class TestNormalization:
    def test_round_trip(self):
        samples = gen_poisson2d(16, 12, 4)
        stats = compute_stats(samples)
        x = samples[0].target
        back = denormalize(normalize(x, stats.target_mean, stats.target_std), stats.target_mean, stats.target_std)
        assert np.allclose(back, x, atol=1e-6)

    def test_train_stats_standardize(self):
        samples = gen_poisson2d(17, 12, 6)
        stats = compute_stats(samples)
        all_targets = np.concatenate([normalize(s.target, stats.target_mean, stats.target_std) for s in samples])
        assert abs(all_targets.mean()) < 1e-5
        assert abs(all_targets.std() - 1.0) < 1e-4
