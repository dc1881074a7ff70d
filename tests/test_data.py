import hashlib
import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest

from pgot import data, engine
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
    read_manifest,
    read_sample,
    sample_keys,
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

    @pytest.mark.parametrize("n", range(8, 65))
    def test_one_factorization_keeps_the_bits_of_spsolve(self, n):
        """Every grid solved against one ``splu`` factor has the bits of its own ``spsolve`` call, the solve
        the generator used before; so has each target ``gen_poisson2d`` writes."""
        import scipy.sparse.linalg as spla

        lap = data._poisson_operator(n)

        def spsolve(grid):  # the reference: a fresh factorization per grid
            u = np.zeros((n, n))
            u[1:-1, 1:-1] = spla.spsolve(lap, grid[1:-1, 1:-1].reshape(-1)).reshape(n - 2, n - 2)
            return u

        rng = np.random.default_rng(n)
        grids = [rng.uniform(-1.0, 1.0, (n, n)), np.exp(rng.uniform(-25.0, 25.0, (n, n)))]
        solve = data._poisson_solver(n)
        for grid in grids:
            assert spsolve(grid).tobytes() == solve(grid).tobytes() == solve_poisson(grid).tobytes()
        for sample in gen_poisson2d(n, n, 2):
            rng = Rng(sample.meta["seed"])  # the source as the generator draws it, in float64
            xs = np.linspace(0.0, 1.0, n)
            gx, gy = np.meshgrid(xs, xs, indexing="ij")
            source = np.zeros_like(gx)
            for _ in range(int(rng.integers(1, 6))):
                p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                source += float(rng.uniform(-1.0, 1.0, ())) * np.sin(p * np.pi * gx) * np.sin(q * np.pi * gy)
            assert sample.input.tobytes() == source.astype(np.float32).tobytes()
            assert sample.target.tobytes() == spsolve(source).astype(np.float32).tobytes()

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
        """Every sample has all its points inside, over many seeds at 64 points: the size where 4 * points
        candidates are likeliest to hold too few."""
        for seed, points, samples in [(5, 128, 3)] + [(seed, 64, 250) for seed in (0, 1, 2**64, 2**128 - 2**10)]:
            for s in gen_pointcloud_stress(seed, points, samples):
                r = np.hypot(s.coords[:, 0], s.coords[:, 1])
                r_in = s.input[0, 0]
                assert s.coords.shape == (points, 2)
                assert np.all(r >= r_in - 1e-6) and np.all(r <= 1.0 + 1e-6)

    def test_chunked_draw_keeps_the_bits_of_one_draw_of_4_points_candidates(self):
        """The generator draws candidates in chunks until enough fall inside the annulus; each cloud has the
        bits of one draw of 4 * points candidates, of which it keeps the first inside."""
        second_chunks = 0
        for seed, points in itertools.product((0, 1, 2**64, 2**128 - 1), (64, 100, 999, 2048)):
            for sample in gen_pointcloud_stress(seed, points, 16):
                rng = Rng(sample.meta["seed"])  # the reference: every candidate in one draw
                r_in = float(rng.uniform(0.15, 0.35, ()))
                candidates = rng.uniform(-1.0, 1.0, (4 * points, 2)).astype(np.float64)
                r = np.hypot(candidates[:, 0], candidates[:, 1])
                inside = (r >= r_in) & (r <= 1.0)
                coords, r = candidates[inside][:points], r[inside][:points]
                inputs = np.stack([np.full_like(r, r_in), np.minimum(r - r_in, 1.0 - r)], axis=1)
                target = radial_field(r, r_in, 1.0).reshape(-1, 1)
                for got, want in ((sample.coords, coords), (sample.input, inputs), (sample.target, target)):
                    assert got.tobytes() == want.astype(np.float32).tobytes()
                second_chunks += np.count_nonzero(inside[: -(-3 * points // 2)]) < points
        assert second_chunks > 0

    def test_too_few_candidates_inside_raise_data_error(self, monkeypatch):
        class Corner:  # every draw is 1: r_in = 1, and every candidate sits at (1, 1), outside the annulus
            def __init__(self, key):
                pass

            def uniform(self, low, high, shape):
                return np.ones(shape, dtype=np.float32)

        monkeypatch.setattr(data, "Rng", Corner)
        with pytest.raises(DataError, match="annulus sampling kept fewer than 64 of 256"):
            gen_pointcloud_stress(0, 64, 1)

    def test_deterministic(self):
        a = gen_pointcloud_stress(6, 128, 2)
        b = gen_pointcloud_stress(6, 128, 2)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1.coords, s2.coords)
            assert np.array_equal(s1.target, s2.target)


class TestSampleKeys:
    @pytest.mark.parametrize("generator, size", [(gen_poisson2d, 8), (gen_pointcloud_stress, 64)],
                             ids=["poisson2d", "pointcloud_stress"])
    @pytest.mark.parametrize("seed", [0, 7, 2**128 - 1])
    def test_keys_are_the_generated_samples_seeds(self, generator, size, seed):
        assert sample_keys(seed, 6) == [s.meta["seed"] for s in generator(seed, size, 6)]


class TestFormat:
    def make_sample(self, seed=7, n=32):
        rng = Rng(seed)
        return Sample(
            coords=rng.uniform(0, 1, (n, 2)).astype(np.float32),
            input=rng.uniform(-1, 1, (n, 1)).astype(np.float32),
            target=rng.uniform(-1, 1, (n, 1)).astype(np.float32),
            meta={"task": "test", "seed": seed},
        )

    @pytest.mark.parametrize(
        "name, shape", [("input", (31, 1)), ("target", (33, 1)), ("input", (32,)), ("target", (32, 1, 1)), ("coords", (32,))]
    )
    def test_validate_refuses_a_field_not_2d_with_one_row_per_point(self, name, shape):
        sample = self.make_sample()
        setattr(sample, name, np.zeros(shape, np.float32))
        with pytest.raises(DataError, match=f"sample field {name} must be 2-D"):
            sample.validate()

    @pytest.mark.parametrize("name", ["coords", "input", "target"])
    def test_validate_refuses_a_field_with_no_channels(self, name, tmp_path):
        sample = self.make_sample()
        setattr(sample, name, np.zeros((32, 0), np.float32))
        with pytest.raises(DataError, match=f"sample field {name} has no channels"):
            sample.validate()
        with pytest.raises(DataError, match=f"sample 0: sample field {name} has no channels"):
            write_dataset([sample], tmp_path / "ds", task="test")
        assert not (tmp_path / "ds").exists()

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
        "task, samples, hashes",
        [
            ("poisson2d", lambda: gen_poisson2d(7, 8, 2), ("518d0114584b3c7c", "c1a4e99bb6839818", "38f8d0b7763642a2")),
            (
                "pointcloud_stress",
                lambda: gen_pointcloud_stress(3, 64, 2),
                ("319c4b0d86b57347", "05f4708cbf623b73", "5c9b5a6efc875fc2"),
            ),
        ],
        ids=["poisson2d", "pointcloud_stress"],
    )
    def test_written_split_keeps_its_bytes(self, tmp_path, task, samples, hashes):
        """The first 16 hex digits of the sha256 of the manifest and of each sample file: any change to a
        generator, the statistics, the manifest's JSON or the container shows here."""
        write_dataset(samples(), tmp_path, task=task)
        names = ("manifest.json", "sample_0000.pgds", "sample_0001.pgds")
        assert sorted(p.name for p in tmp_path.iterdir()) == list(names)
        found = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16] for name in names)
        assert found == hashes

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

    def test_train_split_with_mixed_channel_counts_is_refused(self, tmp_path):
        samples = gen_poisson2d(0, 8, 1) + gen_pointcloud_stress(0, 64, 1)  # 1 and 2 input channels
        with pytest.raises(DataError, match="channel counts"):
            write_dataset(samples, tmp_path / "ds", task="poisson2d")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_no_samples_or_a_malformed_sample_is_refused_before_anything_is_created(self, tmp_path, split):
        good = gen_poisson2d(0, 8, 2)
        stats = compute_stats(good) if split == "test" else None
        short = gen_poisson2d(1, 8, 1)[0]
        short.target = short.target[:-1]  # one row fewer than its coords
        for samples, message in (([], "at least one sample"), ([*good, short], "sample 2: sample field target")):
            with pytest.raises(DataError, match=message):
                write_dataset(samples, tmp_path / "ds", task="poisson2d", stats=stats)
            assert not (tmp_path / "ds").exists()

    def test_each_generated_sample_is_validated_once(self, tmp_path, monkeypatch):
        """``write_dataset`` checks each sample where it enters a file; the generator does not check it before."""
        validate, calls = Sample.validate, []
        monkeypatch.setattr(Sample, "validate", lambda self: calls.append(self) or validate(self))
        samples = gen_pointcloud_stress(4, 64, 3)
        write_dataset(samples, tmp_path / "ds", task="pointcloud_stress")
        assert [id(s) for s in calls] == [id(s) for s in samples]

    def test_read_manifest_returns_its_stats(self, tmp_path):
        write_dataset(gen_pointcloud_stress(5, 64, 2), tmp_path / "ds", task="pointcloud_stress")
        manifest, stats = read_manifest(tmp_path / "ds" / "manifest.json")
        expected = NormStats.from_dict(manifest["normalization"])
        for key, arr in vars(expected).items():
            assert np.array_equal(getattr(stats, key), arr) and getattr(stats, key).dtype == arr.dtype, key

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

    def test_tiny_std_overflow_is_a_data_error(self):
        x = np.array([[1.0], [2.0]], dtype=np.float32)
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflows float32"):
            normalize(x, np.zeros(1), np.array([1e-300]))


def _column(kind: str, rng, n: int) -> np.ndarray:
    if kind == "offset":
        return rng.normal(1e3, 3.0, n)
    if kind == "constant":
        return np.full(n, 2.5)  # its std is 0, so compute_stats gives 1.0
    return np.full(n, -0.0)


def _ragged_samples(d_a: int, d_u: int, first: int) -> list[Sample]:
    kinds = ("offset", "constant", "negative-zero")
    rng = np.random.default_rng(100 * d_a + first)
    samples = []
    for n in rng.integers(4, 300, 40):
        fields = [
            np.stack([_column(kinds[(first + j) % 3], rng, n) for j in range(c)], axis=1).astype(np.float32)
            for c in (d_a, d_u)
        ]
        samples.append(Sample(np.zeros((n, 2), np.float32), *fields))
    return samples


def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def _concatenate_then_std(samples: list[Sample]) -> list[np.ndarray]:
    """The formula compute_stats replaced: each field concatenated in float64, then ndarray.mean and ndarray.std."""
    expected = []
    for name in ("input", "target"):
        arr = np.concatenate([getattr(s, name) for s in samples], axis=0).astype(np.float64)
        std = arr.std(axis=0)
        expected += [arr.mean(axis=0), np.where(std > 0, std, 1.0)]
    return expected


def _assert_bits_match(stats: NormStats, expected: list[np.ndarray]) -> None:
    got = [stats.input_mean, stats.input_std, stats.target_mean, stats.target_std]
    for g, e in zip(got, expected, strict=True):
        assert g.shape == e.shape and np.array_equal(_bits(g), _bits(e))


class TestComputeStats:
    @pytest.mark.parametrize("d_a, d_u", [(1, 3), (2, 1), (3, 2)])
    def test_bits_match_concatenate_then_std(self, d_a, d_u):
        for first in range(3):
            samples = _ragged_samples(d_a, d_u, first)
            stats = compute_stats(samples)
            _assert_bits_match(stats, _concatenate_then_std(samples))
            assert 1.0 in stats.input_std or 1.0 in stats.target_std

    @pytest.mark.parametrize("window", [128, 1000, data._STATS_WINDOW])
    def test_windowed_sums_keep_the_bits_of_concatenate_then_std(self, window, monkeypatch):
        """Totals on both sides of numpy's pairwise block (8 and 128 rows) and of 2^k, cut into samples that
        windows cut in two, some empty, with offset, constant and -0.0 columns."""
        monkeypatch.setattr(data, "_STATS_WINDOW", window)
        rng = np.random.default_rng(window)
        kinds = ("offset", "constant", "negative-zero")
        totals = [*range(1, 8), *range(8, 129, 24), 128, 129, *(2**k + e for k in range(7, 18) for e in (-1, 0, 1))]
        for case, total in enumerate(totals):
            for d_a in (1, 2, 3):
                sizes = np.diff([0, *sorted(rng.integers(0, total + 1, 3)), total])
                columns = [_column(kinds[(case + j) % 3], rng, total) for j in range(d_a + 1)]
                field = np.stack(columns, axis=1).astype(np.float32)
                samples = [
                    Sample(np.zeros((hi - lo, 2), np.float32), field[lo:hi, 1:], field[lo:hi, :1])
                    for lo, hi in itertools.pairwise(np.cumsum([0, *sizes]))
                ]
                _assert_bits_match(compute_stats(samples), _concatenate_then_std(samples))

    def test_a_million_rows_keep_the_bits_of_concatenate_then_std(self):
        rng = np.random.default_rng(6)
        samples = [
            Sample(np.zeros((n, 2), np.float32), *(rng.normal(3.0, 2.0, (n, c)).astype(np.float32) for c in (2, 1)))
            for n in rng.integers(2048, 8192, 200)
        ]
        assert sum(len(s.coords) for s in samples) > 10**6
        _assert_bits_match(compute_stats(samples), _concatenate_then_std(samples))

    @pytest.mark.parametrize("rows", [1, 2, 128, 2**15 + 1])
    @pytest.mark.parametrize("width", range(2, 9))
    def test_einsum_adds_rows_in_the_order_of_the_reduction(self, rows, width):
        """compute_stats sums a window of several channels, whose first row carries the running sums, with
        ``np.einsum("ij->j")``: it must have the bits of ``np.add.reduce(axis=0)``, which adds rows in order.
        Magnitudes spread over e^-25..e^25, with both signs, so any other order of addition shows."""
        rng = np.random.default_rng(1000 * width + rows)
        buf = np.empty((2**15 + 2, width))  # a window is a leading slice of a larger buffer, as in compute_stats
        window = buf[:rows]
        window[:] = rng.choice([-1.0, 1.0], (rows, width)) * np.exp(rng.uniform(-25.0, 25.0, (rows, width)))
        assert _bits(np.einsum("ij->j", window)).tolist() == _bits(np.add.reduce(window, axis=0)).tolist()

    @pytest.mark.parametrize("count", [64, 256])
    def test_traced_peak_is_a_fixed_window(self, count):
        """However many samples a split has, its statistics hold a fixed float64 window of each field:
        concatenating 64 samples of 8192 points and 3 channels alone would take 12.6 MB."""
        field = np.random.default_rng(5).normal(size=(8192, 3)).astype(np.float32)
        samples = [Sample(np.zeros((8192, 2), np.float32), field, field[:, :1]) for _ in range(count)]
        tracemalloc.start()
        try:
            compute_stats(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20
