"""Synthetic operator-learning tasks with exact numerical oracles, the sample
body of the shared container, and a split's JSON manifest.

The target-producing solvers deliberately share no code with the model:
the grid task uses a sparse direct Poisson solve, the point-cloud task a
closed-form radial field.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .engine import Rng
from .errors import ConfigError, DataError
from .formats import SEED_BOUNDS, check_value, check_values, create_record, open_record, read_f32, read_json_object
from .formats import read_u32, require_object, write_f32, write_u32

SAMPLE_MAGIC = b"PGDS"
SAMPLE_VERSION = 1
MANIFEST_NAME = "manifest.json"
# each generator argument's bounds; `pgot gen` reads them for its flags
GENERATOR_BOUNDS = dict(seed=SEED_BOUNDS, samples=(int, 1), resolution=(int, 8, 65), points=(int, 64, 2049))


@dataclass
class Sample:
    coords: np.ndarray  # (N, d) f32
    input: np.ndarray  # (N, d_a) f32
    target: np.ndarray  # (N, d_u) f32
    meta: dict = field(default_factory=dict)

    def validate(self) -> "Sample":
        """Refuse, with ``DataError``, a field that is not 2-D with one row per point of ``coords``, has no
        channels, holds NaN or Inf, or fewer than 4 points."""
        for name, arr in (("coords", self.coords), ("input", self.input), ("target", self.target)):
            if arr.ndim != 2 or arr.shape[0] != self.coords.shape[0]:
                raise DataError(f"sample field {name} must be 2-D with one row per point, got shape {arr.shape}")
            if arr.shape[1] == 0:
                raise DataError(f"sample field {name} has no channels, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"sample field {name} contains NaN/Inf")
        check_value("sample point count", self.coords.shape[0], int, 4)
        return self


@dataclass
class NormStats:
    """Per-channel z-score statistics, computed on the train split only."""

    input_mean: np.ndarray
    input_std: np.ndarray
    target_mean: np.ndarray
    target_std: np.ndarray

    def to_dict(self) -> dict:
        return {key: arr.tolist() for key, arr in vars(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "NormStats":
        """Stats from a manifest's "normalization" object: a list of finite
        numbers per key, one per channel, with positive standard deviations."""
        data = require_object(data, "normalization")
        arrays = {}
        for key in (f.name for f in fields(cls)):
            values = data.get(key)
            if not isinstance(values, list):
                raise DataError(f"normalization {key} must be a list of finite numbers, got {values!r:.40}")
            checked = [check_value(f"normalization {key}[{i}]", v, float) for i, v in enumerate(values)]
            arrays[key] = np.array(checked, dtype=np.float64)
        for kind in ("input", "target"):
            mean, std = arrays[f"{kind}_mean"], arrays[f"{kind}_std"]
            if std.shape != mean.shape or np.any(std <= 0):
                raise DataError(f"normalization {kind}_std must be positive, one per {kind}_mean entry")
        return cls(**arrays)

    def check_channels(self, sample: Sample, what: str) -> None:
        """Refuse ``sample`` unless it has one input and one target channel per entry of these stats."""
        if (sample.input.shape[1], sample.target.shape[1]) != (self.input_mean.size, self.target_mean.size):
            raise DataError(f"{what}: channel counts differ from the manifest's normalization stats")


def compute_stats(samples: list[Sample]) -> NormStats:
    """Per-channel mean and standard deviation over every point of ``samples``.

    The statistics are the bits of concatenating each field in float64 and
    calling ``ndarray.mean`` and ``ndarray.std`` on it, yet the call holds no
    more than ``_STATS_WINDOW`` float64 rows of one field at a time (768 KiB
    for 3 channels), however many samples there are. It reproduces numpy
    2.4's order of addition, from 0.0: a field of several channels adds its
    rows in order, so each window's sum starts from a row holding the
    running sums; ``np.einsum("ij->j")`` takes that sum, adding rows in the
    same order as ``np.add.reduce(axis=0)`` in about half the time. A
    1-channel field is numpy's pairwise sum, where einsum's order differs,
    so ranges are halved at numpy's split, ``n // 2`` rounded down to a
    multiple of 8, until one fits the window, and numpy sums that range
    itself. Per-sample sums would miss by an ulp. A zero standard deviation
    becomes 1.0. No samples, or samples whose channel counts disagree, raise
    ``DataError``.
    """
    if not samples:
        raise DataError("normalization statistics need at least one sample")
    channels = {(s.input.shape[1], s.target.shape[1]) for s in samples}
    if len(channels) > 1:
        raise DataError(f"samples disagree on channel counts (input, target): {sorted(channels)}")
    return NormStats(*_field_stats([s.input for s in samples]), *_field_stats([s.target for s in samples]))


# float64 rows of one field that compute_stats holds at a time; at least numpy's pairwise block of 128 rows,
# which numpy sums without splitting
_STATS_WINDOW = 2**15


def _field_stats(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    starts = list(itertools.accumulate(map(len, arrays), initial=0))
    count, width = starts[-1], arrays[0].shape[1]
    buf = np.empty((min(count, _STATS_WINDOW) + 1, width))  # buf[0] carries running sums, buf[1:] a window

    def window(lo: int, hi: int, mean) -> np.ndarray:
        """Rows [lo, hi) of the concatenated field in float64, in ``buf[1:]``, or their squared deviations
        from ``mean`` when it is given."""
        block = buf[1 : 1 + hi - lo]
        i, at = bisect.bisect_right(starts, lo) - 1, lo
        while at < hi:
            part = arrays[i][at - starts[i] : hi - starts[i]]
            block[at - lo : at - lo + len(part)] = part
            at, i = at + len(part), i + 1
        if mean is not None:
            block -= mean
            block *= block
        return block

    def sums(mean) -> np.ndarray:
        if width == 1:
            return 0.0 + _pairwise_sum(window, mean, 0, count)
        buf[0] = 0.0
        for lo in range(0, count, _STATS_WINDOW):
            hi = min(lo + _STATS_WINDOW, count)
            window(lo, hi, mean)
            buf[0] = np.einsum("ij->j", buf[: 1 + hi - lo])
        return buf[0].copy()

    mean = sums(None) / count
    std = np.sqrt(sums(mean) / count)
    return mean, np.where(std > 0, std, 1.0)


def _pairwise_sum(window, mean, lo: int, hi: int) -> np.ndarray:
    """numpy's pairwise sum of rows [lo, hi) of ``window``: halved at numpy's split until a range fits one
    window, which numpy sums itself (-0.0 + s is s)."""
    n = hi - lo
    if n > _STATS_WINDOW:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(window, mean, lo, lo + half) + _pairwise_sum(window, mean, lo + half, hi)
    return np.add.reduce(window(lo, hi, mean), axis=0, initial=-0.0)


def normalize(arr: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """z-scored ``arr`` in float32; statistics that overflow float32 (a tiny std) raise ``DataError``."""
    out = ((arr - mean) / std).astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise DataError("normalized field overflows float32: the manifest's normalization std is too small")
    return out


def denormalize(arr: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (arr * std + mean).astype(np.float32)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _poisson_operator(n: int):
    """5-point-stencil Dirichlet Laplacian on the interior of an n x n grid, as a scipy CSC matrix."""
    import scipy.sparse as sp  # only the generators solve systems: reading and training never load scipy

    m = n - 2
    h = 1.0 / (n - 1)
    off = sp.diags([-1.0] * (m - 1), 1) + sp.diags([-1.0] * (m - 1), -1)
    t = sp.diags([4.0] * m) + off
    eye = sp.identity(m)
    lap = (sp.kron(eye, t) + sp.kron(off, eye)) / (h * h)
    return lap.tocsc()


def _poisson_solver(n: int):
    """Direct solver of -laplace(u) = a on the unit square, zero boundary, for n x n grids.

    It factors the Dirichlet Laplacian once with ``splu`` and solves every
    grid it is given against that factor. ``spsolve`` builds the same SuperLU
    factorization on each call, so each solution has the bits ``spsolve``
    gives. A grid is the full n x n field including boundary nodes; its
    solution has zeros on the boundary.
    """
    import scipy.sparse.linalg as spla

    lu = spla.splu(_poisson_operator(n))

    def solve(source_grid: np.ndarray) -> np.ndarray:
        u = np.zeros((n, n), dtype=np.float64)
        u[1:-1, 1:-1] = lu.solve(source_grid[1:-1, 1:-1].reshape(-1)).reshape(n - 2, n - 2)
        return u

    return solve


def solve_poisson(source_grid: np.ndarray) -> np.ndarray:
    """Direct solve of -laplace(u) = a on the unit square, zero boundary.

    ``source_grid`` is the full n x n field including boundary nodes; the
    returned grid has zeros on the boundary.
    """
    return _poisson_solver(source_grid.shape[0])(source_grid)


def sample_keys(seed: int, samples: int) -> list[int]:
    """The Philox key of each of the ``samples`` samples a generator draws from ``seed``: sample i is keyed
    ``seed ^ i``, and its meta stores the key as "seed"."""
    return [seed ^ i for i in range(samples)]


def _poisson2d(resolution: int):
    """The draw of one poisson2d sample: a random sum of sine modes as the source, solved on the grid. The
    grid and the Laplacian's factorization are made once, for every sample drawn."""
    xs = np.linspace(0.0, 1.0, resolution)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    coords = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    solve = _poisson_solver(resolution)

    def draw(rng: Rng):
        a = np.zeros_like(gx)
        for _ in range(int(rng.integers(1, 6))):
            p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            c = float(rng.uniform(-1.0, 1.0, ()))
            a += c * np.sin(p * np.pi * gx) * np.sin(q * np.pi * gy)
        return coords, a.reshape(-1, 1), solve(a).reshape(-1, 1)

    return draw


def gen_poisson2d(seed: int, resolution: int, samples: int) -> list[Sample]:
    """Smooth random sources on a structured grid; targets from the direct solve, one factorization per call."""
    return generate("poisson2d", seed, resolution, samples)


def radial_field(r: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    return np.log(r / r_in) / np.log(r_out / r_in)


def _pointcloud_stress(points: int):
    """The draw of one annulus cloud of ``points`` points, the first candidates inside the annulus.

    Candidates come in chunks of ceil(1.5 * points) rows, and drawing stops
    once ``points`` of them fall inside: the generator fills each chunk from
    the Philox stream in order, so the k-th candidate is the k-th row of one
    draw of 4 * points rows, and the cloud has its bits. The annulus covers
    at least pi (1 - 0.35^2) / 4 = 68.9 % of the square, so one chunk
    usually suffices, and all 4 * points candidates hold too few points with
    probability 5.5e-48 at 64 points (the binomial tail), and less at more;
    then ``DataError`` is raised.
    """
    chunk, limit = -(-3 * points // 2), 4 * points

    def draw(rng: Rng):
        r_out = 1.0
        r_in = float(rng.uniform(0.15, 0.35, ()))
        parts, kept, drawn = [], 0, 0
        while kept < points and drawn < limit:
            rows = min(chunk, limit - drawn)
            candidates = rng.uniform(-1.0, 1.0, (rows, 2))
            r = np.hypot(candidates[:, 0], candidates[:, 1], dtype=np.float64)  # float32 widens exactly
            inside = np.flatnonzero((r >= r_in) & (r <= r_out))[: points - kept]
            parts.append((candidates.take(inside, axis=0), r.take(inside)))
            kept, drawn = kept + len(inside), drawn + rows
        if kept < points:
            raise DataError(f"annulus sampling kept fewer than {points} of {limit} candidate points")
        coords, r = (np.concatenate(part) for part in zip(*parts))
        dist_boundary = np.minimum(r - r_in, r_out - r)
        inputs = np.stack([np.full_like(r, r_in), dist_boundary], axis=1)
        return coords, inputs, radial_field(r, r_in, r_out).reshape(-1, 1)

    return draw


def gen_pointcloud_stress(seed: int, points: int, samples: int) -> list[Sample]:
    """Scattered points in an annulus; closed-form logarithmic radial target."""
    return generate("pointcloud_stress", seed, points, samples)


# task -> (its size argument's name, which is also its `pgot gen` flag; its draw factory)
TASKS = {
    "poisson2d": ("resolution", _poisson2d),
    "pointcloud_stress": ("points", _pointcloud_stress),
}


def generate(task: str, seed: int, size: int, samples: int) -> list[Sample]:
    """``samples`` samples of ``task``, one per key of ``sample_keys``, unchecked until ``write_dataset``. Once
    the arguments are checked, the task's ``make_draw(size)`` does the work the samples share and returns
    ``draw``; ``draw(Rng(key))`` returns one sample's (coords, input, target) arrays."""
    size_name, make_draw = TASKS[task]
    check_values({"seed": seed, size_name: size, "samples": samples}, GENERATOR_BOUNDS)
    draw = make_draw(size)
    out = []
    for key in sample_keys(seed, samples):
        coords, inputs, target = (arr.astype(np.float32) for arr in draw(Rng(key)))
        out.append(Sample(coords, inputs, target, meta={"task": task, "seed": key, size_name: size}))
    return out


def write_sample(sample: Sample, path) -> None:
    with create_record(path, SAMPLE_MAGIC, SAMPLE_VERSION) as fh:
        write_u32(fh, *sample.coords.shape, sample.input.shape[1], sample.target.shape[1])
        for arr in (sample.coords, sample.input, sample.target):
            write_f32(fh, arr)


def read_sample(path, meta: dict | None = None) -> Sample:
    with open_record(path, SAMPLE_MAGIC, SAMPLE_VERSION) as fh:
        n, d, d_a, d_u = read_u32(fh, 4, "header")
        coords = read_f32(fh, (n, d), "coords")
        inputs = read_f32(fh, (n, d_a), "input")
        target = read_f32(fh, (n, d_u), "target")
    return Sample(coords.copy(), inputs.copy(), target.copy(), meta=dict(meta or {})).validate()


def write_dataset(samples: list[Sample], out_dir, task: str, stats: NormStats | None = None) -> dict:
    """Write one PGDS file per sample plus the split manifest.

    With no ``stats`` this is a train split, which computes its own
    normalization statistics; given the train split's ``stats``, a test split.
    No samples, a sample that fails ``Sample.validate``, or one whose channel
    counts differ from the statistics, or in a train split from another
    sample's, is refused with ``DataError`` before anything is created.
    """
    if not samples:
        raise DataError("a split needs at least one sample")
    for i, sample in enumerate(samples):
        try:
            sample.validate()
        except DataError as exc:
            raise DataError(f"sample {i}: {exc}") from None
    out_dir = Path(out_dir)
    split = "train" if stats is None else "test"
    if stats is None:
        stats = compute_stats(samples)
    for i, sample in enumerate(samples):
        stats.check_channels(sample, f"sample {i}")
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for i, sample in enumerate(samples):
        name = f"sample_{i:04d}.pgds"
        write_sample(sample, out_dir / name)
        files.append({"file": name, "n": int(sample.coords.shape[0]), "meta": sample.meta})
    manifest = {
        "task": task,
        "split": split,
        "count": len(samples),
        "samples": files,
        "normalization": stats.to_dict(),
    }
    with open(out_dir / MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


def read_manifest(path) -> tuple[dict, NormStats]:
    """Load a split manifest and its normalization stats, checking everything
    its readers rely on: a non-empty "samples" list of objects whose "file" is
    a plain name inside the dataset directory, and well-formed "normalization"."""
    if not os.path.isfile(path):
        raise DataError(f"no manifest file {os.fspath(path)!r}")
    with open(path, "rb") as fh:
        manifest = read_json_object(fh.read(), "manifest")
    entries = manifest.get("samples")
    if not isinstance(entries, list) or not entries:
        raise DataError(f"manifest samples must be a non-empty list, got {entries!r:.40}")
    for index, entry in enumerate(entries):
        entry = require_object(entry, f"manifest samples[{index}]")
        name = entry.get("file")
        if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name or "\0" in name:
            raise DataError(f"manifest samples[{index}] file must be a plain file name, got {name!r:.40}")
        require_object(entry.get("meta") or {}, f"manifest samples[{index}] meta")
    return manifest, NormStats.from_dict(manifest.get("normalization"))


def read_train_stats(path, task: str, seed: int, samples: int) -> NormStats:
    """The stats of the train manifest at ``path`` for a test split of ``task`` drawn from ``seed``, checked before
    any sample is drawn. ``read_manifest`` refuses a missing or damaged manifest; ``ConfigError`` refuses one
    that is not a train split of ``task`` (at any size), or whose samples' meta hold one of the test split's
    ``sample_keys`` as an int "seed": that test split would not be held out."""
    manifest, stats = read_manifest(path)
    split, found = manifest.get("split"), manifest.get("task")
    if split != "train" or found != task:
        what = f"a {split!r:.40} split of {found!r:.40}"
        raise ConfigError(f"--train-manifest {path} is {what}, not a 'train' split of {task!r}")
    # a manifest may hold any JSON value as a sample's seed, and only an int can be a key
    metas = [entry.get("meta") or {} for entry in manifest["samples"]]
    keys = {m.get("seed") for m in metas if type(m.get("seed")) is int}
    shared = next((key for key in sample_keys(seed, samples) if key in keys), None)
    if shared is not None:
        raise ConfigError(f"--seed {seed} would reuse train sample key {shared} (seed XOR index): try another")
    return stats


def read_dataset(path) -> tuple[list[Sample], dict]:
    path = Path(path)
    manifest, stats = read_manifest(path / MANIFEST_NAME)
    samples = []
    for entry in manifest["samples"]:
        sample = read_sample(path / entry["file"], meta=entry.get("meta"))
        stats.check_channels(sample, entry["file"])
        samples.append(sample)
    return samples, manifest
