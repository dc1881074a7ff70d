"""Synthetic operator-learning tasks with exact numerical oracles, plus the
on-disk formats (the binary container of samples and checkpoints, a JSON manifest).

The target-producing solvers deliberately share no code with the model:
the grid task uses a sparse direct Poisson solve, the point-cloud task a
closed-form radial field.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .engine import Rng
from .errors import BadMagicError, DataError, TruncatedError, VersionError

SAMPLE_MAGIC = b"PGDS"
SAMPLE_VERSION = 1
MANIFEST_NAME = "manifest.json"
# [low, high) of each generator argument; `pgot gen` reads the same bounds for its flags. A seed is a
# Philox key, which has 128 bits; a model's seed shares the bound
GENERATOR_BOUNDS = {"seed": (0, 2**128), "samples": (1, math.inf), "resolution": (8, 65), "points": (64, 2049)}


@dataclass
class Sample:
    coords: np.ndarray  # (N, d) f32
    input: np.ndarray  # (N, d_a) f32
    target: np.ndarray  # (N, d_u) f32
    meta: dict = field(default_factory=dict)

    def validate(self) -> "Sample":
        for name, arr in (("coords", self.coords), ("input", self.input), ("target", self.target)):
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

    Each field is concatenated into one float64 array, its mean taken, and
    the deviations squared in place, so the call holds one float64 copy of
    one field at a time. These are the reductions ``ndarray.mean`` and
    ``ndarray.std`` run, on arrays of the same shapes, so the statistics keep
    their bits; summing per sample instead would not (numpy adds a
    1-channel column pairwise). A zero standard deviation becomes 1.0.
    Samples whose channel counts disagree raise ``DataError``.
    """
    channels = {(s.input.shape[1], s.target.shape[1]) for s in samples}
    if len(channels) > 1:
        raise DataError(f"samples disagree on channel counts (input, target): {sorted(channels)}")
    return NormStats(*_field_stats([s.input for s in samples]), *_field_stats([s.target for s in samples]))


def _field_stats(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    x = np.concatenate(arrays, axis=0, dtype=np.float64)
    mean = x.mean(axis=0)
    x -= mean
    x *= x
    std = np.sqrt(x.mean(axis=0))
    return mean, np.where(std > 0, std, 1.0)


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


def solve_poisson(source_grid: np.ndarray) -> np.ndarray:
    """Direct solve of -laplace(u) = a on the unit square, zero boundary.

    ``source_grid`` is the full n x n field including boundary nodes; the
    returned grid has zeros on the boundary.
    """
    import scipy.sparse.linalg as spla

    n = source_grid.shape[0]
    lap = _poisson_operator(n)
    rhs = source_grid[1:-1, 1:-1].reshape(-1)
    interior = spla.spsolve(lap, rhs)
    u = np.zeros((n, n), dtype=np.float64)
    u[1:-1, 1:-1] = interior.reshape(n - 2, n - 2)
    return u


def sample_keys(seed: int, samples: int) -> list[int]:
    """The Philox key of each of the ``samples`` samples a generator draws from ``seed``: sample i is keyed
    ``seed ^ i``, and its meta stores the key as "seed"."""
    return [seed ^ i for i in range(samples)]


def _generate(task: str, draw, seed: int, size_name: str, size: int, samples: int) -> list[Sample]:
    """``samples`` samples of ``task``, one per key of ``sample_keys``, each from ``draw(Rng(key), size)``,
    which returns its (coords, input, target) arrays."""
    for name, value in (("seed", seed), (size_name, size), ("samples", samples)):
        check_value(name, value, int, *GENERATOR_BOUNDS[name])
    out = []
    for key in sample_keys(seed, samples):
        coords, inputs, target = (arr.astype(np.float32) for arr in draw(Rng(key), size))
        out.append(Sample(coords, inputs, target, meta={"task": task, "seed": key, size_name: size}).validate())
    return out


def _draw_poisson2d(rng: Rng, resolution: int):
    xs = np.linspace(0.0, 1.0, resolution)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    a = np.zeros_like(gx)
    for _ in range(int(rng.integers(1, 6))):
        p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        c = float(rng.uniform(-1.0, 1.0, ()))
        a += c * np.sin(p * np.pi * gx) * np.sin(q * np.pi * gy)
    coords = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    return coords, a.reshape(-1, 1), solve_poisson(a).reshape(-1, 1)


def gen_poisson2d(seed: int, resolution: int, samples: int) -> list[Sample]:
    """Smooth random sources on a structured grid; targets from the direct solve."""
    return _generate("poisson2d", _draw_poisson2d, seed, "resolution", resolution, samples)


def radial_field(r: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    return np.log(r / r_in) / np.log(r_out / r_in)


def _draw_pointcloud_stress(rng: Rng, points: int):
    # the annulus covers at least pi (1 - 0.35^2) / 4 = 68.9 % of the square, so 4 * points candidates
    # hold too few points with probability 5.5e-48 at 64 points (the binomial tail), and less at more
    r_out = 1.0
    r_in = float(rng.uniform(0.15, 0.35, ()))
    candidates = rng.uniform(-1.0, 1.0, (points * 4, 2)).astype(np.float64)
    r = np.hypot(candidates[:, 0], candidates[:, 1])
    inside = (r >= r_in) & (r <= r_out)
    if np.count_nonzero(inside) < points:
        raise DataError(f"annulus sampling kept fewer than {points} of {points * 4} candidate points")
    coords, r = candidates[inside][:points], r[inside][:points]
    dist_boundary = np.minimum(r - r_in, r_out - r)
    inputs = np.stack([np.full_like(r, r_in), dist_boundary], axis=1)
    return coords, inputs, radial_field(r, r_in, r_out).reshape(-1, 1)


def gen_pointcloud_stress(seed: int, points: int, samples: int) -> list[Sample]:
    """Scattered points in an annulus; closed-form logarithmic radial target."""
    return _generate("pointcloud_stress", _draw_pointcloud_stress, seed, "points", points, samples)


GENERATORS = {
    "poisson2d": gen_poisson2d,
    "pointcloud_stress": gen_pointcloud_stress,
}


# ---------------------------------------------------------------------------
# binary container (magic, u32 version, body, no trailing bytes); sample body
# ---------------------------------------------------------------------------


@contextmanager
def create_record(path, magic: bytes, version: int):
    """Write magic, version and the caller's body to a temporary file beside
    ``path``, then rename it over ``path``: a failed write leaves ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            write_u32(fh, version)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


@contextmanager
def open_record(path, magic: bytes, version: int):
    """Check the magic and version, yield the file for the caller to read the
    body, then refuse trailing bytes."""
    with open(path, "rb") as fh:
        found = read_exact(fh, 4, "magic")
        if found != magic:
            raise BadMagicError(f"bad magic {found!r}, expected {magic!r}")
        (found_version,) = read_u32(fh, 1, "version")
        if found_version != version:
            raise VersionError(f"unsupported {magic.decode()} version {found_version}")
        yield fh
        if fh.read(1):
            raise DataError(f"unexpected trailing bytes after {magic.decode()} payload")


def write_u32(fh, *values: int) -> None:
    fh.write(struct.pack(f"<{len(values)}I", *values))


def read_exact(fh, n: int, what: str) -> bytes:
    # checked against the bytes left before reading: a corrupt size field can
    # ask for more than fits in memory or in an index
    offset = fh.tell()
    left = os.fstat(fh.fileno()).st_size - offset
    if n > left:
        raise TruncatedError(f"truncated payload reading {what} at byte {offset}: expected {n} bytes, got {left}")
    return fh.read(n)


def read_u32(fh, count: int, what: str) -> tuple[int, ...]:
    return struct.unpack(f"<{count}I", read_exact(fh, 4 * count, what))


def write_sample(sample: Sample, path) -> None:
    with create_record(path, SAMPLE_MAGIC, SAMPLE_VERSION) as fh:
        write_u32(fh, *sample.coords.shape, sample.input.shape[1], sample.target.shape[1])
        for arr in (sample.coords, sample.input, sample.target):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_sample(path, meta: dict | None = None) -> Sample:
    with open_record(path, SAMPLE_MAGIC, SAMPLE_VERSION) as fh:
        n, d, d_a, d_u = read_u32(fh, 4, "header")
        coords = np.frombuffer(read_exact(fh, 4 * n * d, "coords"), dtype="<f4").reshape(n, d)
        inputs = np.frombuffer(read_exact(fh, 4 * n * d_a, "input"), dtype="<f4").reshape(n, d_a)
        target = np.frombuffer(read_exact(fh, 4 * n * d_u, "target"), dtype="<f4").reshape(n, d_u)
    return Sample(coords.copy(), inputs.copy(), target.copy(), meta=dict(meta or {})).validate()


def write_dataset(samples: list[Sample], out_dir, task: str, stats: NormStats | None = None) -> dict:
    """Write one PGDS file per sample plus the split manifest.

    With no ``stats`` this is a train split, which computes its own
    normalization statistics; given the train split's ``stats``, a test split.
    A sample whose channel counts differ from the statistics, or in a train
    split from another sample's, is refused before anything is created.
    """
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


def read_json_object(raw: bytes, what: str, error: type[Exception] = DataError) -> dict:
    """Parse UTF-8 JSON text that must hold one object; any fault raises ``error``."""
    try:
        value = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past Python's 4300-digit limit
        raise error(f"{what} is not UTF-8 JSON: {exc}") from None
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise error(f"{what} is nested too deeply") from None
    return require_object(value, what, error)


def require_object(value, what: str, error: type[Exception] = DataError) -> dict:
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {value!r:.40}")
    return value


def check_value(name: str, value, kind: type, low=-math.inf, high=math.inf, error: type[Exception] = DataError):
    """Return ``value`` if it is a ``kind`` (int, float or bool; an int passes for a float, a bool only for a
    bool) that is finite as a float and lies in [low, high), compared exactly; else raise ``error`` naming it."""
    inside = isinstance(value, (int, float) if kind is float else kind)
    inside = inside and (kind is bool or not isinstance(value, bool))
    got = None
    try:
        inside = inside and math.isfinite(value) and low <= value < high
    except OverflowError:  # an integer beyond the float range; repr refuses one past 4300 digits
        inside, got = False, f"an integer of {value.bit_length()} bits"
    if not inside:
        bounds = "" if kind is bool else f" in [{low}, {high})"
        raise error(f"{name} must be {kind.__name__}{bounds}, got {got or repr(value)[:40]}")
    return value


def read_manifest(path) -> tuple[dict, NormStats]:
    """Load a split manifest and its normalization stats, checking everything
    its readers rely on: a non-empty "samples" list of objects whose "file" is
    a plain name inside the dataset directory, and well-formed "normalization"."""
    if not os.path.isfile(path):
        raise DataError(f"no manifest file {path}")
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


def read_dataset(path) -> tuple[list[Sample], dict]:
    path = Path(path)
    manifest, stats = read_manifest(path / MANIFEST_NAME)
    samples = []
    for entry in manifest["samples"]:
        sample = read_sample(path / entry["file"], meta=entry.get("meta"))
        stats.check_channels(sample, entry["file"])
        samples.append(sample)
    return samples, manifest
