"""Print one ``name hash`` line per pgot output, so two versions of the code can be diffed.

Each output is computed in float32 mode (``f32/`` names) and inside
``engine.float64_mode`` (``f64/`` names):

* ``gen.*``: the samples of ``gen_poisson2d(7, 16, 2)`` and ``gen_pointcloud_stress(3, 64, 2)``, and
  at the largest size each generator takes, ``gen.poisson2d.R64`` (``gen_poisson2d(7, 64, 2)``) and
  ``gen.pointcloud_stress.P2048`` (``gen_pointcloud_stress(3, 2048, 2)``);
* ``dataset.train``: every file ``write_dataset`` writes for those Poisson samples, in
  sorted name order; ``dataset.test``: the same for ``gen_poisson2d(99, 16, 2)`` written
  against that train split's statistics; ``dataset.read``: the samples and the ``NormStats``
  arrays that ``read_dataset`` and ``NormStats.from_dict`` give back for the train split;
  ``dataset.pointcloud_stress``: the same as ``dataset.train`` for
  ``gen_pointcloud_stress(3, 64, 3)``, whose 2-channel input has its statistics summed
  row by row, not pairwise;
* ``stats.*``: the ``compute_stats`` arrays, mean then std, of the 2-channel input
  (``stats.pointcloud_stress.P2048x96.input``) and the 1-channel target (``.target``) of
  ``gen_pointcloud_stress(3, 2048, 96)``, and all four of ``gen_poisson2d(7, 64, 16)``
  (``stats.poisson2d.R64x16``): fields of several ``data._STATS_WINDOW``-row windows, whose
  sums run row by row and pairwise;
* ``init.seed5``: every parameter of a seed-5 default model;
* ``bench.random_cloud.N<n>``: ``bench._random_cloud`` from bench's fixed seed;
* ``geometry.pos_embed.<mesh>.F<f>``: the position features ``predict`` reads,
  ``Tensor(pos_embed(normalize_coords(coords), f)).data`` in each mode's storage dtype, with
  ``f`` 8 (the default) and 24 (the largest), for the 16x16 grid of ``gen_poisson2d``
  (``grid16``), a 9x9 grid (``grid9``) and each size's ``bench._random_cloud``
  (``random_cloud.N<n>``);
* ``engine.gelu.<shape>``: ``engine.gelu`` of a normal(0, 3) array drawn with numpy's own generator,
  off the tape and on it, and the gradient ``sum`` sends back to its input, which is the recorded
  derivative, for a (256, 32) array (less than one ``engine._GELU_BLOCK``), an (8192, 64) array
  and a (3, 1023, 48) stack;
* ``fwdbwd.<config>.N<n>``: the predictions and every parameter gradient of two
  fwd+bwd passes, for the default config, a ``d_a=2, d_u=3, slices=5`` config, a
  ``dropout=0.3, gate_force="half"`` config predicted with ``training=True``, and a
  ``layers=8`` config, whose tape holds four times as many block records;
* ``inspect.desk.N<n>``: the arrays ``PgotModel.inspect`` gives for a default model, in
  its key order (every block's slice assignment, then its gate): what ``pgot inspect`` dumps;
* ``eval.poisson2d`` and ``eval.pointcloud_stress``: the JSON of ``evaluate``'s dict for a
  seed-5 default model on ``gen_poisson2d(7, 16, 8)`` (one mesh) and for a seed-5 ``d_a=2``
  model on ``gen_pointcloud_stress(3, 64, 3)`` (a mesh each);
* ``train.checkpoint`` and ``train.report``: a 24-step ``train`` on the Poisson samples
  (the report without ``wall_time_s``);
* ``load.checkpoint``: the parameters ``load_checkpoint`` gives for that checkpoint;
* ``train.clipped.checkpoint`` and ``train.clipped.report``: the same ``train`` with
  ``clip_norm=0.05``, so every step clips its gradients.

A hash is the first 16 hex digits of a SHA-256 over each array's dtype, shape and
bytes; a missing gradient is hashed as an empty array. Run it with each version's
``src`` on ``PYTHONPATH`` and diff the outputs:

    PYTHONPATH=src python3 tools/output_hashes.py > new.txt
    PYTHONPATH=../parent/src python3 tools/output_hashes.py > old.txt
    diff old.txt new.txt

A version without ``predict(..., training=)`` and ``PgotModel.inspect`` is hashed with its
own copy of this tool (``../parent/tools/output_hashes.py``); CI does the same.

``--sizes`` picks the mesh sizes (default 37,1023,8192).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from pgot import bench, engine
from pgot.data import NormStats, compute_stats, gen_pointcloud_stress, gen_poisson2d, read_dataset, write_dataset
from pgot.engine import Rng, Tape, Tensor
from pgot.geometry import normalize_coords, pos_embed
from pgot.model import ModelConfig, PgotModel, load_checkpoint
from pgot.training import evaluate, relative_l2_loss, train

CONFIGS = {
    "desk": (ModelConfig(), False),
    "wide_io": (ModelConfig(d_a=2, d_u=3, slices=5), False),
    "dropout_half_gate": (ModelConfig(dropout=0.3, gate_force="half"), True),
    "layers8": (ModelConfig(layers=8), False),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(np.empty(0) if arr is None else arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def sample_arrays(samples):
    return [arr for s in samples for arr in (s.coords, s.input, s.target)]


def cloud(n: int, config: ModelConfig):
    """Inputs drawn with numpy's own generator, so they do not depend on pgot."""
    gen = np.random.default_rng(n)
    coords = gen.uniform(0.0, 1.0, (n, config.d)).astype(np.float32)
    a = gen.uniform(-1.0, 1.0, (n, config.d_a)).astype(np.float32)
    target = np.sin(3.0 * coords[:, :1]) + np.zeros((1, config.d_u), dtype=np.float32)
    return a, coords, target


def fwdbwd(config: ModelConfig, training: bool, n: int) -> str:
    model = PgotModel(config)
    a, coords, target = cloud(n, config)
    arrays = []
    for _ in range(2):
        with Tape() as tape:
            pred = model.predict(a, coords, training=training)
            tape.backward(relative_l2_loss(pred, target))
        arrays.append(pred.data)
        arrays.extend(p.grad for _, p in model.parameters())
        model.zero_grad()
    return digest(*arrays)


def gelu(shape: tuple) -> str:
    data = np.random.default_rng(len(shape)).normal(0.0, 3.0, shape)
    x = Tensor(data, requires_grad=True)
    with Tape() as tape:
        out = engine.gelu(x)
        tape.backward(engine.sum_(out))
    return digest(engine.gelu(Tensor(data)).data, out.data, x.grad)


def inspect(n: int) -> str:
    config = ModelConfig()
    a, coords, _ = cloud(n, config)
    return digest(*PgotModel(config).inspect(a, coords).values())


def evaluation(config: ModelConfig, samples) -> str:
    metrics = evaluate(PgotModel(config), samples, compute_stats(samples))
    return digest(np.frombuffer(json.dumps(metrics, sort_keys=True).encode(), dtype=np.uint8))


def trained(name: str, samples, ckpt: Path, **options):
    """The checkpoint and the report (without ``wall_time_s``) of a 24-step ``train``."""
    _, report = train(ModelConfig(), samples, compute_stats(samples), steps=24, checkpoint_path=ckpt, **options)
    yield f"{name}.checkpoint", digest(np.frombuffer(ckpt.read_bytes(), dtype=np.uint8))
    fields = {k: v for k, v in report.to_dict().items() if k != "wall_time_s"}
    yield f"{name}.report", digest(np.frombuffer(json.dumps(fields, sort_keys=True).encode(), dtype=np.uint8))


def dataset(samples, out_dir: Path, task: str, stats=None) -> str:
    write_dataset(samples, out_dir, task=task, stats=stats)
    return digest(*(np.frombuffer(f.read_bytes(), dtype=np.uint8) for f in sorted(out_dir.iterdir())))


def read_back(out_dir: Path) -> str:
    """The samples and the statistics a written split reads back as, through calls every version has."""
    samples, manifest = read_dataset(out_dir)
    return digest(*sample_arrays(samples), *vars(NormStats.from_dict(manifest["normalization"])).values())


def hashes(sizes: list[int], workdir: Path):
    poisson = gen_poisson2d(7, 16, 2)
    yield "gen.poisson2d", digest(*sample_arrays(poisson))
    yield "gen.pointcloud_stress", digest(*sample_arrays(gen_pointcloud_stress(3, 64, 2)))
    yield "gen.poisson2d.R64", digest(*sample_arrays(gen_poisson2d(7, 64, 2)))
    yield "gen.pointcloud_stress.P2048", digest(*sample_arrays(gen_pointcloud_stress(3, 2048, 2)))
    yield "dataset.train", dataset(poisson, workdir / "dataset", "poisson2d")
    yield "dataset.test", dataset(gen_poisson2d(99, 16, 2), workdir / "test", "poisson2d", compute_stats(poisson))
    yield "dataset.read", read_back(workdir / "dataset")
    yield "dataset.pointcloud_stress", dataset(gen_pointcloud_stress(3, 64, 3), workdir / "cloud", "pointcloud_stress")
    cloud_stats = compute_stats(gen_pointcloud_stress(3, 2048, 96))
    yield "stats.pointcloud_stress.P2048x96.input", digest(cloud_stats.input_mean, cloud_stats.input_std)
    yield "stats.pointcloud_stress.P2048x96.target", digest(cloud_stats.target_mean, cloud_stats.target_std)
    yield "stats.poisson2d.R64x16", digest(*vars(compute_stats(gen_poisson2d(7, 64, 16))).values())
    yield "init.seed5", digest(*(p.data for _, p in PgotModel(ModelConfig(seed=5)).parameters()))
    meshes = {"grid16": poisson[0].coords, "grid9": gen_poisson2d(7, 9, 1)[0].coords}
    for n in sizes:
        a, coords = bench._random_cloud(Rng(1234), n, 2, 1)
        yield f"bench.random_cloud.N{n}", digest(a, coords)
        meshes[f"random_cloud.N{n}"] = coords
    for mesh, coords in meshes.items():
        for f in (8, 24):
            yield f"geometry.pos_embed.{mesh}.F{f}", digest(Tensor(pos_embed(normalize_coords(coords), f)).data)
    for shape in ((256, 32), (8192, 64), (3, 1023, 48)):
        yield f"engine.gelu.{'x'.join(map(str, shape))}", gelu(shape)
    for name, (config, training) in CONFIGS.items():
        for n in sizes:
            yield f"fwdbwd.{name}.N{n}", fwdbwd(config, training, n)
    for n in sizes:
        yield f"inspect.desk.N{n}", inspect(n)
    yield "eval.poisson2d", evaluation(ModelConfig(seed=5), gen_poisson2d(7, 16, 8))
    yield "eval.pointcloud_stress", evaluation(ModelConfig(d_a=2, seed=5), gen_pointcloud_stress(3, 64, 3))
    ckpt = workdir / "checkpoint.pgck"
    yield from trained("train", poisson, ckpt)
    yield "load.checkpoint", digest(*(p.data for _, p in load_checkpoint(ckpt).parameters()))
    yield from trained("train.clipped", poisson, workdir / "clipped.pgck", clip_norm=0.05)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sizes", default="37,1023,8192", help="comma-separated mesh sizes")
    args = parser.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        for prefix, mode in (("f32", contextlib.nullcontext), ("f64", engine.float64_mode)):
            with mode():
                for name, value in hashes(sizes, Path(tmp)):
                    print(f"{prefix}/{name} {value}", flush=True)


if __name__ == "__main__":
    main()
