"""Command-line entry point: data generation, training, evaluation,
benchmarking, and inspection export.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bench import run_bench, write_bench_csv
from .data import (
    GENERATOR_BOUNDS, GENERATORS, MANIFEST_NAME, NormStats, check_value, normalize, read_dataset, read_json_object,
    read_manifest, read_sample, require_object, write_dataset
)
from .errors import ConfigError, DataError, MetricError, NumericalError
from .model import ModelConfig, check_dims, load_checkpoint
from .training import check_training_values, evaluate, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# [low, high) of each integer flag, and of each --sizes entry; bench also runs dense N x N attention at
# every size, so sizes stop at twice the largest the README uses
FLAG_BOUNDS = {**GENERATOR_BOUNDS, "sizes": (1, 16385), "repeats": (1, math.inf)}


def _load_config_file(path) -> tuple[ModelConfig, dict]:
    """The model config and the given training options, each type- and range-checked."""
    try:
        with open(path, "rb") as fh:
            raw = read_json_object(fh.read(), "config file", ConfigError)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    model_config = ModelConfig.from_dict(raw.get("model"))
    training = require_object(raw.get("training", {}), '"training"', ConfigError)
    check_training_values(**training)
    return model_config, training


def cmd_gen(args) -> int:
    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(f"output directory {out_dir} is not empty")
    stats = None
    if args.train_manifest:
        stats = NormStats.from_dict(read_manifest(args.train_manifest)["normalization"])
    size = args.resolution if args.task == "poisson2d" else args.points
    samples = GENERATORS[args.task](args.seed, size, args.samples)
    manifest = write_dataset(samples, out_dir, task=args.task, stats=stats)
    n = samples[0].coords.shape[0]
    print(f"wrote {manifest['count']} {args.task} samples ({n} points each) to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, train_opts = _load_config_file(args.config)
    samples, manifest = read_dataset(args.data)
    check_dims(config, samples)
    stats = NormStats.from_dict(manifest["normalization"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, report = train(config, samples, stats, checkpoint_path=out_dir / "checkpoint.pgck", **train_opts)
    report.save(out_dir / "report.json")
    print(f"final train relative L2: {report.final_train_rel_l2:.6f} ({report.wall_time_s:.1f}s)")
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    samples, manifest = read_dataset(args.data)
    stats = NormStats.from_dict(manifest["normalization"])
    metrics = evaluate(model, samples, stats)
    rho = "n/a" if metrics["spearman"] is None else f"{metrics['spearman']:.4f}"
    print(f"relative L2: {metrics['rel_l2']:.6f}  spearman rho: {rho}")
    print(json.dumps({"rel_l2": metrics["rel_l2"], "spearman": metrics["spearman"]}, sort_keys=True))
    return EXIT_OK


def cmd_bench(args) -> int:
    config, _ = _load_config_file(args.config)
    records = run_bench(config, args.sizes, repeats=args.repeats)
    dense_config = dataclasses.replace(config, dense_attention=True)
    dense_records = run_bench(dense_config, args.sizes, repeats=args.repeats)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_bench_csv(records, out)
    dense_out = out.with_name(out.stem + "_dense" + out.suffix)
    write_bench_csv(dense_records, dense_out)
    print(f"wrote {out} and {dense_out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.checkpoint)
    sample = read_sample(args.sample)
    check_dims(model.config, [sample])
    # the model reads normalized inputs, as in `pgot eval`: take the stats of the dataset the sample sits in
    stats = NormStats.from_dict(read_manifest(Path(args.sample).with_name(MANIFEST_NAME))["normalization"])
    stats.check_channels(sample, args.sample)
    model.set_inspection(True)
    model.predict(normalize(sample.input, stats.input_mean, stats.input_std), sample.coords)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    coord_cols = [f"x{i}" for i in range(sample.coords.shape[1])]
    for layer, block in enumerate(model.blocks):
        # layers without inspection state (dense attention, plain FFN) dump nothing
        dumps = (("assignment", "a", getattr(block.attn, "last_assignment", None)),
                 ("gate", "g", getattr(block.ffn, "last_gate", None)))
        for kind, col, values in dumps:
            if values is None:
                continue
            with open(out_dir / f"layer{layer}_{kind}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(coord_cols + [f"{col}{j}" for j in range(values.shape[1])])
                for coords_row, row in zip(sample.coords, values):
                    writer.writerow([repr(float(v)) for v in (*coords_row, *row)])
    print(f"wrote inspection dumps for {len(model.blocks)} layers to {out_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they print one line like any other (``--help`` still exits 0)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def int_list(text: str) -> list[int]:
    """A comma-separated list of integers, as --sizes takes it."""
    return [int(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pgot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--task", required=True, choices=sorted(GENERATORS))
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--resolution", type=int, default=16, help="grid side for poisson2d")
    p.add_argument("--points", type=int, default=256, help="point count for pointcloud_stress")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--train-manifest", help="write a test split, normalized with this train manifest's stats")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="time/memory scaling versus mesh size")
    p.add_argument("--config", required=True)
    p.add_argument("--sizes", type=int_list, required=True, help="comma-separated ascending N values")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", required=True, help="CSV path (a *_dense.csv sibling is also written)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="dump slice assignments and gate activations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", required=True, help="path to one .pgds file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_inspect)

    return parser


def _check_flags(args) -> None:
    """Check each integer flag the command takes, and each --sizes entry, against ``FLAG_BOUNDS``."""
    for flag, bounds in FLAG_BOUNDS.items():
        value = getattr(args, flag, [])
        for item in value if isinstance(value, list) else [value]:
            check_value(f"--{flag}", item, int, *bounds, error=ConfigError)


def _fail(prefix: str, exc: Exception, code: int) -> int:
    """Print ``exc`` as one stderr line, whatever its message holds, and return ``code``."""
    message = str(exc).replace("\n", "\\n").replace("\r", "\\r")
    print(f"{prefix}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_flags(args)
        # numpy's floating-point warnings would add stderr lines; non-finite results meet explicit checks
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except MemoryError as exc:
        # sizes are bounded, but a config inside the bounds can still need more memory than there is
        return _fail("config error", ConfigError(f"out of memory: {exc}"), EXIT_CONFIG)
    except (DataError, MetricError, OSError) as exc:
        return _fail("data error", exc, EXIT_DATA)
    except NumericalError as exc:
        return _fail("numerical failure", exc, EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())
