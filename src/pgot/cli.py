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
import sys
from pathlib import Path

from .bench import run_bench, write_bench_csv
from .data import GENERATORS, NormStats, read_dataset, read_manifest, read_sample, write_dataset
from .errors import ConfigError, DataError, NumericalError
from .model import ModelConfig, load_checkpoint
from .training import evaluate, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# the keys a config's "training" object may hold, with their defaults
TRAINING_DEFAULTS = {"steps": 2000, "lr": 1e-3, "weight_decay": 1e-4, "clip_norm": 5.0}


def _load_config_file(path) -> tuple[ModelConfig, dict]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if "model" not in raw:
        raise ConfigError('config file must contain a "model" object')
    model_config = ModelConfig.from_dict(raw["model"])
    training = raw.get("training", {})
    if not isinstance(training, dict):
        raise ConfigError('"training" must be a JSON object')
    unknown = set(training) - set(TRAINING_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown training fields: {sorted(unknown)}")
    return model_config, {**TRAINING_DEFAULTS, **training}


def _check_dims(config: ModelConfig, samples) -> None:
    d = samples[0].coords.shape[1]
    d_a = samples[0].input.shape[1]
    d_u = samples[0].target.shape[1]
    mismatches = []
    if config.d != d:
        mismatches.append(f"d (config {config.d}, data {d})")
    if config.d_a != d_a:
        mismatches.append(f"d_a (config {config.d_a}, data {d_a})")
    if config.d_u != d_u:
        mismatches.append(f"d_u (config {config.d_u}, data {d_u})")
    if mismatches:
        raise ConfigError("config/data dimension mismatch: " + "; ".join(mismatches))


def cmd_gen(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if args.task not in GENERATORS:
        raise ConfigError(f"unknown task {args.task!r}; choose from {sorted(GENERATORS)}")
    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()) and not args.force:
        raise ConfigError(f"output directory {out_dir} is not empty (use --force to overwrite)")
    if args.task == "poisson2d":
        samples = GENERATORS[args.task](args.seed, args.resolution, args.samples)
    else:
        samples = GENERATORS[args.task](args.seed, args.points, args.samples)
    stats = None
    if args.split != "train":
        if not args.train_manifest:
            raise ConfigError("test splits need --train-manifest for normalization stats")
        stats = NormStats.from_dict(read_manifest(args.train_manifest)["normalization"])
    manifest = write_dataset(samples, out_dir, task=args.task, split=args.split, stats=stats)
    n = samples[0].coords.shape[0]
    print(f"wrote {manifest['count']} {args.task} samples ({n} points each) to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    config, train_opts = _load_config_file(args.config)
    samples, manifest = read_dataset(args.data)
    _check_dims(config, samples)
    stats = NormStats.from_dict(manifest["normalization"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model, report = train(
        config,
        samples,
        stats,
        steps=int(train_opts["steps"]),
        lr=float(train_opts["lr"]),
        weight_decay=float(train_opts["weight_decay"]),
        clip_norm=float(train_opts["clip_norm"]),
        checkpoint_path=out_dir / "checkpoint.pgck",
    )
    report.save(out_dir / "report.json")
    print(
        f"final train relative L2: {report.final_train_rel_l2:.6f} "
        f"(eval {report.eval_rel_l2:.6f}, {report.wall_time_s:.1f}s)"
    )
    print(json.dumps(report.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    samples, manifest = read_dataset(args.data)
    _check_dims(model.config, samples)
    stats = NormStats.from_dict(manifest["normalization"])
    metrics = evaluate(model, samples, stats)
    rho = "n/a" if metrics["spearman"] is None else f"{metrics['spearman']:.4f}"
    print(f"relative L2: {metrics['rel_l2']:.6f}  spearman rho: {rho}")
    print(json.dumps({"rel_l2": metrics["rel_l2"], "spearman": metrics["spearman"]}, sort_keys=True))
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"--sizes must be comma-separated integers, got {text!r}") from None
    if min(sizes) < 1:
        raise ConfigError(f"--sizes must all be >= 1, got {text!r}")
    if sizes != sorted(sizes):
        raise ConfigError("--sizes must be ascending")
    return sizes


def cmd_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    config, _ = _load_config_file(args.config)
    records = run_bench(config, sizes, repeats=args.repeats)
    out = Path(args.out)
    write_bench_csv(records, out)
    dense_config = dataclasses.replace(config, dense_attention=True)
    dense_records = run_bench(dense_config, sizes, repeats=args.repeats)
    dense_out = out.with_name(out.stem + "_dense" + out.suffix)
    write_bench_csv(dense_records, dense_out)
    print(f"wrote {out} and {dense_out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.checkpoint)
    sample = read_sample(args.sample)
    _check_dims(model.config, [sample])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model.set_inspection(True)
    model.predict(sample.input, sample.coords)
    coord_cols = [f"x{i}" for i in range(sample.coords.shape[1])]
    for layer, block in enumerate(model.blocks):
        # layers without inspection state (dense attention, plain FFN) dump nothing
        assignment = getattr(block.attn, "last_assignment", None)
        if assignment is not None:
            path = out_dir / f"layer{layer}_assignment.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(coord_cols + [f"a{j}" for j in range(assignment.values.shape[1])])
                for coords_row, weights in zip(sample.coords, assignment.values):
                    writer.writerow([repr(float(v)) for v in coords_row] + [repr(float(w)) for w in weights])
        gate = getattr(block.ffn, "last_gate", None)
        if gate is not None:
            path = out_dir / f"layer{layer}_gate.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(coord_cols + [f"g{j}" for j in range(gate.shape[1])])
                for coords_row, values in zip(sample.coords, gate):
                    writer.writerow([repr(float(v)) for v in coords_row] + [repr(float(g)) for g in values])
    print(f"wrote inspection dumps for {len(model.blocks)} layers to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pgot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--task", required=True, choices=sorted(GENERATORS))
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--resolution", type=int, default=16, help="grid side for poisson2d")
    p.add_argument("--points", type=int, default=256, help="point count for pointcloud_stress")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train", choices=["train", "test"])
    p.add_argument("--train-manifest", help="train manifest supplying stats for a test split")
    p.add_argument("--force", action="store_true")
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
    p.add_argument("--sizes", required=True, help="comma-separated ascending N values")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", required=True, help="CSV path (a *_dense.csv sibling is also written)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("inspect", help="dump slice assignments and gate activations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sample", required=True, help="path to one .pgds file")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
