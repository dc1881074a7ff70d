"""Command-line entry point: data generation, training, evaluation,
benchmarking, and inspection export.

Exit codes: 0 success, 1 stdout closed by its reader, 2 usage/config error,
3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .bench import run_bench, write_bench_csv
from .data import GENERATOR_BOUNDS, MANIFEST_NAME, TASKS, NormStats, generate, normalize, read_dataset, read_manifest
from .data import read_sample, read_train_stats, write_dataset
from .errors import ConfigError, DataError, MetricError, NumericalError
from .formats import check_values, read_json_object, require_object
from .model import ModelConfig, check_dims, load_checkpoint
from .training import TRAINING_BOUNDS, evaluate, train

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# (kind, low[, high]) of each integer flag, and of each --sizes entry; bench also runs dense N x N attention at
# every size, so sizes stop at twice the largest the README uses
FLAG_BOUNDS = {**GENERATOR_BOUNDS, "sizes": (int, 1, 16385), "repeats": (int, 1)}
# `pgot gen`'s size flags' defaults, kept out of the namespace so that cmd_gen sees which size flag was given
SIZE_DEFAULTS = {"resolution": 16, "points": 256}


def _load_config_file(path) -> tuple[ModelConfig, dict]:
    """The model config and the given training options, each type- and range-checked."""
    try:
        with open(path, "rb") as fh:
            raw = read_json_object(fh.read(), "config file", ConfigError)
    except OSError as exc:  # missing, a directory, unreadable: the config is at fault, not the data
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    if not set(raw) <= {"model", "training"}:
        raise ConfigError(f'a config holds only "model" and "training", got keys {sorted(raw)!r:.60}')
    model_config = ModelConfig.from_dict(raw.get("model"))
    training = require_object(raw.get("training", {}), '"training"', ConfigError)
    check_values(training, TRAINING_BOUNDS, "training ", ConfigError)
    return model_config, training


def _check_out(out: str | Path, directory: bool) -> Path:
    """``--out``, or a file the command writes in or beside it, as a path, refused before any work when it
    exists as the wrong kind: the command writes a directory (``directory``) or a file. That is the command
    line's fault, so it exits 2, not 3."""
    path = Path(out)
    if path.exists() and path.is_dir() != directory:
        raise ConfigError(f"--out {path} is {'not ' if directory else ''}a directory")
    return path


def cmd_gen(args) -> int:
    size_name = TASKS[args.task][0]
    other = [name for name in SIZE_DEFAULTS if name != size_name and name in vars(args)]
    if other:
        raise ConfigError(f"--task {args.task} takes --{size_name}, not --{other[0]}")
    out_dir = _check_out(args.out, directory=True)
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(f"output directory {out_dir} is not empty")
    stats = None
    if args.train_manifest is not None:
        stats = read_train_stats(args.train_manifest, args.task, args.seed, args.samples)
    samples = generate(args.task, args.seed, vars(args).get(size_name, SIZE_DEFAULTS[size_name]), args.samples)
    manifest = write_dataset(samples, out_dir, task=args.task, stats=stats)
    n = samples[0].coords.shape[0]
    print(f"wrote {manifest['count']} {args.task} samples ({n} points each) to {out_dir}")
    return EXIT_OK


def cmd_train(args) -> int:
    out_dir = _check_out(args.out, directory=True)
    checkpoint = _check_out(out_dir / "checkpoint.pgck", directory=False)
    report_path = _check_out(out_dir / "report.json", directory=False)
    config, train_opts = _load_config_file(args.config)
    samples, manifest = read_dataset(args.data)
    check_dims(config, samples)
    stats = NormStats.from_dict(manifest["normalization"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _, report = train(config, samples, stats, checkpoint_path=checkpoint, **train_opts)
    report.save(report_path)
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
    print(json.dumps(metrics, sort_keys=True))
    return EXIT_OK


def cmd_bench(args) -> int:
    out = _check_out(args.out, directory=False)
    dense_out = _check_out(out.with_name(out.stem + "_dense" + out.suffix), directory=False)
    config, _ = _load_config_file(args.config)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = run_bench(config, args.sizes, repeats=args.repeats)
    dense_config = dataclasses.replace(config, dense_attention=True)
    dense_records = run_bench(dense_config, args.sizes, repeats=args.repeats)
    write_bench_csv(records, out)
    write_bench_csv(dense_records, dense_out)
    print(f"wrote {out} and {dense_out}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    out_dir = _check_out(args.out, directory=True)
    model = load_checkpoint(args.checkpoint)
    for key in model.inspected_layers():  # the dumps' names, checked before any work
        _check_out(out_dir / f"{key}.csv", directory=False)
    sample = read_sample(args.sample)
    check_dims(model.config, [sample])
    # the model reads normalized inputs, as in `pgot eval`: take the stats of the dataset the sample sits in
    _, stats = read_manifest(Path(args.sample).with_name(MANIFEST_NAME))
    stats.check_channels(sample, args.sample)
    dumps = model.inspect(normalize(sample.input, stats.input_mean, stats.input_std), sample.coords)
    out_dir.mkdir(parents=True, exist_ok=True)
    coord_cols = [f"x{i}" for i in range(sample.coords.shape[1])]
    for key, values in dumps.items():
        col = "a" if key.endswith("_assignment") else "g"
        with open(out_dir / f"{key}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(coord_cols + [f"{col}{j}" for j in range(values.shape[1])])
            for coords_row, row in zip(sample.coords, values):
                writer.writerow([repr(float(v)) for v in (*coords_row, *row)])
    print(f"wrote {len(dumps)} inspection dumps to {out_dir}")
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
    p.add_argument("--task", required=True, choices=sorted(TASKS))
    p.add_argument("--samples", type=int, required=True)
    for name, what in (("resolution", "grid side of a grid task"), ("points", "point count of a point-cloud task")):
        p.add_argument(f"--{name}", type=int, default=argparse.SUPPRESS, help=f"{what} (default {SIZE_DEFAULTS[name]})")
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
    """Check each integer flag the command takes, and each --sizes entry, against ``FLAG_BOUNDS``, and that
    --sizes ascends, before a command creates anything."""
    for flag in FLAG_BOUNDS:
        value = getattr(args, flag, [])
        for item in value if isinstance(value, list) else [value]:
            check_values({flag: item}, FLAG_BOUNDS, "--", ConfigError)
    sizes = getattr(args, "sizes", [])
    if sizes != sorted(sizes):
        raise ConfigError(f"--sizes must be ascending, got {sizes}")


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
            code = args.fn(args)
        sys.stdout.flush()  # stdout to a pipe is block-buffered, so a reader that left shows here
        return code
    except BrokenPipeError:
        # no data error: the Python docs' SIGPIPE note points stdout at devnull, so the exit's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
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
