import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgot
from pgot import bench, cli, engine
from pgot.cli import main
from pgot.data import NormStats, normalize, read_dataset, read_manifest, read_sample, write_dataset
from pgot.model import ModelConfig, PgotModel, load_checkpoint, save_checkpoint

DESK_CONFIG = {
    "model": {
        "layers": 1,
        "width": 16,
        "slices": 4,
        "scales": 2,
        "heads": 2,
        "d": 2,
        "d_a": 1,
        "d_u": 1,
        "seed": 0,
    },
    "training": {"steps": 24, "lr": 1e-3},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return path


def run_gen(tmp_path, name="data", **overrides):
    out = tmp_path / name
    args = {
        "--task": "poisson2d",
        "--samples": "3",
        "--resolution": "12",
        "--seed": "7",
        "--out": str(out),
    }
    args.update(overrides)
    argv = ["gen"] + [x for pair in args.items() for x in pair]
    assert main(argv) == 0
    return out


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path, capsys):
        out = run_gen(tmp_path)
        files = sorted(p.name for p in out.iterdir())
        assert "manifest.json" in files
        assert sum(f.endswith(".pgds") for f in files) == 3
        assert "3 poisson2d samples" in capsys.readouterr().out

    def test_deterministic_bytes(self, tmp_path):
        a = run_gen(tmp_path, "a")
        b = run_gen(tmp_path, "b")
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_zero_samples_usage_error(self, tmp_path):
        assert main(["gen", "--task", "poisson2d", "--samples", "0", "--out", str(tmp_path / "x")]) == 2

    def test_refuses_nonempty_dir(self, tmp_path, capsys):
        out = run_gen(tmp_path)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = ["gen", "--task", "poisson2d", "--samples", "1", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: output directory {out} is not empty\n"
        assert main(argv + ["--force"]) == 2
        assert capsys.readouterr().err == "config error: pgot: unrecognized arguments: --force\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_test_split_with_other_channel_counts_exit_3(self, tmp_path, capsys):
        train = run_gen(tmp_path)
        out = tmp_path / "test"
        argv = ["gen", "--task", "pointcloud_stress", "--samples", "1",
                "--train-manifest", str(train / "manifest.json"), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and "channel counts" in err
        assert not out.exists()

    @pytest.mark.parametrize("manifest, code", [("missing.json", 3)], ids=["missing-manifest"])
    def test_test_split_refused_before_generating(self, tmp_path, monkeypatch, capsys, manifest, code):
        def generate(*args):
            raise AssertionError("samples generated before the split's manifest was checked")

        monkeypatch.setitem(cli.GENERATORS, "poisson2d", generate)
        argv = ["gen", "--task", "poisson2d", "--samples", "200", "--out", str(tmp_path / "out"),
                "--train-manifest", str(tmp_path / manifest)]
        assert main(argv) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_test_split_sharing_a_train_key_exit_2(self, tmp_path, monkeypatch, capsys):
        """Sample i is keyed seed ^ i, so seeds 0 and 1 over 8 samples give the same 8 samples, swapped in pairs."""
        train = run_gen(tmp_path, "train", **{"--samples": "8", "--seed": "0"})

        def generate(*args):
            raise AssertionError("samples generated before the train keys were checked")

        monkeypatch.setitem(cli.GENERATORS, "poisson2d", generate)
        out = tmp_path / "test"
        argv = ["gen", "--task", "poisson2d", "--samples", "8", "--seed", "1",
                "--train-manifest", str(train / "manifest.json"), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and "train sample key 1 " in err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["poisson2d", "pointcloud_stress"])
    def test_readme_test_split_seeds_pass(self, tmp_path, task):
        train = run_gen(tmp_path, "train", **{"--task": task, "--samples": "4", "--points": "64"})
        test = run_gen(tmp_path, "test", **{"--task": task, "--samples": "4", "--points": "64", "--seed": "99",
                                             "--train-manifest": str(train / "manifest.json")})
        assert json.loads((test / "manifest.json").read_text())["split"] == "test"

    def test_train_entries_without_keys_match_nothing(self, tmp_path):
        train = run_gen(tmp_path, "train", **{"--seed": "0"})
        manifest = json.loads((train / "manifest.json").read_text())
        del manifest["samples"][0]["meta"]
        del manifest["samples"][1]["meta"]["seed"]
        manifest["samples"][2]["meta"]["task"] = "pointcloud_stress"
        (train / "manifest.json").write_text(json.dumps(manifest))
        run_gen(tmp_path, "test", **{"--seed": "1", "--train-manifest": str(train / "manifest.json")})

    def test_help_exits_zero(self, capsys):
        for sub in ("gen", "train", "eval", "bench", "inspect"):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--help"])
            assert exc.value.code == 0
            assert "--" in capsys.readouterr().out


GEN_ARGS = ["gen", "--task", "poisson2d", "--samples", "1", "--out", "out"]

# each argv is a usage error: one `config error:` line and exit 2, never argparse's usage text
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "missing-required": ["eval", "--data", "x"],
    "samples-not-int": GEN_ARGS + ["--samples", "abc"],
    "bad-choice": GEN_ARGS + ["--task", "heat"],
    "seed-negative": GEN_ARGS + ["--seed", "-1"],
    "seed-2**128": GEN_ARGS + ["--seed", str(2**128)],
    "resolution-1000": GEN_ARGS + ["--resolution", "1000"],
    "points-5": GEN_ARGS + ["--points", "5"],
    # the split follows from --train-manifest alone; the old flag is an unknown argument
    "split-flag-removed": GEN_ARGS + ["--split", "test"],
    # argparse joins the stray arguments into its message, and the config error names the path as given
    "stray-argument-newline": ["eval", "--checkpoint", "a", "--data", "b", "x\ny"],
    "config-path-newline": ["bench", "--config", "no\nfile", "--sizes", "64", "--out", "b.csv"],
    "config-path-carriage-return": ["bench", "--config", "no\rfile", "--sizes", "64", "--out", "b.csv"],
    # the test runs in its own directory, so "." names a directory that holds no config
    "config-directory": ["train", "--config", ".", "--data", "data", "--out", "out"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exit_2_with_one_line(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    assert main(USAGE_ERRORS[case]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1 and "\r" not in captured.err
    assert case != "split-flag-removed" or "unrecognized arguments: --split test" in captured.err
    assert captured.out == "" and not (tmp_path / "out").exists()


# JSON nested far deeper than Python's recursion limit
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000

# each entry damages a valid manifest, or returns the bytes that replace it; the one-line error must name the
# given text
MANIFEST_FAULTS = {
    "nested-too-deeply": (lambda m: TOO_DEEP, "nested too deeply"),
    "samples": (lambda m: m.pop("samples"), "samples"),
    "normalization": (lambda m: m.pop("normalization"), "normalization"),
    "samples-not-list": (lambda m: m.update(samples={"file": "sample_0000.pgds"}), "samples"),
    "samples-empty": (lambda m: m.update(samples=[]), "samples"),
    "entry-not-object": (lambda m: m["samples"].insert(0, "sample_0000.pgds"), "samples[0]"),
    "entry-without-file": (lambda m: m["samples"][1].pop("file"), "samples[1] file must be a plain file name"),
    "file-not-string": (lambda m: m["samples"][0].update(file=5), "plain file name"),
    "file-outside-dir": (lambda m: m["samples"][0].update(file="../../etc/passwd"), "plain file name"),
    "file-absolute": (lambda m: m["samples"][0].update(file="/etc/passwd"), "plain file name"),
    "normalization-not-object": (lambda m: m.update(normalization=[1.0]), "normalization"),
    "normalization-without-input-mean": (lambda m: m["normalization"].pop("input_mean"), "input_mean"),
    "normalization-non-numeric": (lambda m: m["normalization"].update(target_std=["x"]), "target_std"),
    "normalization-zero-std": (lambda m: m["normalization"].update(input_std=[0.0]), "input_std"),
    # positive, so the manifest is accepted, but the normalized fields overflow float32
    "normalization-tiny-input-std": (lambda m: m["normalization"].update(input_std=[1e-300]), "normalization std"),
    "normalization-tiny-target-std": (lambda m: m["normalization"].update(target_std=[1e-300]), "normalization std"),
    "normalization-channels": (
        lambda m: m["normalization"].update(target_mean=[0.0, 0.0], target_std=[1.0, 1.0]),
        "normalization",
    ),
}


@pytest.mark.parametrize("command", ["gen", "train", "inspect", "bench"])
def test_out_of_the_wrong_kind_exit_2_before_any_work(tmp_path, config_path, monkeypatch, capsys, command):
    """gen, train and inspect write a directory and bench a file: an --out of the other kind is refused first."""
    data = run_gen(tmp_path)
    ckpt = tmp_path / "m.pgck"
    save_checkpoint(PgotModel(ModelConfig(**DESK_CONFIG["model"])), ckpt)
    out = tmp_path / "out"
    if command == "bench":
        out.mkdir()
    else:
        out.write_text("kept")
    work = []
    for name in ("train", "run_bench", "load_checkpoint"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: work.append(args))
    monkeypatch.setitem(cli.GENERATORS, "poisson2d", lambda *args: work.append(args))
    argv = {
        "gen": ["--task", "poisson2d", "--samples", "1"],
        "train": ["--config", str(config_path), "--data", str(data)],
        "inspect": ["--checkpoint", str(ckpt), "--sample", str(data / "sample_0000.pgds")],
        "bench": ["--config", str(config_path), "--sizes", "64"],
    }[command]
    capsys.readouterr()
    assert main([command, *argv, "--out", str(out)]) == 2
    kind = "a directory" if command == "bench" else "not a directory"
    assert capsys.readouterr().err == f"config error: --out {out} is {kind}\n"
    assert work == []
    assert list(out.iterdir()) == [] if command == "bench" else out.read_text() == "kept"


@pytest.mark.parametrize("name", ["checkpoint.pgck", "report.json"])
def test_train_file_that_is_a_directory_exit_2_before_training(tmp_path, config_path, monkeypatch, capsys, name):
    """train writes these two files into --out: either one existing as a directory is refused first."""
    data, run_dir = run_gen(tmp_path), tmp_path / "run"
    (run_dir / name).mkdir(parents=True)

    def training(*args, **kwargs):
        raise AssertionError("trained before the files train writes were checked")

    monkeypatch.setattr(cli, "train", training)
    capsys.readouterr()
    assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"config error: --out {run_dir / name} is a directory\n"
    assert [p.name for p in run_dir.iterdir()] == [name]


def _config_bytes(**model) -> bytes:
    return json.dumps({"model": {**DESK_CONFIG["model"], **model}}).encode()


def _training_bytes(entry: str) -> bytes:
    """A desk config whose training object is the raw JSON ``entry`` (NaN, 1e999 kept as written)."""
    return ('{"model": %s, "training": {%s}}' % (json.dumps(DESK_CONFIG["model"]), entry)).encode()


# each entry is a config file that must be refused before anything is written
BAD_CONFIGS = {
    "not-utf8": b'{"model": {"layers": 1}, "x": "\xff"}',
    "top-level-number": b"5",
    "model-number": b'{"model": 5}',
    "model-missing": b'{"training": {}}',
    "model-nested-too-deeply": b'{"model": ' + TOO_DEEP + b"}",
    "training-not-object": json.dumps({"model": DESK_CONFIG["model"], "training": [1]}).encode(),
    "steps-string": json.dumps({"model": DESK_CONFIG["model"], "training": {"steps": "abc"}}).encode(),
    "steps-float": json.dumps({"model": DESK_CONFIG["model"], "training": {"steps": 2.5}}).encode(),
    "lr-bool": json.dumps({"model": DESK_CONFIG["model"], "training": {"lr": True}}).encode(),
    "layers-string": _config_bytes(layers="1"),
    "layers-float": _config_bytes(layers=1.0),
    "heads-zero": _config_bytes(heads=0),
    "width-zero": _config_bytes(width=0),
    "seed-negative": _config_bytes(seed=-1),
    "seed-2**130": _config_bytes(seed=2**130),
    "pe-frequencies-float": _config_bytes(pe_frequencies=2.5),
    "dropout-string": _config_bytes(dropout="0"),
    "disable-sga-int": _config_bytes(disable_sga=1),
    "steps-zero": _training_bytes('"steps": 0'),
    "steps-negative": _training_bytes('"steps": -5'),
    "lr-nan": _training_bytes('"lr": NaN'),
    "lr-1e999": _training_bytes('"lr": 1e999'),
    "weight-decay-negative": _training_bytes('"weight_decay": -1'),
    "clip-norm-negative": _training_bytes('"clip_norm": -1'),
    "lr-huge-int": _training_bytes('"lr": 1' + "0" * 400),
    "weight-decay-huge-int": _training_bytes('"weight_decay": 1' + "0" * 400),
    "lr-5000-digits": _training_bytes('"lr": 1' + "0" * 5000),
    "width-2**40": _config_bytes(width=2**40),
    "layers-2**40": _config_bytes(layers=2**40),
    "slices-2**40": _config_bytes(slices=2**40),
    "scales-400": _config_bytes(scales=400),
    "pe-frequencies-1100": _config_bytes(pe_frequencies=1100),
}


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, config_path, capsys):
        data = run_gen(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir)]) == 0
        out = capsys.readouterr().out
        json_line = [l for l in out.splitlines() if l.startswith("{")][0]
        report = json.loads(json_line)
        assert "final_train_rel_l2" in report
        assert (run_dir / "checkpoint.pgck").exists()
        assert (run_dir / "report.json").exists()

        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.pgck"), "--data", str(data)]) == 0
        out = capsys.readouterr().out
        json_line = [l for l in out.splitlines() if l.startswith("{")][0]
        metrics = json.loads(json_line)
        assert 0.0 <= metrics["rel_l2"]

    def test_normalization_parsed_once_per_manifest_read(self, tmp_path, config_path, monkeypatch):
        """`read_manifest` hands back the stats it checks; train and eval parse them once more from the
        manifest `read_dataset` returns."""
        data, run_dir = run_gen(tmp_path), tmp_path / "run"
        ckpt, sample = run_dir / "checkpoint.pgck", data / "sample_0000.pgds"
        from_dict = NormStats.from_dict.__func__
        calls = []
        monkeypatch.setattr(NormStats, "from_dict", classmethod(lambda cls, d: calls.append(1) or from_dict(cls, d)))
        commands = {
            "train": ["--config", str(config_path), "--data", str(data), "--out", str(run_dir)],
            "eval": ["--checkpoint", str(ckpt), "--data", str(data)],
            "gen": ["--task", "poisson2d", "--samples", "1", "--resolution", "12", "--seed", "99",
                    "--train-manifest", str(data / "manifest.json"), "--out", str(tmp_path / "test")],
            "inspect": ["--checkpoint", str(ckpt), "--sample", str(sample), "--out", str(tmp_path / "dump")],
        }
        counts = {}
        for command, argv in commands.items():
            calls.clear()
            assert main([command, *argv]) == 0
            counts[command] = len(calls)
        assert counts == {"train": 2, "eval": 2, "gen": 1, "inspect": 1}

    def test_dimension_mismatch_exit_2(self, tmp_path, config_path, capsys):
        data = run_gen(tmp_path, "pc", **{"--task": "pointcloud_stress", "--points": "64"})
        run_dir = tmp_path / "run"
        code = main(["train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir)])
        assert code == 2
        assert "d_a" in capsys.readouterr().err

    def test_bad_config_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["train", "--config", str(bad), "--data", "x", "--out", "y"]) == 2

    def test_corrupt_dataset_exit_3(self, tmp_path, config_path):
        data = run_gen(tmp_path)
        sample = next(p for p in data.iterdir() if p.suffix == ".pgds")
        sample.write_bytes(b"garbage")
        assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "r")]) == 3

    @pytest.mark.parametrize("key", sorted(MANIFEST_FAULTS))
    def test_manifest_missing_key_exit_3(self, tmp_path, config_path, capsys, key):
        data = run_gen(tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        damage, named = MANIFEST_FAULTS[key]
        replaced = damage(manifest)
        (data / "manifest.json").write_bytes(replaced if isinstance(replaced, bytes) else json.dumps(manifest).encode())
        capsys.readouterr()
        assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "r")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exit_2_with_one_line(self, tmp_path, capsys, case):
        config = tmp_path / "bad.json"
        config.write_bytes(BAD_CONFIGS[case])
        # the data directory does not exist: an accepted config would exit 3
        argv = ["train", "--config", str(config), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_integer_training_values_accepted(self, tmp_path):
        data = run_gen(tmp_path)
        config = tmp_path / "ints.json"
        config.write_text(json.dumps({"model": DESK_CONFIG["model"], "training": {"steps": 3, "lr": 0, "clip_norm": 5}}))
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "r")]) == 0

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_all_zero_target_exit_3(self, tmp_path, config_path, capsys, command):
        samples, _ = read_dataset(run_gen(tmp_path))
        for sample in samples:
            sample.target[:] = 0.0
        data = tmp_path / "zero"
        write_dataset(samples, data, task="poisson2d")
        if command == "train":
            argv = ["train", "--config", str(config_path), "--data", str(data), "--out", str(tmp_path / "r")]
        else:
            path = tmp_path / "m.pgck"
            save_checkpoint(PgotModel(ModelConfig(**DESK_CONFIG["model"])), path)
            argv = ["eval", "--checkpoint", str(path), "--data", str(data)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert "all-zero" in err

    def test_unknown_training_key_exit_2(self, tmp_path, capsys):
        data = run_gen(tmp_path)
        config = tmp_path / "typo.json"
        config.write_text(json.dumps({"model": DESK_CONFIG["model"], "training": {"stepz": 5}}))
        capsys.readouterr()
        assert main(["train", "--config", str(config), "--data", str(data), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "stepz" in err
        assert not (tmp_path / "r").exists()

    def test_report_stable_under_seed(self, tmp_path, config_path):
        data = run_gen(tmp_path)
        reports = []
        for name in ("r1", "r2"):
            run_dir = tmp_path / name
            assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir)]) == 0
            reports.append((run_dir / "report.json").read_bytes())
        a, b = (json.loads(r) for r in reports)
        a.pop("wall_time_s")
        b.pop("wall_time_s")
        assert a == b


class TestBench:
    def test_csv_schema_and_dense_sibling(self, tmp_path, config_path):
        out = tmp_path / "new" / "sub" / "bench.csv"  # bench creates the missing directories
        assert main(["bench", "--config", str(config_path), "--sizes", "64,128", "--repeats", "3", "--out", str(out)]) == 0
        dense = out.with_name("bench_dense.csv")
        assert dense.exists()
        for path in (out, dense):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == [
                "n", "fwd_us_med", "fwd_us_min", "fwd_us_max", "fwdbwd_us_med", "peak_bytes", "config_hash",
            ]
            assert [r[0] for r in rows[1:]] == ["64", "128"]
            assert all(int(r[5]) > 0 for r in rows[1:])

    def test_peak_bytes_is_one_forward_peak(self, tensor_bytes):
        config = ModelConfig.from_dict(DESK_CONFIG["model"])
        sizes = [64, 128]
        records = bench.run_bench(config, sizes, repeats=1)
        model, rng = PgotModel(config), engine.Rng(1234)  # the fixed seed run_bench draws its clouds from
        for n, record in zip(sizes, records):
            a, coords = bench._random_cloud(rng, n, config.d, config.d_a)
            model.predict(a, coords)  # warm, as run_bench's traced pass is
            tensor_bytes["total"] = 0
            peak = bench._traced_peak_bytes(lambda: model.predict(a, coords))
            # not bit-exact: repeated passes spread by about 100 B
            assert abs(record.peak_bytes - peak) <= 1024
            # a peak, not the sum of the pass's allocations
            assert record.peak_bytes < tensor_bytes["total"]

    def test_cloud_depends_only_on_its_size(self, monkeypatch):
        config = ModelConfig.from_dict(DESK_CONFIG["model"])
        clouds, draw = [], bench._random_cloud

        def random_cloud(rng, n, d, d_a):
            a, coords = draw(rng, n, d, d_a)
            clouds.append((n, coords))
            return a, coords

        monkeypatch.setattr(bench, "_random_cloud", random_cloud)
        bench.run_bench(config, [8, 16], repeats=1)
        bench.run_bench(config, [16], repeats=1)
        after_8, alone = (coords for n, coords in clouds if n == 16)
        assert np.array_equal(after_8, alone)

    def test_out_of_memory_exit_2_with_one_line(self, tmp_path, config_path, monkeypatch, capsys):
        def run_bench(*args, **kwargs):
            raise MemoryError("Unable to allocate 64.0 GiB for an array with shape (1024, 4096, 4096)")

        monkeypatch.setattr(cli, "run_bench", run_bench)
        out = tmp_path / "b.csv"
        assert main(["bench", "--config", str(config_path), "--sizes", "4096", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_unusable_out_fails_before_measuring(self, tmp_path, config_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "run_bench", lambda *args, **kwargs: calls.append(args) or [])
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["bench", "--config", str(config_path), "--sizes", "64", "--out", str(blocker / "b.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert calls == []

    def test_unsorted_sizes_rejected(self, tmp_path, config_path, capsys):
        out = tmp_path / "new" / "sub" / "b.csv"
        assert main(["bench", "--config", str(config_path), "--sizes", "128,64", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: --sizes must be ascending, got [128, 64]\n"
        assert not (tmp_path / "new").exists()

    def test_dense_sibling_that_is_a_directory_exit_2_before_measuring(self, tmp_path, config_path, monkeypatch,
                                                                       capsys):
        calls = []
        monkeypatch.setattr(cli, "run_bench", lambda *args, **kwargs: calls.append(args) or [])
        dense = tmp_path / "b_dense.csv"
        dense.mkdir()
        assert main(["bench", "--config", str(config_path), "--sizes", "64", "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == f"config error: --out {dense} is a directory\n"
        assert calls == [] and not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--sizes", "64,x"],
            ["--sizes", ""],
            ["--sizes", "0,64"],
            ["--sizes", "-8"],
            ["--sizes", "64", "--repeats", "0"],
            ["--sizes", "64,10000000000"],
        ],
        ids=["non-integer", "empty", "zero", "negative", "zero-repeats", "huge"],
    )
    def test_bad_values_exit_2_with_one_line(self, tmp_path, config_path, capsys, extra):
        out = tmp_path / "b.csv"
        assert main(["bench", "--config", str(config_path), "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()


def _splice(blob: bytes, old: bytes, new: bytes) -> bytes:
    assert blob.count(old) == 1 and len(old) == len(new)
    return blob.replace(old, new)


def _add_one(blob: bytes, at: int) -> bytes:
    """Add 1 to the u32 at byte ``at``."""
    (value,) = struct.unpack_from("<I", blob, at)
    return blob[:at] + struct.pack("<I", value + 1) + blob[at + 4:]


def _with_config(blob: bytes, config: bytes) -> bytes:
    """Replace the config JSON, which follows magic and version, and its u32 length at byte 8."""
    end = 12 + struct.unpack_from("<I", blob, 8)[0]
    return blob[:8] + struct.pack("<I", len(config)) + config + blob[end:]


# DESK_CONFIG's LayerNorm tensors have rank 1, so the record is name, rank, one dim, then the payload
GAIN, BIAS = b"block0.ln1.gain", b"block0.ln1.bias"


def _after(blob: bytes, name: bytes) -> int:
    assert blob.count(name) == 1
    return blob.index(name) + len(name)


def _set_first_value(blob: bytes, value: float) -> bytes:
    at = _after(blob, GAIN) + 8
    return blob[:at] + struct.pack("<f", value) + blob[at + 4:]


def _swap_gain_and_bias(blob: bytes) -> bytes:
    """The two records are adjacent and of equal length, so the file length stays."""
    i, j = blob.index(GAIN) - 4, blob.index(BIAS) - 4
    return blob[:i] + blob[j:2 * j - i] + blob[i:j] + blob[2 * j - i:]


# each entry turns a valid checkpoint into one that must be refused
CORRUPT_CHECKPOINTS = {
    "trailing-bytes": lambda blob: blob + b"\x00",
    # the config JSON starts after magic, version and its length (12 bytes)
    "config-not-utf8": lambda blob: blob[:12] + b"\xff" + blob[13:],
    "config-not-json": lambda blob: blob[:12] + b"x" + blob[13:],
    "config-nested-too-deeply": lambda blob: _with_config(blob, TOO_DEEP),
    "duplicate-name": lambda blob: _splice(blob, b"block0.ln2.gain", b"block0.ln1.gain"),
    "name-not-utf8": lambda blob: _splice(blob, b"block0.ln2.gain", b"block0.ln2.ga\xffn"),
    # the tensor count follows the config, whose length is the u32 at byte 8
    "tensor-count": lambda blob: _add_one(blob, 12 + struct.unpack_from("<I", blob, 8)[0]),
    "rank": lambda blob: _add_one(blob, _after(blob, GAIN)),
    "dims": lambda blob: _add_one(blob, _after(blob, GAIN) + 4),
    "tensors-swapped": _swap_gain_and_bias,
    "nan-payload": lambda blob: _set_first_value(blob, np.nan),
    "inf-payload": lambda blob: _set_first_value(blob, np.inf),
}


class TestCheckpointErrors:
    @pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
    def test_eval_and_inspect_exit_3_with_one_line(self, tmp_path, capsys, case):
        data = run_gen(tmp_path)
        sample = sorted(p for p in data.iterdir() if p.suffix == ".pgds")[0]
        path = tmp_path / "m.pgck"
        save_checkpoint(PgotModel(ModelConfig(**DESK_CONFIG["model"])), path)
        path.write_bytes(CORRUPT_CHECKPOINTS[case](path.read_bytes()))
        capsys.readouterr()
        for argv in (
            ["eval", "--checkpoint", str(path), "--data", str(data)],
            ["inspect", "--checkpoint", str(path), "--sample", str(sample), "--out", str(tmp_path / "dump")],
        ):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.err.startswith("data error: ") and captured.err.count("\n") == 1
            assert captured.out == ""


# DESK_CONFIG's checkpoint config holds '"layers": 1, '; each splice keeps its length
BAD_CHECKPOINT_CONFIGS = {
    "layers-string": b'"layers":"1",',
    "layers-float": b'"layers":1.0,',
}


class TestCheckpointConfig:
    @pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_CONFIGS))
    def test_eval_and_inspect_exit_2_with_one_line(self, tmp_path, capsys, case):
        data = run_gen(tmp_path)
        sample = sorted(p for p in data.iterdir() if p.suffix == ".pgds")[0]
        path = tmp_path / "m.pgck"
        save_checkpoint(PgotModel(ModelConfig(**DESK_CONFIG["model"])), path)
        path.write_bytes(_splice(path.read_bytes(), b'"layers": 1, ', BAD_CHECKPOINT_CONFIGS[case]))
        capsys.readouterr()
        for argv in (
            ["eval", "--checkpoint", str(path), "--data", str(data)],
            ["inspect", "--checkpoint", str(path), "--sample", str(sample), "--out", str(tmp_path / "dump")],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("config error: layers") and captured.err.count("\n") == 1
            assert captured.out == ""
        assert not (tmp_path / "dump").exists()


class TestInspect:
    @pytest.mark.parametrize(
        "switches,written",
        [
            ("disable_tdf", ["layer0_assignment.csv"]),
            ("dense_attention", ["layer0_gate.csv"]),
            ("dense_attention+disable_tdf", []),
        ],
    )
    def test_ablation_writes_only_existing_dumps(self, tmp_path, capsys, switches, written):
        data = run_gen(tmp_path)
        sample = sorted(p for p in data.iterdir() if p.suffix == ".pgds")[0]
        path = tmp_path / "m.pgck"
        config = ModelConfig(**DESK_CONFIG["model"], **dict.fromkeys(switches.split("+"), True))
        save_checkpoint(PgotModel(config), path)
        dump = tmp_path / "dump"
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(path), "--sample", str(sample), "--out", str(dump)]) == 0
        assert sorted(p.name for p in dump.iterdir()) == written
        assert capsys.readouterr().out == f"wrote {len(written)} inspection dumps to {dump}\n"

    @pytest.mark.parametrize("kind", ["assignment", "gate"])
    def test_dump_that_is_a_directory_exit_2_before_any_work(self, tmp_path, monkeypatch, capsys, kind):
        """Every dump name follows from the checkpoint's config, so one existing as a directory is refused
        before the model runs or any dump is written."""
        data = run_gen(tmp_path)
        path = tmp_path / "m.pgck"
        save_checkpoint(PgotModel(ModelConfig(**{**DESK_CONFIG["model"], "layers": 2})), path)
        dump = tmp_path / "dump"
        (dump / f"layer1_{kind}.csv").mkdir(parents=True)

        def inspected(*args, **kwargs):
            raise AssertionError("ran the model before the dump paths were checked")

        monkeypatch.setattr(PgotModel, "inspect", inspected)
        capsys.readouterr()
        argv = ["inspect", "--checkpoint", str(path), "--sample", str(data / "sample_0000.pgds"), "--out", str(dump)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: --out {dump / f'layer1_{kind}.csv'} is a directory\n"
        assert [p.name for p in dump.iterdir()] == [f"layer1_{kind}.csv"]

    def test_dump_contents(self, tmp_path, config_path):
        data = run_gen(tmp_path)
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir)]) == 0
        sample = sorted(p for p in data.iterdir() if p.suffix == ".pgds")[0]
        dump = tmp_path / "dump"
        assert main([
            "inspect",
            "--checkpoint", str(run_dir / "checkpoint.pgck"),
            "--sample", str(sample),
            "--out", str(dump),
        ]) == 0
        assignment = dump / "layer0_assignment.csv"
        gate = dump / "layer0_gate.csv"
        assert assignment.exists() and gate.exists()

        with open(assignment) as fh:
            rows = list(csv.DictReader(fh))
        weights = np.array([[float(r[f"a{j}"]) for j in range(4)] for r in rows])
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-5)

        with open(gate) as fh:
            rows = list(csv.DictReader(fh))
        values = np.array([[float(r[f"g{j}"]) for j in range(16)] for r in rows])
        assert np.all(values > 0.0) and np.all(values < 1.0)

        src = read_sample(sample)
        coords = np.array([[float(r["x0"]), float(r["x1"])] for r in rows], dtype=np.float32)
        assert np.array_equal(coords, src.coords)

        # the dumps are what the model computes on the input normalized as `pgot eval` normalizes it
        _, stats = read_manifest(data / "manifest.json")
        model = load_checkpoint(run_dir / "checkpoint.pgck")
        dumps = model.inspect(normalize(src.input, stats.input_mean, stats.input_std), src.coords)
        assert np.array_equal(weights, dumps["layer0_assignment"])
        assert np.array_equal(values, dumps["layer0_gate"])

    def test_sample_without_manifest_exit_3(self, tmp_path, capsys):
        sample = sorted(p for p in run_gen(tmp_path).iterdir() if p.suffix == ".pgds")[0]
        lone = tmp_path / "lone" / sample.name
        lone.parent.mkdir()
        lone.write_bytes(sample.read_bytes())
        path = tmp_path / "m.pgck"
        save_checkpoint(PgotModel(ModelConfig(**DESK_CONFIG["model"])), path)
        capsys.readouterr()
        assert main(["inspect", "--checkpoint", str(path), "--sample", str(lone), "--out", str(tmp_path / "dump")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1 and "manifest.json" in err
        assert not (tmp_path / "dump").exists()


def _save_huge_weight_checkpoint(path) -> None:
    model = PgotModel(ModelConfig(**DESK_CONFIG["model"]))
    # finite, but the lift's products overflow float32 and numpy would warn on the way to the failure
    dict(model.parameters())["lift.fc1.w"].data[...] = 3e38
    save_checkpoint(model, path)


class TestNumericalFailure:
    def test_huge_weights_eval_and_inspect_exit_4_with_one_line(self, tmp_path, capsys):
        data = run_gen(tmp_path)
        sample = sorted(p for p in data.iterdir() if p.suffix == ".pgds")[0]
        path = tmp_path / "m.pgck"
        _save_huge_weight_checkpoint(path)
        capsys.readouterr()
        for argv in (
            ["eval", "--checkpoint", str(path), "--data", str(data)],
            ["inspect", "--checkpoint", str(path), "--sample", str(sample), "--out", str(tmp_path / "dump")],
        ):
            assert main(argv) == 4
            captured = capsys.readouterr()
            assert captured.err == "numerical failure: non-finite activations after block 0\n"
            assert captured.out == ""
        assert not (tmp_path / "dump").exists()

    def test_eval_huge_target_std_exit_4_with_one_line(self, tmp_path, capsys):
        # finite and positive, so the manifest is accepted, but the denormalized predictions overflow
        data = run_gen(tmp_path)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["normalization"]["target_std"] = [1e300]
        (data / "manifest.json").write_text(json.dumps(manifest))
        path = tmp_path / "m.pgck"
        save_checkpoint(PgotModel(ModelConfig(**DESK_CONFIG["model"])), path)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: non-finite denormalized prediction for sample 0\n"
        assert captured.out == ""


def _huge_weight_eval(tmp_path, config_path):
    _save_huge_weight_checkpoint(tmp_path / "m.pgck")
    return ["eval", "--checkpoint", str(tmp_path / "m.pgck"), "--data", str(run_gen(tmp_path))], 4


# each entry gives an argv and its exit code
SUBPROCESS_CASES = {
    "eval-3e38-weight": _huge_weight_eval,
    "gen-seed-negative": lambda *_: (GEN_ARGS + ["--seed", "-1"], 2),
    "eval-stray-argument-newline": lambda *_: (["eval", "--checkpoint", "a", "--data", "b", "x\ny"], 2),
    "bench-repeats-x": lambda tmp_path, config_path: (
        ["bench", "--config", str(config_path), "--sizes", "64", "--repeats", "x", "--out", str(tmp_path / "b.csv")],
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(SUBPROCESS_CASES))
def test_subprocess_one_stderr_line(tmp_path, config_path, case):
    """Run in a child process: pytest's warning capture would hide numpy's RuntimeWarning lines."""
    argv, code = SUBPROCESS_CASES[case](tmp_path, config_path)
    env = {**os.environ, "PYTHONPATH": str(Path(pgot.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "pgot.cli", *argv], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300
    )
    assert result.returncode == code, result.stderr
    assert result.stderr.count("\n") == 1, result.stderr


def test_closed_stdout_is_no_data_error(tmp_path):
    """`pgot gen ... | head -0`: the reader of stdout is gone before the summary line is written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(pgot.__file__).parents[1])}
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pgot.cli", *GEN_ARGS],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 1
    assert result.stderr == ""
    samples, _ = read_dataset(tmp_path / "out")
    assert len(samples) == 1


def test_runtime_loads_no_scipy(tmp_path, config_path):
    """train, eval, inspect and bench on an existing split run on numpy alone; gen loads scipy for its solver,
    which shows that the child would see scipy if a command loaded it."""
    data, run_dir = run_gen(tmp_path), tmp_path / "run"
    config_path.write_text(json.dumps({**DESK_CONFIG, "training": {"steps": 2}}))
    commands = [
        ["train", "--config", str(config_path), "--data", str(data), "--out", str(run_dir)],
        ["eval", "--checkpoint", str(run_dir / "checkpoint.pgck"), "--data", str(data)],
        ["inspect", "--checkpoint", str(run_dir / "checkpoint.pgck"), "--sample", str(data / "sample_0000.pgds"),
         "--out", str(tmp_path / "dump")],
        ["bench", "--config", str(config_path), "--sizes", "64", "--repeats", "1", "--out", str(tmp_path / "b.csv")],
        ["gen", "--task", "poisson2d", "--samples", "1", "--resolution", "8", "--out", str(tmp_path / "gen")],
    ]
    script = (
        "import contextlib, json, os, sys\n"
        "from pgot.cli import main\n"
        "loaded = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(open(os.devnull, 'w')):\n"
        "        code = main(argv)\n"
        "    loaded.append([argv[0], code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')[:3]])\n"
        "print(json.dumps(loaded))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pgot.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], capture_output=True, text=True,
                            env=env, cwd=tmp_path, timeout=300)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert [entry[:2] for entry in loaded] == [[argv[0], 0] for argv in commands]
    assert [entry[2] for entry in loaded[:4]] == [[]] * 4
    assert "scipy" in loaded[4][2]
