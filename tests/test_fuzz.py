"""Structured fuzz over checkpoint and sample files, manifests, command-line
flags and config values: damaged bytes reach `pgot eval` and `pgot inspect`,
damaged manifests reach `pgot eval` and `pgot gen --train-manifest`, hostile values
reach `pgot gen`, `pgot bench` and `pgot train`, and each must end in a
documented exit code with no stderr on success and exactly one line otherwise."""

import contextlib
import copy
import io
import json
import math
import shutil
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgot.cli import main
from pgot.data import gen_poisson2d, write_dataset
from pgot.model import ModelConfig, PgotModel, save_checkpoint

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_dataset(gen_poisson2d(5, 8, 3), root / "data", task="poisson2d")
    for name in ("damaged", "manifest"):
        shutil.copytree(root / "data", root / name)
    save_checkpoint(PgotModel(ModelConfig(layers=1, width=8, slices=2, heads=2)), root / "m.pgck")
    return root


@st.composite
def damaged(draw, blob: bytes, keep: range = range(0)):
    """``blob`` with one bit flipped, cut short, or a random byte run spliced
    in; a splice never touches ``keep``, so a checkpoint's config cannot ask
    for a model too large to build."""
    kind = draw(st.sampled_from(["flip", "cut", "splice"]))
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(blob) - 1))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if kind == "cut":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    start = draw(st.integers(0, len(blob)))
    removed = draw(st.integers(0, 16))
    if start < keep.stop and start + removed > keep.start:
        start = keep.stop
    return blob[:start] + draw(st.binary(max_size=16)) + blob[start + removed :]


def check_cli(argv, codes=(0, 2, 3, 4), stray=False):
    """Run ``argv``; unless it ends in a deliberate ``stray`` argument, argparse must know every flag, so a
    stale flag cannot turn each case into the same usage error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes, (code, err.getvalue())
    stderr = err.getvalue()
    assert stray or "unrecognized arguments" not in stderr, stderr
    assert stderr == "" if code == 0 else stderr.count("\n") == 1 and stderr.endswith("\n") and "\r" not in stderr, stderr


def run_eval_and_inspect(files, checkpoint, data, sample):
    check_cli(["eval", "--checkpoint", str(checkpoint), "--data", str(data)])
    check_cli(["inspect", "--checkpoint", str(checkpoint), "--sample", str(sample), "--out", str(files / "dump")])


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint(files, data):
    blob = (files / "m.pgck").read_bytes()
    (config_len,) = struct.unpack_from("<I", blob, 8)
    path = files / "damaged.pgck"
    path.write_bytes(data.draw(damaged(blob, range(12, 12 + config_len))))
    run_eval_and_inspect(files, path, files / "data", files / "data" / "sample_0000.pgds")


@FUZZ
@given(data=st.data())
def test_damaged_sample(files, data):
    path = files / "damaged" / "sample_0001.pgds"
    path.write_bytes(data.draw(damaged((files / "data" / "sample_0001.pgds").read_bytes())))
    run_eval_and_inspect(files, files / "m.pgck", files / "damaged", path)


class Raw(str):
    """Text that goes into a config file unquoted and onto the command line as it is."""


# values no flag or config key accepts: negative and huge integers (past the float range, or past the
# 4300 digits Python reads), NaN and infinities, the wrong JSON type, and strings holding line breaks
NEWLINE_TEXT = st.text(alphabet="x1-,.\n\r", min_size=1, max_size=8).filter(lambda t: "\n" in t or "\r" in t)
HOSTILE = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**1024, max_value=10**400),
    st.just(Raw("1" + "0" * 5000)),
    st.sampled_from([math.nan, math.inf, -math.inf, None, "1", [], {}]),
    NEWLINE_TEXT,
)
# valid draws stay small, so a run takes milliseconds, and fit the dataset (d_a 1), so a run with only
# valid values must succeed; the base values stand in for the larger defaults
MODEL_BASE = {"layers": 1, "width": 8, "slices": 2, "heads": 2}
MODEL_VALUES = {
    "layers": st.integers(1, 2),
    "width": st.sampled_from([8, 16]),
    "slices": st.integers(2, 4),
    "heads": st.sampled_from([1, 2]),
    "d_a": st.just(1),
    "dropout": st.floats(0.0, 0.5),
    "disable_sga": st.booleans(),
    "seed": st.sampled_from([0, 2**128 - 1]),
}
TRAINING_BASE = {"steps": 1}
TRAINING_VALUES = {
    "steps": st.integers(1, 2),
    "lr": st.floats(0.0, 1e-2),
    "weight_decay": st.floats(0.0, 1e-2),
    "clip_norm": st.integers(0, 5),
}

# what a flag takes but int() cannot read, or reads to a value outside every flag's bounds
BAD_FLAG_TEXT = st.one_of(HOSTILE.map(str), st.sampled_from(["", "1.5", "0x10", "nan", "1e3"]))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    write_dataset(gen_poisson2d(9, 8, 4), root / "data", task="poisson2d")
    (root / "bench.json").write_text(json.dumps({"model": MODEL_BASE}))
    return root


def swapped(value):
    """A valid value in the next JSON type along, which its key refuses (or, for an int, may accept)."""
    return {bool: int, int: float, float: str}[type(value)](value)


def to_json(value) -> str:
    """JSON text of ``value``, with each ``Raw`` as written and NaN and infinities as Python's reader takes them."""
    if isinstance(value, dict):
        return "{%s}" % ", ".join(f"{json.dumps(k)}: {to_json(v)}" for k, v in value.items())
    if isinstance(value, list):
        return "[%s]" % ", ".join(map(to_json, value))
    return value if isinstance(value, Raw) else json.dumps(value)


@st.composite
def train_config(draw) -> tuple[str, bool]:
    """A config file's text: the base values, some keys set to a valid value, and half the time up to
    two keys set to a hostile or type-swapped one; at times an unknown key holds a line break. Also
    whether every value is valid."""
    sections = {"model": (MODEL_BASE, MODEL_VALUES), "training": (TRAINING_BASE, TRAINING_VALUES)}
    keys = sorted((section, key) for section, (_, valid) in sections.items() for key in valid)
    bad = draw(st.sets(st.sampled_from(keys), min_size=1, max_size=2)) if draw(st.booleans()) else set()
    text = {}
    for section, (base, valid) in sections.items():
        values = dict(base)
        for key, strategy in valid.items():
            if (section, key) in bad:
                values[key] = draw(st.one_of(HOSTILE, strategy.map(swapped)))
            elif draw(st.booleans()):
                values[key] = draw(strategy)
        if draw(st.integers(0, 19)) == 0:
            unknown = draw(NEWLINE_TEXT)
            values[unknown] = 1
            bad.add((section, unknown))
        text[section] = to_json(values)
    return '{"model": %(model)s, "training": %(training)s}' % text, not bad


def check_argv(data, argv, flags: dict, valid_so_far: bool = True):
    """Run ``argv`` plus each flag in ``flags``, half the time with up to two of them given bad text,
    and at times one stray argument holding a line break; a run with valid values only must succeed."""
    bad = set()
    if flags and data.draw(st.booleans()):
        bad = data.draw(st.sets(st.sampled_from(sorted(flags)), min_size=1, max_size=2))
    for flag, valid in flags.items():
        argv += [flag, data.draw(BAD_FLAG_TEXT if flag in bad else valid)]
    stray = data.draw(st.integers(0, 4)) == 0
    if stray:
        argv.append(data.draw(NEWLINE_TEXT))
    check_cli(argv, codes=(0,) if valid_so_far and not bad and not stray else (0, 2, 3), stray=stray)


ARGV_FUZZ = settings(FUZZ, max_examples=120)


@ARGV_FUZZ
@given(data=st.data())
def test_gen_flags(argv_files, data):
    task = data.draw(st.sampled_from(["poisson2d", "pointcloud_stress"]))
    # only the task's own size flag: the other one is refused whatever its value
    size = {"poisson2d": {"--resolution": st.integers(8, 10)}, "pointcloud_stress": {"--points": st.integers(64, 80)}}
    flags = {"--samples": st.integers(1, 2), **size[task], "--seed": st.sampled_from([0, 2**128 - 1])}
    with tempfile.TemporaryDirectory(dir=argv_files) as out:  # gen refuses a directory that holds anything
        argv = ["gen", "--task", task, "--out", out]
        check_argv(data, argv, {flag: valid.map(str) for flag, valid in flags.items()})


@ARGV_FUZZ
@given(data=st.data())
def test_bench_flags(argv_files, data):
    config = data.draw(st.sampled_from([str(argv_files / "bench.json")] * 3 + ["no\nconfig"]))
    sizes = st.sets(st.integers(1, 32), min_size=1, max_size=3).map(lambda n: ",".join(map(str, sorted(n))))
    argv = ["bench", "--config", config, "--out", str(argv_files / "b.csv")]
    check_argv(data, argv, {"--sizes": sizes, "--repeats": st.integers(1, 2).map(str)}, "\n" not in config)


@ARGV_FUZZ
@given(data=st.data())
def test_train_config(argv_files, data):
    text, valid = data.draw(train_config())
    config = argv_files / "train.json"
    config.write_text(text)
    argv = ["train", "--config", str(config), "--data", str(argv_files / "data"), "--out", str(argv_files / "run")]
    check_argv(data, argv, {}, valid)


class Twin(str):
    """A key equal only to itself, so an object can hold it beside the key it spells: its text then has
    that key twice."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__


# what a string in a manifest is swapped for: a name that is not a plain file in the dataset directory,
# names another file in it, or is too long for the file system; NUL comes first, as hypothesis favours it
NAMES = st.lists(
    st.sampled_from(["\0", "/", "..", "\n", "x" * 300, "sample_0001.pgds", "manifest.json"]),
    min_size=1,
    max_size=3,
).map("".join)
# what any manifest value may be swapped for: every JSON type, numbers no reader takes, and nested junk
MANIFEST_JUNK = st.one_of(
    HOSTILE,
    NAMES,
    st.sampled_from([True, False, 0, 0.0, 1e308, -1e308, 2**64, "", [], {}, [[]], {"": None}]),
    st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
)


def json_paths(value, at=()):
    """The path of everything inside ``value`` and then of ``value``, as tuples of keys and indices.
    Hypothesis favours the first of a list, so the root comes last and the first leaf first."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from json_paths(child, (*at, key))
    yield at


@st.composite
def damaged_manifest(draw, manifest: dict) -> str:
    """``manifest``'s text after one to three edits, each at any path: swap the value for junk, delete
    it, empty it, or duplicate it (a list item twice in a row, an object key twice)."""

    def junk(strategy=MANIFEST_JUNK):
        # sampled_from hands out the same list and dict objects each time: later edits must not reach them
        return copy.deepcopy(draw(strategy))

    root = copy.deepcopy(manifest)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(root))))
        if not path:
            root = junk()
            continue
        parent = root
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        edit = draw(st.sampled_from(["swap", "swap", "delete", "empty", "duplicate"]))
        if edit == "delete":
            del parent[key]
        elif edit == "empty":
            parent[key] = junk(st.sampled_from([[], {}, ""]))
        elif edit == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif edit == "duplicate":
            parent[Twin(key)] = junk(st.one_of(st.just(parent[key]), MANIFEST_JUNK))
        else:
            parent[key] = junk(NAMES if isinstance(parent[key], str) else MANIFEST_JUNK)
    return to_json(root)


@FUZZ
@given(data=st.data())
def test_damaged_manifest(files, data):
    manifest = json.loads((files / "data" / "manifest.json").read_text())
    manifest = {"samples": manifest.pop("samples"), **manifest}  # the first leaf is then a file name
    path = files / "manifest" / "manifest.json"
    path.write_text(data.draw(damaged_manifest(manifest)))
    check_cli(["eval", "--checkpoint", str(files / "m.pgck"), "--data", str(path.parent)])
    gen = ["gen", "--task", "poisson2d", "--samples", "1", "--resolution", "8"]
    with tempfile.TemporaryDirectory(dir=files) as out:
        check_cli(gen + ["--train-manifest", str(path), "--out", out])
