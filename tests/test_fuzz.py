"""Structured fuzz over checkpoint and sample files: damaged bytes reach
`pgot eval` and `pgot inspect`, which must end in a documented exit code with
no stderr on success and exactly one line otherwise."""

import contextlib
import io
import shutil
import struct

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
    shutil.copytree(root / "data", root / "damaged")
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


def check_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    stderr = err.getvalue()
    assert stderr == "" if code == 0 else stderr.count("\n") == 1 and stderr.endswith("\n"), stderr


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
