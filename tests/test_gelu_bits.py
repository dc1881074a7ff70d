import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pgot import engine

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gelu_bits.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("gelu_bits", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_strided_sweep_finds_no_difference():
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, str(TOOL), "--stride", "65537"], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "65536 float32 patterns checked (stride 65537), 0 differ\n"


def test_a_differing_pattern_is_printed_and_exits_1(monkeypatch, capsys):
    tool = _load_tool()
    block = engine._gelu_block
    flipped = np.uint32(3 * 65537)  # the fourth pattern the sweep checks

    def off_by_one_bit(x, out, d):
        block(x, out, d)
        out.view(np.uint32)[x.view(np.uint32) == flipped] ^= 1

    monkeypatch.setattr(engine, "_gelu_block", off_by_one_bit)
    assert tool.main(["--stride", "65537"]) == 1
    assert capsys.readouterr().out == "65536 float32 patterns checked (stride 65537), 1 differ\n  0x00030003\n"
