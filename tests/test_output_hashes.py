import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_hashes_are_reproducible():
    """Two runs of tools/output_hashes.py at its smallest size print the same lines."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    argv = [sys.executable, str(ROOT / "tools" / "output_hashes.py"), "--sizes", "37"]
    runs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(2)]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
        outputs.append(out)
    lines = outputs[0].splitlines()
    assert len(lines) == 62 and all(line.startswith(("f32/", "f64/")) for line in lines)
    assert outputs[0] == outputs[1]
