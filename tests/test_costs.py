"""The cost ledger: memory and op counts of the default model that repeat from run to run, against ``costs.json``.

For the default config on ``bench._random_cloud(Rng(1234), N, 2, 1)``, at L in {2, 8} and N in {1024, 8192},
after one warm fwd+bwd:

* ``forward_peak`` and ``fwdbwd_peak``: the tracemalloc peak of one untaped forward pass and of one taped
  fwd+bwd (``bench._traced_peak_bytes``);
* ``records`` and ``ops``: the tape's records in one fwd+bwd, in all and per op (the function that made
  the closure, as perfbench's tracer names it);
* ``tensors`` and ``tensor_bytes``: the tensors one fwd+bwd builds and their storage bytes, counted by
  wrapping ``Tensor.__init__`` as the ``tensor_bytes`` fixture does.

``criterion_2`` holds criterion 2's slice-attention forward peaks (``bench.run_bench``, one repeat) and the
three ratios its bound of 1.7 applies to. Counts and bytes must match exactly; peaks may differ by 4 KiB
and ratios by 0.01, since a process's first pass reads a few hundred bytes more or less than a later one.
The numbers hold for the numpy version the file names. A change that moves one rewrites the file with

    PYTHONPATH=src python3 tests/test_costs.py --write

and lists every old and new value in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from pgot import bench
from pgot.engine import Rng, Tape, Tensor
from pgot.model import ModelConfig, PgotModel
from pgot.training import relative_l2_loss

COSTS = Path(__file__).with_name("costs.json")
LEDGER = ((2, 1024), (2, 8192), (8, 1024), (8, 8192))  # (layers, N)
CRITERION_2 = ModelConfig(layers=2, width=16, slices=8, scales=2, heads=1)
CRITERION_2_SIZES = [1024, 2048, 4096, 8192]
PEAK_SLACK = 4096  # bytes
RATIO_SLACK = 0.01


@contextlib.contextmanager
def _counting():
    """Count the records per op and the tensors with their bytes while the block runs."""
    counts = {"ops": Counter(), "tensors": 0, "tensor_bytes": 0}
    record, init = Tape.record, Tensor.__init__

    def counting_record(tape, out, parents, backward_fn):
        counts["ops"][backward_fn.__qualname__.split(".", 1)[0]] += 1
        record(tape, out, parents, backward_fn)

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        counts["tensors"] += 1
        counts["tensor_bytes"] += self.data.nbytes

    Tape.record, Tensor.__init__ = counting_record, counting_init
    try:
        yield counts
    finally:
        Tape.record, Tensor.__init__ = record, init


def _fwd_bwd(model, a, coords):
    with Tape() as tape:
        pred = model.predict(a, coords)
        tape.backward(relative_l2_loss(pred, np.ones_like(pred.data)))
    model.zero_grad()


def measure() -> dict:
    ledger = {}
    for layers, n in LEDGER:
        model = PgotModel(ModelConfig(layers=layers))
        a, coords = bench._random_cloud(Rng(1234), n, 2, 1)
        # the warm pass runs the matmul padding probes, once per shape, and is the one counted
        with _counting() as counts:
            _fwd_bwd(model, a, coords)
        ledger[f"L{layers}.N{n}"] = {
            "forward_peak": bench._traced_peak_bytes(lambda: model.predict(a, coords)),
            "fwdbwd_peak": bench._traced_peak_bytes(lambda: _fwd_bwd(model, a, coords)),
            "records": sum(counts["ops"].values()),
            "ops": dict(sorted(counts["ops"].items())),
            "tensors": counts["tensors"],
            "tensor_bytes": counts["tensor_bytes"],
        }
    peaks = [r.peak_bytes for r in bench.run_bench(CRITERION_2, CRITERION_2_SIZES, repeats=1)]
    return {
        "numpy": np.__version__,
        "ledger": ledger,
        "criterion_2": {
            "sizes": CRITERION_2_SIZES,
            "peaks": peaks,
            "ratios": [round(b / a, 4) for a, b in zip(peaks, peaks[1:])],
        },
    }


def differences(old, new, key: str = "") -> list[str]:
    """``key: old -> new`` for each value of ``new`` outside its tolerance of ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for k in sorted(old.keys() | new.keys())
                for line in differences(old.get(k), new.get(k), f"{key}.{k}" if key else k)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (o, n) in enumerate(zip(old, new)) for line in differences(o, n, f"{key}[{i}]")]
    slack = PEAK_SLACK if "peak" in key else RATIO_SLACK if "ratios" in key else 0
    numbers = all(isinstance(v, (int, float)) for v in (old, new))
    if old == new or (slack and numbers and abs(new - old) <= slack):
        return []
    return [f"{key}: {old} -> {new}"]


def test_costs_match_the_ledger():
    stored = json.loads(COSTS.read_text())
    diffs = differences(stored, measure())
    assert not diffs, f"costs moved from {COSTS.name} (rewrite it with --write):\n" + "\n".join(diffs)


def test_differences_apply_each_tolerance():
    old = {"ledger": {"L2.N8": {"fwdbwd_peak": 10_000, "records": 143}}, "criterion_2": {"ratios": [1.75]}}
    within = {"ledger": {"L2.N8": {"fwdbwd_peak": 10_000 + PEAK_SLACK, "records": 143}},
              "criterion_2": {"ratios": [1.755]}}
    assert differences(old, within) == []
    outside = {"ledger": {"L2.N8": {"fwdbwd_peak": 10_001 + PEAK_SLACK, "records": 144}},
               "criterion_2": {"ratios": [1.7]}}
    assert differences(old, outside) == [
        "criterion_2.ratios[0]: 1.75 -> 1.7",
        f"ledger.L2.N8.fwdbwd_peak: 10000 -> {10_001 + PEAK_SLACK}",
        "ledger.L2.N8.records: 143 -> 144",
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_costs.py --write")
    COSTS.write_text(json.dumps(measure(), indent=1) + "\n")
