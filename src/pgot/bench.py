"""Efficiency benchmarking: wall time and peak traced bytes versus mesh size."""

from __future__ import annotations

import csv
import gc
import time
import tracemalloc
from dataclasses import dataclass, fields

import numpy as np

from .engine import Rng, Tape
from .errors import ConfigError
from .model import ModelConfig, PgotModel
from .training import relative_l2_loss


@dataclass
class BenchRecord:
    n: int
    fwd_us_med: float
    fwd_us_min: float
    fwd_us_max: float
    fwdbwd_us_med: float
    peak_bytes: int
    config_hash: str

    def row(self) -> list:
        """CSV cells in field order; the float fields, the timings, to 0.1 us."""
        return [f"{getattr(self, f.name):.1f}" if f.type == "float" else getattr(self, f.name) for f in fields(self)]


def _random_cloud(rng: Rng, n: int, d: int, d_a: int):
    coords = rng.uniform(0.0, 1.0, (n, d))
    a = rng.uniform(-1.0, 1.0, (n, d_a))
    return a, coords


def _time_us(fn, repeats: int) -> tuple[float, float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e6)
    return float(np.median(times)), float(min(times)), float(max(times))


def _traced_peak_bytes(fn) -> int:
    """The most bytes ``fn`` holds at once, as tracemalloc sees them.

    An object that the interpreter takes from a free list is not traced, so
    the peak of one pass depends on what earlier code left in those lists: at
    N=64 the first ``run_bench`` in a process read 1.9 KB more than later ones.
    A full collection empties them first, so every pass starts from the same state.
    """
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_bench(config: ModelConfig, sizes: list[int], repeats: int = 5) -> list[BenchRecord]:
    """One record per mesh size N for the given configuration.

    ``peak_bytes`` is the most bytes held at once during one forward pass,
    as tracemalloc sees them (not OS-level RSS).
    """
    if sizes != sorted(sizes):
        raise ConfigError(f"sizes must be ascending, got {sizes}")
    model = PgotModel(config)
    records = []
    for n in sizes:
        # a fresh fixed seed per size, so a size's cloud depends only on N
        a, coords = _random_cloud(Rng(1234), n, config.d, config.d_a)
        model.predict(a, coords)  # warm-up
        med, lo, hi = _time_us(lambda: model.predict(a, coords), repeats)

        def fwd_bwd():
            with Tape() as tape:
                pred = model.predict(a, coords)
                loss = relative_l2_loss(pred, np.ones_like(pred.data))
                tape.backward(loss)
            model.zero_grad()

        fb_med, _, _ = _time_us(fwd_bwd, repeats)
        records.append(
            BenchRecord(
                n=n,
                fwd_us_med=med,
                fwd_us_min=lo,
                fwd_us_max=hi,
                fwdbwd_us_med=fb_med,
                peak_bytes=_traced_peak_bytes(lambda: model.predict(a, coords)),
                config_hash=config.hash(),
            )
        )
    return records


def write_bench_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(BenchRecord)])
        for record in records:
            writer.writerow(record.row())
