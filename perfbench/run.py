"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_poisson16 --seed 0 --seconds 20 --trace 0

Run from the repository root; pgot is imported from ``src/``. With
``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics, with times scaled to a reference host speed (see
``hostspeed.py``); with ``--trace 1`` it holds the per-layer metrics of a
traced run. Earlier lines record the environment and the run's shape.
Spans and the full result are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BLAS_THREADS = 1


def _parse(argv):
    from metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must be in [0, 2**40)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Set one BLAS thread, then import pgot from ``src/``.

    On a few shared cores a second BLAS thread bought no speed on these
    workloads, and it stalls whenever the host holds back the other core.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "pgot" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'pgot'} is missing")
    sys.path.insert(0, str(src))
    import pgot

    if Path(pgot.__file__).resolve().parent != (src / "pgot").resolve():
        raise SystemExit(f"perfbench: imported pgot from {pgot.__file__}, not from {src}")
    return nproc


def _environment(nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def end_to_end(result, span) -> dict:
    """The end-to-end metrics, with ``span(a, b)`` giving seconds."""
    import numpy as np

    def total(parts):
        return sum(span(a, b) for a, b in parts)

    p50, p90 = np.percentile([span(a, b) for a, b in result.unit_spans], [50, 90]) * 1e3
    return {
        "setup_s": statistics.median(total(parts) for parts in result.setup_parts),
        "points_per_s": result.n * result.units / total(result.timed_spans),
        "latency_ms_p50": float(p50),
        "latency_ms_p90": float(p90),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "time_to_target_s": statistics.median(total(parts) for parts in result.target_parts),
    }


def per_layer(result, tracer) -> dict:
    """The per-layer metrics. Layer times are wall times, as the spans are;
    the tracing overhead compares scaled throughputs, as ``points_per_s``."""
    from tracer import check_complete, layer_metrics

    def split(span):
        latency = [span(a, b) for a, b in result.unit_spans]
        on = [t for t, traced in zip(latency, result.traced) if traced]
        off = [t for t, traced in zip(latency, result.traced) if not traced]
        return on, off

    on, _ = split(result.host.raw_span)
    metrics = layer_metrics(tracer, len(on), len(result.setup_parts), sum(on))
    metrics.update(result.layer)
    on, off = split(result.host.span)
    pps_on = result.n * len(on) / sum(on)
    pps_off = result.n * len(off) / sum(off)
    metrics["trace.overhead_points_per_s"] = pps_off - pps_on
    metrics["trace.overhead_share"] = (pps_off - pps_on) / pps_off
    check_complete(metrics)
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    # on SIGTERM unwind normally, so that the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = _import_program()

    from metrics import END_TO_END, PER_LAYER
    from tracer import Tracer
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, tracer, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values, catalogue = end_to_end(result, result.host.span), END_TO_END
    else:
        values, catalogue = per_layer(result, tracer), PER_LAYER
        tracer.write(OUT_DIR / f"{tag}-spans.csv.gz")
    env = _environment(nproc)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_hashes": result.config_hashes,
        "n": result.n,
        "units": result.units,
        "setups": len(result.setup_parts),
        "checks": result.checks,
        **result.notes,
        "host_speed": result.host.summary(),
        # the same end-to-end metrics from unscaled wall time
        "wall": end_to_end(result, result.host.raw_span) if tracer is None else None,
        "run_s": time.perf_counter() - started,
        "env": env,
    }
    out = {
        "correct": all(result.checks.values()) and result.failed == 0,
        "attempted": result.units,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": catalogue[name][0]} for name in catalogue},
    }
    with open(OUT_DIR / f"{tag}-result.json", "w") as fh:
        json.dump({**record, **out}, fh, indent=1)
        fh.write("\n")
    print("env " + json.dumps(env, sort_keys=True))
    print("run " + json.dumps({k: v for k, v in record.items() if k != "env"}, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
