"""Benchmark two revisions in alternating pairs and write ``BENCH_<base>.json``.

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD

Each revision is extracted with ``git archive`` into its own directory under
one temporary root, and the two paths have the same length: a workload's
set-up writes its data under the checkout, so ``setup_s`` follows the path.
Every workload in the base's ``BENCHMARK.json`` gets ten pairs. Pair ``i``
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on
each side, unchanged, with seed ``11 + i`` and ``T`` the file's
``run_seconds``; the base runs first when ``i`` is even and the change runs
first when ``i`` is odd.

A run's last output line is its result, and its ``env`` line names the host.
For each end-to-end metric in the base's ``BENCHMARK.json``, the file holds
each side's median, quartiles and IQR (numpy's linear percentiles), the ratio
of the change's median over the base's, the pairs in which the change is
strictly better, the pair count and the seeds, and two verdicts:

* ``gain_rule_met``: the change is better in at least 9 pairs, and its median
  is better than the base's by more than the base's IQR;
* ``within_bound``: the change's median is worse than the base's by no more
  than the metric's ``bound``, a share of the base's median.

Every run is kept with its ``correct``, ``failed`` and ``returncode``. The
file goes to the repository root as ``BENCH_<first 7 hex digits of the base
sha>.json``.

Uncommitted work is benchmarked as a commit object that moves no ref: stage
it with ``git add -A`` and pass ``--change $(git stash create)``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
FIRST_SEED = 11
PAIRS = 10
GAIN_WINS = 9  # of PAIRS


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True).stdout


def resolve(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def extract(sha: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest)


def parse_run(stdout: str, returncode) -> tuple[dict, dict | None]:
    """A run's result (``correct``, ``attempted``, ``failed``, ``metrics`` as
    ``{name: value}``, ``returncode``) and its ``env`` line, or ``None``."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        out = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in out["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        out, metrics = {}, {}
    run = {
        "correct": out.get("correct") is True,
        "attempted": out.get("attempted"),
        "failed": out.get("failed"),
        "metrics": metrics,
        "returncode": returncode,
    }
    return run, env


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=max(900.0, 30 * seconds))
    except subprocess.TimeoutExpired:
        return parse_run("", None)
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
    return parse_run(proc.stdout, proc.returncode)


def quartiles(values) -> dict:
    q1, median, q3 = (float(q) for q in np.percentile(values, [25, 50, 75]))
    return {"iqr": q3 - q1, "median": median, "q1": q1, "q3": q3}


def aggregate(runs: list[dict], end_to_end: list[dict]) -> dict:
    """One workload's summary from its runs, each tagged with ``pair``, ``side`` and ``seed``, for the
    metrics of ``end_to_end``, the ``BENCHMARK.json`` entries that give each one's ``better`` and ``bound``.

    A metric is compared over the pairs in which both runs report it.
    """
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [by_pair[i] for i in sorted(by_pair)]
    metrics = {}
    for declared in end_to_end:
        name, direction = declared["name"], declared["better"]
        both = [p for p in pairs if all(name in p.get(s, {}).get("metrics", {}) for s in SIDES)]
        if not both:
            continue
        base = [p["base"]["metrics"][name] for p in both]
        change = [p["change"]["metrics"][name] for p in both]
        sign = 1.0 if direction == "lower" else -1.0  # sign * (change - base) > 0 is worse
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        summary = {"base": quartiles(base), "change": quartiles(change)}
        worse_by = sign * (summary["change"]["median"] - summary["base"]["median"])
        metrics[name] = {
            **summary,
            "better": direction,
            "change_wins": wins,
            "gain_rule_met": wins >= GAIN_WINS and -worse_by > summary["base"]["iqr"],
            "pairs": len(both),
            "ratio_change_over_base": summary["change"]["median"] / summary["base"]["median"],
            "within_bound": worse_by <= declared["bound"] * abs(summary["base"]["median"]),
        }
    return {
        "first_side": [min(p.values(), key=lambda r: r["position"])["side"] for p in pairs],
        "metrics": metrics,
        "pairs": len(pairs),
        "runs": sorted(runs, key=lambda r: (r["pair"], r["position"])),
        "seeds": [next(iter(p.values()))["seed"] for p in pairs],
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--change", required=True, help="changed revision")
    parser.add_argument("--change-label", help="text for the file's 'change' field (default: the change's sha)")
    parser.add_argument("--claimed-gain", default="none", help="the metric the change claims to improve")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    shas = {"base": resolve(args.base), "change": resolve(args.change)}
    root = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        # same-length names, so both checkouts' paths have the same length
        checkouts = {side: root / name for side, name in zip(SIDES, ("a", "b"))}
        for side in SIDES:
            extract(shas[side], checkouts[side])
        declared = json.loads((checkouts["base"] / "BENCHMARK.json").read_text())
        seconds = declared["run_seconds"]
        hosts, workloads = [], {}
        for workload in (w["name"] for w in declared["workloads"]):
            runs = []
            for pair in range(PAIRS):
                seed = FIRST_SEED + pair
                for position, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                    run, env = run_once(checkouts[side], workload, seed, seconds)
                    runs.append({**run, "pair": pair, "position": position, "seed": seed, "side": side})
                    if env is not None and env not in hosts:
                        hosts.append(env)
                    print(f"{workload} pair {pair} {side}: correct={run['correct']} "
                          f"returncode={run['returncode']}", file=sys.stderr)
            workloads[workload] = aggregate(runs, declared["end_to_end"])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    report = {
        "base": shas["base"],
        "change": args.change_label or shas["change"],
        "claimed_gain": args.claimed_gain,
        "hosts": hosts,
        "protocol": (
            f"{PAIRS} alternating pairs per workload; pair i runs base first when i is even, "
            "change first when odd; each side from its own git-archive checkout of the same path "
            f"length; python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
            f"S = {FIRST_SEED} + i; written by tools/bench_pairs.py"
        ),
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{shas['base'][:7]}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
