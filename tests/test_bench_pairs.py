import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ENV = {"nproc": 2, "blas_threads": 1, "numpy": "2.4.6"}
BETTER = {"points_per_s": "higher", "peak_rss_mib": "lower"}


def _stdout(points_per_s: float, peak_rss_mib: float) -> str:
    """What ``perfbench/run.py`` prints: the env line, the run line, then the result."""
    result = {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {
            "points_per_s": {"value": points_per_s, "unit": "1/s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        },
    }
    return "\n".join(["env " + json.dumps(ENV), 'run {"n": 8192}', json.dumps(result)]) + "\n"


def _runs(lines: list) -> list:
    """Tag canned runs as the tool does: pair i runs base first when i is even."""
    runs = []
    for pair, sides in enumerate(lines):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for position, side in enumerate(order):
            run, _ = bench_pairs.parse_run(*sides[side])
            runs.append({**run, "pair": pair, "position": position, "seed": 11 + pair, "side": side})
    return runs


# (points_per_s, peak_rss_mib) per pair and side
CANNED = [
    {"base": (100.0, 150.0), "change": (110.0, 140.0)},
    {"base": (120.0, 152.0), "change": (100.0, 141.0)},
    {"base": (90.0, 149.0), "change": (130.0, 150.0)},
    {"base": (110.0, 151.0), "change": (120.0, 139.0)},
]


def test_parse_run_reads_the_last_line_and_the_env_line():
    run, env = bench_pairs.parse_run(_stdout(100.0, 150.0), 0)
    assert env == ENV
    assert run == {
        "correct": True,
        "attempted": 5,
        "failed": 0,
        "metrics": {"points_per_s": 100.0, "peak_rss_mib": 150.0},
        "returncode": 0,
    }


def test_a_run_without_a_result_is_incorrect_and_has_no_metrics():
    run, env = bench_pairs.parse_run("Traceback (most recent call last):\n", 1)
    assert env is None
    assert run["correct"] is False and run["metrics"] == {} and run["returncode"] == 1


def test_aggregate_medians_iqrs_wins_and_ratios():
    lines = [{side: (_stdout(*values), 0) for side, values in pair.items()} for pair in CANNED]
    summary = bench_pairs.aggregate(_runs(lines), BETTER)
    assert summary["pairs"] == 4
    assert summary["seeds"] == [11, 12, 13, 14]
    assert summary["first_side"] == ["base", "change", "base", "change"]
    assert [(r["pair"], r["side"]) for r in summary["runs"][:4]] == [
        (0, "base"), (0, "change"), (1, "change"), (1, "base"),
    ]
    pps = summary["metrics"]["points_per_s"]
    # base 90, 100, 110, 120: linear quartiles 97.5, 105, 112.5
    assert pps["base"] == {"q1": 97.5, "median": 105.0, "q3": 112.5, "iqr": 15.0}
    # change 100, 110, 120, 130
    assert pps["change"] == {"q1": 107.5, "median": 115.0, "q3": 122.5, "iqr": 15.0}
    assert pps["change_wins"] == 3  # higher is better: pairs 0, 2 and 3
    assert pps["ratio_change_over_base"] == pytest.approx(115.0 / 105.0)
    assert pps["better"] == "higher" and pps["pairs"] == 4
    rss = summary["metrics"]["peak_rss_mib"]
    assert rss["base"]["median"] == 150.5 and rss["base"]["iqr"] == pytest.approx(1.5)
    assert rss["change"]["median"] == 140.5 and rss["change"]["iqr"] == pytest.approx(3.5)
    assert rss["change_wins"] == 3  # lower is better: pair 2 is worse
    assert rss["ratio_change_over_base"] == pytest.approx(140.5 / 150.5)


def test_a_failed_run_drops_its_pair_from_the_comparison():
    lines = [{side: (_stdout(*values), 0) for side, values in pair.items()} for pair in CANNED]
    lines[1]["change"] = ("", 1)
    summary = bench_pairs.aggregate(_runs(lines), BETTER)
    assert summary["pairs"] == 4
    assert [r["correct"] for r in summary["runs"] if r["pair"] == 1] == [False, True]
    pps = summary["metrics"]["points_per_s"]
    assert pps["pairs"] == 3
    assert pps["base"]["median"] == 100.0  # 90, 100, 110
    assert pps["change"]["median"] == 120.0  # 110, 120, 130
    assert pps["change_wins"] == 3
