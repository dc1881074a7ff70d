import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

ENV = {"nproc": 2, "blas_threads": 1, "numpy": "2.4.6"}
END_TO_END = [
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.05},
]


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
    summary = bench_pairs.aggregate(_runs(lines), END_TO_END)
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
    summary = bench_pairs.aggregate(_runs(lines), END_TO_END)
    assert summary["pairs"] == 4
    assert [r["correct"] for r in summary["runs"] if r["pair"] == 1] == [False, True]
    pps = summary["metrics"]["points_per_s"]
    assert pps["pairs"] == 3
    assert pps["base"]["median"] == 100.0  # 90, 100, 110
    assert pps["change"]["median"] == 120.0  # 110, 120, 130
    assert pps["change_wins"] == 3


def _ten_pairs(base: list, change: list) -> dict:
    """The summary of ten pairs whose two metrics both read ``base[i]`` and ``change[i]`` in pair i."""
    lines = [{"base": (_stdout(b, b), 0), "change": (_stdout(c, c), 0)} for b, c in zip(base, change, strict=True)]
    return bench_pairs.aggregate(_runs(lines), END_TO_END)["metrics"]


BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # median 104.5, IQR 4.5


def test_gain_rule_needs_nine_wins_and_a_median_gap_beyond_the_base_iqr():
    up = _ten_pairs(BASE, [b + 5.0 for b in BASE])  # 10 wins for points_per_s, a gap of 5 > 4.5
    assert up["points_per_s"]["change_wins"] == 10 and up["points_per_s"]["gain_rule_met"]
    assert up["peak_rss_mib"]["change_wins"] == 0 and not up["peak_rss_mib"]["gain_rule_met"]
    down = _ten_pairs(BASE, [b - 5.0 for b in BASE])
    assert down["peak_rss_mib"]["gain_rule_met"] and not down["points_per_s"]["gain_rule_met"]
    small = _ten_pairs(BASE, [b + 4.5 for b in BASE])  # 10 wins, but a gap of one base IQR
    assert small["points_per_s"]["change_wins"] == 10 and not small["points_per_s"]["gain_rule_met"]
    nine = _ten_pairs(BASE, [b + 8.0 for b in BASE[:9]] + [0.0])  # 9 wins, median 111.5
    assert nine["points_per_s"]["change_wins"] == 9 and nine["points_per_s"]["gain_rule_met"]
    eight = _ten_pairs(BASE, [b + 8.0 for b in BASE[:8]] + [0.0, 0.0])  # 8 wins, median 110.5
    assert eight["points_per_s"]["change_wins"] == 8 and not eight["points_per_s"]["gain_rule_met"]


@pytest.mark.parametrize("factor, rss_within, pps_within", [
    (1.0, True, True),
    (1.05, True, True),  # peak_rss_mib worse by exactly its bound, 5 %
    (1.0501, False, True),
    (0.76, True, True),  # points_per_s worse by exactly its bound, 24 %
    (0.7599, True, False),
])
def test_within_bound_reads_the_declared_bound_in_the_worse_direction(factor, rss_within, pps_within):
    base = [100.0] * 10
    summary = _ten_pairs(base, [b * factor for b in base])
    assert summary["peak_rss_mib"]["within_bound"] is rss_within
    assert summary["points_per_s"]["within_bound"] is pps_within
