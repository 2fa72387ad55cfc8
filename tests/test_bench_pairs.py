"""The arithmetic of ``tools/bench_pairs.py`` on canned run results; no
benchmark runs."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("1301-1305") == [1301, 1302, 1303, 1304, 1305]
    assert bench_pairs.parse_seeds("7,3,9") == [7, 3, 9]
    assert bench_pairs.parse_seeds("12") == [12]


def test_quartiles_use_the_inclusive_method():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([0.5]) == (0.5, 0.5, 0.5)


PARENT = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 10.0, 11.0]
CHANGE = [8.0, 9.5, 9.0, 10.0, 9.5, 8.5, 9.0, 9.5, 8.0, 11.0]


def test_a_lower_is_better_metric():
    s = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.25)
    # parent sorted: 9, 10, 10, 10.5, 11, 11, 11.5, 12, 12.5, 13
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"]) == (10.125, 11.0, 11.875)
    assert (s["change_q1"], s["change_median"], s["change_q3"]) == (8.625, 9.25, 9.5)
    assert s["change_over_parent"] == round(-1.75 / 11.0, 4)
    assert s["median_gap_over_parent_iqr"] == 1.0
    # the seventh pair is 11.5 against 9.0 and the last a tie, 11.0 and 11.0;
    # the fifth is the only loss, 9.0 against 9.5
    assert s["better_in"] == "8 of 10"
    assert s["within_bound"] is True
    assert s["parent_runs"] == PARENT and s["change_runs"] == CHANGE


def test_a_higher_is_better_metric_and_the_bound():
    s = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.15)
    assert s["better_in"] == "1 of 10"
    # the change median 9.25 is below 11.0 * 0.85 = 9.35
    assert s["within_bound"] is False
    assert bench_pairs.summarize(PARENT, CHANGE, "higher", 0.2)["within_bound"] is True


# PARENT's quartiles are 10.125 and 11.875: an interquartile range of 1.75
@pytest.mark.parametrize(
    "change, met",
    [
        ([p - 1.0 for p in PARENT], False),  # 10 of 10, but the medians 1.0 apart
        ([p - 2.0 for p in PARENT], True),  # 10 of 10, 2.0 apart
        ([p - 3.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]], False),  # 8 of 10
        ([p - 3.0 for p in PARENT[:9]] + PARENT[9:], True),  # 9 of 10 and a tie
    ],
)
def test_the_claim_needs_nine_in_ten_and_a_gap_beyond_the_parent_iqr(change, met):
    s = bench_pairs.summarize(PARENT, change, "lower", 0.25)
    assert bench_pairs.claim_met(s) is met
    c = bench_pairs.claim("batch", "op_p50_s", s)
    assert (c["met"], c["parent_iqr"], c["better_in"]) == (met, 1.75, s["better_in"])


def _result(failed, values):
    return {"failed": failed, "attempted": 40, "metrics": {n: {"value": v, "unit": "s"} for n, v in values.items()}}


def test_a_workload_pairs_runs_by_seed():
    end_to_end = [
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ]
    pairs = [
        (1, "parent", {"parent": _result(0, {"op_p50_s": 2.0, "ops_per_s": 0.5}),
                       "change": _result(0, {"op_p50_s": 1.0, "ops_per_s": 1.0})}),
        (2, "change", {"parent": _result(1, {"op_p50_s": 3.0, "ops_per_s": 0.3}),
                       "change": _result(0, {"op_p50_s": 4.0, "ops_per_s": 0.25})}),
    ]
    w = bench_pairs.summarize_workload(pairs, end_to_end)
    assert (w["pairs"], w["seeds"], w["first"]) == (2, [1, 2], ["parent", "change"])
    assert w["failed"] == {"parent": [0, 1], "change": [0, 0]}
    assert w["attempted"] == {"parent": [40, 40], "change": [40, 40]}
    op = w["metrics"]["op_p50_s"]
    assert (op["unit"], op["parent_runs"], op["change_runs"]) == ("s", [2.0, 3.0], [1.0, 4.0])
    assert (op["parent_median"], op["change_median"], op["better_in"]) == (2.5, 2.5, "1 of 2")
    assert w["metrics"]["ops_per_s"]["better_in"] == "1 of 2"
