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
    assert bench_pairs.parse_seeds("4-4") == [4]
    for text in ("2101-2006", "5-4", "1-", ""):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds(text)


ROOT = str(TOOL.parents[1])


@pytest.mark.parametrize(
    "args",
    [
        ["batch:2101-2006", "--claim", "batch:op_p50_s"],  # a reversed range
        ["batch:7-7", "wide:3-2"],
        ["batch:"],
        ["batch"],
        ["batch:1-2", "batch:3-4"],  # one workload twice
        ["batch:1-2", "--claim", "wide:op_p50_s"],  # a claim on no run
        ["batch:1-2", "--claim", "batch"],
        ["batch:1-2", "--traced", "deep:5"],  # a traced run of no run
        ["batch:1-2", "--traced", "batch:x"],
        ["bogus:1-2"],  # no such workload in BENCHMARK.json
        ["batch:1-2", "--claim", "batch:op_p99_s"],  # no such metric
    ],
)
def test_bad_arguments_are_a_usage_error_before_anything_runs(args, monkeypatch, tmp_path, capsys):
    def refuse(*_):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run", refuse)
    out = tmp_path / "B.json"
    with pytest.raises(SystemExit) as info:
        bench_pairs.main([ROOT, ROOT, *args, "--out", str(out)])
    assert info.value.code == 2
    assert "usage: " in capsys.readouterr().err
    assert not out.exists()


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
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ]
    pairs = [
        (1, "parent", {"parent": _result(0, {"op_p50_s": 2.0, "ops_per_s": 0.5, "peak_rss_mb": 20}),
                       "change": _result(0, {"op_p50_s": 1.0, "ops_per_s": 1.0, "peak_rss_mb": 23})}),
        (2, "change", {"parent": _result(1, {"op_p50_s": 3.0, "ops_per_s": 0.3, "peak_rss_mb": 20}),
                       "change": _result(0, {"op_p50_s": 4.0, "ops_per_s": 0.25, "peak_rss_mb": 23.2})}),
    ]
    w = bench_pairs.summarize_workload(pairs, end_to_end)
    assert (w["pairs"], w["seeds"], w["first"]) == (2, [1, 2], ["parent", "change"])
    assert w["failed"] == {"parent": [0, 1], "change": [0, 0]}
    assert w["attempted"] == {"parent": [40, 40], "change": [40, 40]}
    op = w["metrics"]["op_p50_s"]
    assert (op["unit"], op["parent_runs"], op["change_runs"]) == ("s", [2.0, 3.0], [1.0, 4.0])
    assert (op["parent_median"], op["change_median"], op["better_in"]) == (2.5, 2.5, "1 of 2")
    assert w["metrics"]["ops_per_s"]["better_in"] == "1 of 2"
    # 23.1 MB against a bound of 20 * 1.15 = 23.0
    assert w["outside_bound"] == ["peak_rss_mb"]


def test_the_report_names_its_command_line_and_both_sides():
    argv = ["HEAD~1", "/tmp/a b", "batch:1-2", "--claim", "batch:op_p50_s", "--out", "B.json"]
    specs = {"parent": "HEAD~1", "change": "/tmp/a b"}
    head = bench_pairs.report_head(argv, specs, {"parent": "f" * 40, "change": None}, 30)
    # quoted for a shell, so it can be pasted back
    assert head["tool"] == (
        "python3 tools/bench_pairs.py 'HEAD~1' '/tmp/a b' batch:1-2 --claim batch:op_p50_s --out B.json"
    )
    assert head["sides"] == {
        "parent": {"spec": "HEAD~1", "commit": "f" * 40},
        "change": {"spec": "/tmp/a b", "commit": None},
    }
    assert head["command"] == "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0"
    assert list(head) == ["command", "tool", "sides", "method", "machine"]


def test_a_directory_is_its_own_checkout_without_a_commit(tmp_path):
    assert bench_pairs.checkout(str(tmp_path), "unused", "parent") == (str(tmp_path), None)
