"""The arithmetic of ``tools/bench_pairs.py`` on canned run results, and
its clean-up when a signal stops it, with a stand-in for ``run.py``; no
benchmark runs."""

import importlib.util
import json
import os
import pathlib
import shutil
import signal

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
        ["batch:1-2", "--traced", "batch:7-5"],  # a reversed traced range
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


def test_a_traced_spec_takes_a_seed_range_or_list():
    parser = bench_pairs.argparse.ArgumentParser()
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--claim")
    parser.add_argument("--traced")
    for spec, seeds in (("batch:5", [5]), ("batch:5-7", [5, 6, 7]), ("batch:9,3", [9, 3])):
        _, runs, claimed, traced = bench_pairs.parse_args(parser, ["batch:1-2", "--traced", spec])
        assert (runs, claimed, traced) == ([("batch", [1, 2])], None, ("batch", seeds))


def test_traced_runs_report_each_metric_median_per_side():
    runs = [
        {"crt.strong_patch.self_s": 3.0, "crt.solved_ratio": 1.0, "trace.overhead_ratio": None},
        {"crt.strong_patch.self_s": 1.0, "crt.solved_ratio": 0.5, "trace.overhead_ratio": 1.25},
        {"crt.strong_patch.self_s": 2.5, "trace.overhead_ratio": 1.75},
    ]
    # a metric a run lacks, or reports as None, counts only where present
    assert bench_pairs.medians(runs) == {
        "crt.strong_patch.self_s": 2.5,
        "crt.solved_ratio": 0.75,
        "trace.overhead_ratio": 1.5,
    }
    assert bench_pairs.medians([{"x": None}]) == {"x": None}


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


# the tail of a traced batch run of perfbench/run.py, whose set-up has a speed line of its own
RUN_OUTPUT = """workload batch, seed 7, 30 s, trace 1
  spectrum.spectrum_json.self_s                     1.25e-05 s/op
  spectrum.spectrum_json.calls                             1 count/op
  share of traced spectrum time: spectrum_json 61%, compute_spectrum 22%
  reference: median 0.02469 s over 31 samples, nominal 0.02 s; timings scaled by 0.810 on the whole
  set-up reference: median 0.025 s over 3 samples, nominal 0.02 s; timings scaled by 0.800 on the whole
  failed_ratio 0.0000 (0 of 1200)
{"correct": true, "attempted": 1200, "failed": 0, "metrics": {}}
"""


def test_the_speed_line_is_read_from_run_output():
    assert bench_pairs.speed_factor(RUN_OUTPUT) == 0.81
    # a run that is not batch prints no set-up line
    without_set_up = "\n".join(l for l in RUN_OUTPUT.splitlines() if "set-up" not in l)
    assert bench_pairs.speed_factor(without_set_up) == 0.81


def test_a_missing_speed_line_is_an_error_not_a_factor_of_one():
    only_set_up = "\n".join(l for l in RUN_OUTPUT.splitlines() if not l.startswith("  reference"))
    for text in (only_set_up, '{"metrics": {}}\n'):
        with pytest.raises(ValueError):
            bench_pairs.speed_factor(text)


def _traced(scale, values):
    return {**_result(0, values), "scale": scale}


PER_LAYER = [
    {"name": "spectrum.spectrum_json.self_s", "unit": "s/op", "better": "lower"},
    {"name": "spectrum.spectrum_json.calls", "unit": "count/op", "better": "lower"},
    {"name": "spectrum.compute_spectrum.hit_ratio", "unit": "ratio", "better": "higher"},
    {"name": "cli.startup_s", "unit": "s", "better": "lower"},
]


def test_a_factor_of_two_doubles_the_time_readings_only():
    values = {"spectrum.spectrum_json.self_s": 1.5, "spectrum.spectrum_json.calls": 3.0,
              "spectrum.compute_spectrum.hit_ratio": 0.5, "cli.startup_s": None}
    assert bench_pairs.scaled(values, 2.0) == {
        "spectrum.spectrum_json.self_s": 3.0,
        "spectrum.spectrum_json.calls": 3.0,
        "spectrum.compute_spectrum.hit_ratio": 0.5,
        "cli.startup_s": None,
    }


def test_traced_pairs_are_summarised_scaled_with_the_unscaled_medians_beside():
    # each parent run read 2.0 at factor 2, each change run 3.0 at factor 1
    pairs = [
        {"parent": _traced(2.0, {"spectrum.spectrum_json.self_s": 2.0, "spectrum.spectrum_json.calls": 1}),
         "change": _traced(1.0, {"spectrum.spectrum_json.self_s": 3.0, "spectrum.spectrum_json.calls": 1})}
        for _ in range(3)
    ]
    t = bench_pairs.summarize_traced(pairs, PER_LAYER)
    assert (t["pairs"], t["label"]) == (3, "note")
    assert t["scale"] == {"parent": [2.0] * 3, "change": [1.0] * 3}
    self_s = t["metrics"]["spectrum.spectrum_json.self_s"]
    # scaled, the change reads 3.0 against the parent's 4.0: better in every pair
    assert (self_s["parent_median"], self_s["change_median"], self_s["better_in"]) == (4.0, 3.0, "3 of 3")
    assert (self_s["unit"], self_s["parent_q1"], self_s["parent_q3"]) == ("s/op", 4.0, 4.0)
    assert "within_bound" not in self_s
    assert t["metrics"]["spectrum.spectrum_json.calls"]["better_in"] == "0 of 3"
    # a metric that no pair reports on both sides is left out
    assert set(t["metrics"]) == {"spectrum.spectrum_json.self_s", "spectrum.spectrum_json.calls"}
    assert t["unscaled_medians"]["parent"]["spectrum.spectrum_json.self_s"] == 2.0
    assert t["unscaled_medians"]["change"]["spectrum.spectrum_json.self_s"] == 3.0
    assert bench_pairs.summarize_traced(pairs * 4, PER_LAYER)["label"] == "reading"


def test_the_table_has_a_row_per_workload_and_metric_and_the_verdict_on_the_claimed_one():
    end_to_end = [
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    pairs = [
        (k, "parent", {"parent": _result(0, {"op_p50_s": p, "setup_s": 0.03}),
                       "change": _result(0, {"op_p50_s": c, "setup_s": 0.04})})
        for k, (p, c) in enumerate(zip(PARENT, [p - 2.0 for p in PARENT]))
    ]
    report = {"workloads": {"batch": bench_pairs.summarize_workload(pairs, end_to_end)}}
    report["claim"] = bench_pairs.claim("batch", "op_p50_s", report["workloads"]["batch"]["metrics"]["op_p50_s"])
    # op: medians 11.0 and 9.0, 2.0 apart over an IQR of 1.75; set-up: no IQR, 1/3 over its bound
    assert bench_pairs.table(report).splitlines() == [
        "workload  metric    parent  change  change/parent  better_in  gap/IQR  within_bound  claim",
        "batch     op_p50_s  11      9       -18.2%         10 of 10   1.14     yes           met",
        "batch     setup_s   0.03    0.04    +33.3%         0 of 10    -        no",
    ]
    report["claim"]["met"] = False
    assert bench_pairs.table(report).splitlines()[1].endswith("yes           not met")


def test_a_cold_claim_over_fewer_than_20_pairs_is_a_note():
    # cold calls drift between spells, so wide and deep need 20 pairs
    end_to_end = [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25}]
    for n, label in ((1, "note"), (2, "verdict")):
        parent, change = PARENT * n, [p - 3.0 for p in PARENT] * n
        s = bench_pairs.summarize(parent, change, "lower", 0.25)
        assert bench_pairs.claim("batch", "op_p50_s", s)["label"] == "verdict"
        for workload in ("wide", "deep"):
            c = bench_pairs.claim(workload, "op_p50_s", s)
            assert (c["met"], c["label"]) == (True, label)
        pairs = [
            (k, "parent", {"parent": _result(0, {"op_p50_s": p}), "change": _result(0, {"op_p50_s": c})})
            for k, (p, c) in enumerate(zip(parent, change))
        ]
        report = {"workloads": {"wide": bench_pairs.summarize_workload(pairs, end_to_end)},
                  "claim": bench_pairs.claim("wide", "op_p50_s", s)}
        verdict = bench_pairs.table(report).splitlines()[1].split("yes", 1)[1].strip()
        assert verdict == ("met (note)" if label == "note" else "met")


def test_a_run_ends_by_printing_the_table_on_stdout(monkeypatch, tmp_path, capsys):
    names = [m["name"] for m in json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(bench_pairs, "run", lambda *_: _result(0, dict.fromkeys(names, 1.0)))
    out = tmp_path / "B.json"
    assert bench_pairs.main([ROOT, ROOT, "batch:1-2", "--claim", "batch:op_p50_s", "--out", str(out)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["workload", "metric", "parent", "change", "change/parent", "better_in",
                               "gap/IQR", "within_bound", "claim"]
    assert [row.split()[:2] for row in rows[1:]] == [["batch", name] for name in names]
    assert rows[1 + names.index("op_p50_s")].endswith("not met")
    assert bench_pairs.table(json.loads(out.read_text())) == "\n".join(rows)


# a run.py that makes its work directory as run.py does, records its pid
# and session, signals the tool and sleeps
STAND_IN = """\
import os, signal, time
os.makedirs(os.path.join(".perfbench_work", str(os.getpid())))
with open("child.txt", "w") as f:
    f.write(f"{os.getpid()} {os.getsid(0)}")
os.kill(os.getppid(), signal.SIGTERM)
time.sleep(60)
"""


def test_a_signal_stops_the_run_and_removes_the_checkouts_and_its_work_directory(monkeypatch, tmp_path):
    # the parent side is a directory checkout; the change side is exported
    # into the tool's temporary directory (copied here, without git), so
    # the stand-in is the one process that the test starts
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text(STAND_IN)
    exported = []

    def export(spec, work, side):
        if os.path.isdir(spec):
            return spec, None
        exported.append(os.path.join(work, side))
        os.makedirs(exported[-1])
        shutil.copy(TOOL.parents[1] / "BENCHMARK.json", exported[-1])
        return exported[-1], "f" * 40

    def unhandled(*_):
        raise AssertionError("the tool left SIGTERM to its caller's handler")

    monkeypatch.setattr(bench_pairs, "checkout", export)
    before = signal.signal(signal.SIGTERM, unhandled)
    out = tmp_path / "B.json"
    try:
        with pytest.raises(SystemExit) as info:
            bench_pairs.main([str(parent), "HEAD", "batch:1", "--out", str(out)])
        assert signal.getsignal(signal.SIGTERM) is unhandled
    finally:
        signal.signal(signal.SIGTERM, before)
    assert info.value.code == 128 + signal.SIGTERM
    pid, session = map(int, (parent / "child.txt").read_text().split())
    assert session == pid  # a session of its own, whose every process the tool kills
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)
    assert not (parent / ".perfbench_work").exists()
    assert len(exported) == 1 and not os.path.exists(os.path.dirname(exported[0]))
    assert not out.exists()
