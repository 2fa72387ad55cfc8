"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT CHANGE batch:1301-1310 wide:1301-1305 \\
        --claim batch:op_p50_s --traced batch:1311-1315 --out BENCH_N.json

PARENT and CHANGE are each a checkout directory or a git revision of this
repository (exported with ``git archive`` into a temporary directory).  Each
``WORKLOAD:SEEDS`` runs one pair per seed (``A-B`` is a range, ``A,B`` a
list): both sides run ``perfbench/run.py`` from their own checkout on the
same seed, for the ``run_seconds`` that ``BENCHMARK.json`` sets, one run at
a time, the side that runs first alternating from pair to pair.
``--traced WORKLOAD:SEEDS`` adds one ``--trace 1`` run per side per seed,
alternating likewise, and summarises each per-layer metric over those
pairs as it does an end-to-end one: one traced run spreads too widely to
show a change of 10-20%.  ``run.py`` scales its end-to-end timings to the
reference speed but not its per-layer ones, so each ``*_s`` reading of a
traced run is multiplied by the factor of the run's ``timings scaled by
F`` line; the unscaled medians stay beside the scaled ones, and a summary
over fewer than 10 traced pairs is labelled a note.  A
malformed or empty seed range, a workload listed twice or unknown to
``BENCHMARK.json``, and a ``--claim`` or ``--traced`` workload that is not
among the runs or metric that it does not list are usage errors (exit 2),
raised before any run.

The output names the tool's own command line and each side's spec, with
its commit hash when it is a git revision.  It holds, for every end-to-end
metric that ``BENCHMARK.json`` lists, each side's runs, medians and
quartiles, the change over the parent, the gap between the medians in
parent interquartile ranges, in how many pairs the change reads better,
and whether the change's median is within the metric's bound; each
workload lists the metrics whose change median is outside it.  The claim is met when the change reads better in at least
nine pairs in ten and its median is better than the parent's by more than
the parent's interquartile range.  A claim on a cold workload (``wide``,
``deep``) over fewer than 20 pairs is labelled a note, not a verdict.
The file is rewritten after every pair.
At the end the tool prints on stdout a table of one row per workload and
end-to-end metric: the medians, the change, ``better_in``, the gap in
parent interquartile ranges, whether it is within the bound, and the
claim's verdict on the claimed row, followed by "(note)" when it is one.

SIGTERM or SIGINT stops the tool (exit 128 plus the signal's number): it
stops the running ``run.py``, which runs in a session of its own, with
every process that it started, removes the work directory that it leaves
in its checkout, ``.perfbench_work/<pid>``, and removes the exported
checkouts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
# Cold CLI calls drift by 10-20% between spells on a shared machine: two
# sets of 10 pairs on the same two commits have read a timing either way.
# So a claim on these workloads needs at least COLD_PAIRS pairs.
COLD_WORKLOADS, COLD_PAIRS = ("wide", "deep"), 20
METHOD = (
    "alternating parent/change pairs per workload, one seed per pair (both sides run the same "
    "seed), the side that runs first alternating; each side runs perfbench/run.py from its own "
    "checkout; pairs run one at a time; medians and quartiles (inclusive method) over the pairs; "
    "'better_in' counts pairs where the change reads better than the parent on the same seed "
    "(ties count for neither); 'within_bound' compares the change median with the parent median "
    "and the BENCHMARK.json bound; timings are scaled to the benchmark's reference speed as "
    "run.py reports them"
)


def parse_seeds(text: str) -> list:
    """``"5"``, ``"1-3"`` or ``"1,4,7"`` as a list of seeds; ValueError for
    an empty or reversed range."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        if first > last:
            raise ValueError(f"the seed range {text} is empty or reversed")
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def parse_args(parser, argv) -> tuple:
    """The arguments, the runs as (workload, seeds) pairs and the claim and
    traced run as pairs or None; a usage error (exit 2) for a malformed
    spec, a repeated workload, or a claim or traced run of a workload that
    is not among the runs.  Nothing has run yet."""
    args = parser.parse_args(argv)
    try:
        runs = [(workload, parse_seeds(seeds)) for workload, seeds in (s.split(":") for s in args.runs)]
        claimed = args.claim and tuple(args.claim.split(":"))
        traced = args.traced and tuple(args.traced.split(":"))
        if traced:
            traced = traced[0], parse_seeds(traced[1])
    except ValueError as exc:
        parser.error(f"expected WORKLOAD:SEEDS and WORKLOAD:METRIC ({exc})")
    workloads = [workload for workload, _ in runs]
    if len(set(workloads)) < len(workloads):
        parser.error(f"a workload is listed twice in {' '.join(args.runs)}")
    for option, spec in (("--claim", claimed), ("--traced", traced)):
        if spec and (len(spec) != 2 or spec[0] not in workloads):
            parser.error(f"{option} {getattr(args, option[2:])}: not a workload among the runs")
    return args, runs, claimed, traced


def quartiles(values) -> tuple:
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def improves(better: str, parent: float, change: float) -> bool:
    return change < parent if better == "lower" else change > parent


def summarize(parent_runs, change_runs, better: str, bound: float) -> dict:
    """One metric over paired runs: the i-th runs of both sides share a seed."""
    p_q1, p_med, p_q3 = quartiles(parent_runs)
    c_q1, c_med, c_q3 = quartiles(change_runs)
    iqr = p_q3 - p_q1
    wins = sum(improves(better, p, c) for p, c in zip(parent_runs, change_runs))
    limit = p_med * (1 + bound) if better == "lower" else p_med * (1 - bound)
    return {
        "better": better,
        "bound": bound,
        "parent_median": p_med,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "change_median": c_med,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "change_over_parent": round((c_med - p_med) / p_med, 4) if p_med else None,
        "median_gap_over_parent_iqr": round(abs(c_med - p_med) / iqr, 2) if iqr else None,
        "better_in": f"{wins} of {len(parent_runs)}",
        "within_bound": c_med <= limit if better == "lower" else c_med >= limit,
        "parent_runs": list(parent_runs),
        "change_runs": list(change_runs),
    }


def claim_met(summary: dict) -> bool:
    """At least nine pairs in ten better, and the medians apart by more
    than the parent's interquartile range, in the better direction."""
    wins, n = map(int, summary["better_in"].split(" of "))
    iqr = summary["parent_q3"] - summary["parent_q1"]
    gap = summary["change_median"] - summary["parent_median"]
    if summary["better"] == "lower":
        gap = -gap
    return 10 * wins >= 9 * n and gap > iqr


def claim(workload: str, metric: str, summary: dict) -> dict:
    pairs = len(summary["parent_runs"])
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": summary["parent_median"],
        "change_median": summary["change_median"],
        "change_over_parent": summary["change_over_parent"],
        "better_in": summary["better_in"],
        "parent_iqr": summary["parent_q3"] - summary["parent_q1"],
        "median_gap_over_parent_iqr": summary["median_gap_over_parent_iqr"],
        "met": claim_met(summary),
        "label": "note" if workload in COLD_WORKLOADS and pairs < COLD_PAIRS else "verdict",
    }


def table(report: dict) -> str:
    """One row per workload and end-to-end metric: both medians, the change
    over the parent, the pairs where the change reads better, the median
    gap in parent interquartile ranges, whether the change is within the
    bound, and on the claimed metric's row the claim's verdict."""
    claimed = report.get("claim") or {}
    rows = [("workload", "metric", "parent", "change", "change/parent", "better_in",
             "gap/IQR", "within_bound", "claim")]
    for workload, summary in report["workloads"].items():
        for metric, m in summary["metrics"].items():
            change, gap = m["change_over_parent"], m["median_gap_over_parent_iqr"]
            verdict = ""
            if (claimed.get("workload"), claimed.get("metric")) == (workload, metric):
                verdict = "met" if claimed["met"] else "not met"
                if claimed.get("label") == "note":
                    verdict += " (note)"
            rows.append((
                workload, metric, f"{m['parent_median']:.4g}", f"{m['change_median']:.4g}",
                "-" if change is None else f"{change:+.1%}", m["better_in"],
                "-" if gap is None else f"{gap:.2f}", "yes" if m["within_bound"] else "no",
                verdict,
            ))
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in rows)


def summarize_workload(pairs, end_to_end) -> dict:
    """``pairs``: (seed, first side, {side: run.py result}) per pair;
    ``end_to_end``: the metric entries of BENCHMARK.json."""
    out = {
        "pairs": len(pairs),
        "seeds": [seed for seed, _, _ in pairs],
        "first": [first for _, first, _ in pairs],
        "failed": {side: [r[side]["failed"] for _, _, r in pairs] for side in SIDES},
        "attempted": {side: [r[side]["attempted"] for _, _, r in pairs] for side in SIDES},
        "outside_bound": [],
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        runs = {side: [r[side]["metrics"][name]["value"] for _, _, r in pairs] for side in SIDES}
        entry = summarize(runs["parent"], runs["change"], spec["better"], spec["bound"])
        out["metrics"][name] = {"unit": spec["unit"], **entry}
        if not entry["within_bound"]:
            out["outside_bound"].append(name)
    return out


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            names = [line.split(":", 1)[1].strip() for line in info if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    text = f"{os.cpu_count()} CPUs, {cpu}, {platform.system()}, Python {platform.python_version()}"
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        text += ", PYTHONDONTWRITEBYTECODE=1"
    return text


def checkout(spec: str, work: str, side: str) -> tuple:
    """A checkout directory and its commit: ``spec`` itself and None, or
    revision ``spec`` exported and its hash."""
    if os.path.isdir(spec):
        return os.path.abspath(spec), None
    git = ["git", "-C", ROOT]
    commit = subprocess.run(git + ["rev-parse", "--verify", spec + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(git + ["archive", commit], capture_output=True, check=True)
    dest = os.path.join(work, side)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest)
    return dest, commit


def report_head(argv, specs, commits, seconds: float) -> dict:
    """The keys that describe a run: the command each side runs, this
    tool's command line, each side's spec and commit (None for a
    directory), the method and the machine."""
    return {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "tool": shlex.join(["python3", "tools/bench_pairs.py", *argv]),
        "sides": {side: {"spec": specs[side], "commit": commits[side]} for side in SIDES},
        "method": METHOD,
        "machine": machine(),
    }


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    # a session of its own, so that stop() reaches every process it starts
    with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate()
        except BaseException:  # a signal stopping the tool, or any other error
            stop(proc, root)
            raise
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}:\n{stderr}")
    result = json.loads(stdout.strip().splitlines()[-1])
    try:
        return {**result, "scale": speed_factor(stdout)}
    except ValueError as exc:
        raise SystemExit(f"{' '.join(argv[1:])} in {root}: {exc}") from None


def stop(proc, root: str) -> None:
    """Kill a ``run.py`` child and the processes of its session, and remove
    the work directory that it leaves under ``root``."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # the session has ended
        pass
    proc.wait()
    work = os.path.join(root, ".perfbench_work")
    shutil.rmtree(os.path.join(work, str(proc.pid)), ignore_errors=True)
    try:
        os.rmdir(work)  # as run.py does, unless another run's is there
    except OSError:
        pass


_SIGNALS = (signal.SIGTERM, signal.SIGINT)


def _stopped(signum, frame):
    # ignore a second signal, which would cut short the clean-up of the first
    for sig in _SIGNALS:
        signal.signal(sig, signal.SIG_IGN)
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def stopping_on_signals():
    """SIGTERM and SIGINT raise SystemExit(128 + signal) inside, so that
    every ``finally`` and ``with`` cleans up; the handlers are restored on
    leaving."""
    handlers = {sig: signal.signal(sig, _stopped) for sig in _SIGNALS}
    try:
        yield
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, handler)


# run.py's speed line for the run itself; a batch run's set-up has its own
_SPEED = re.compile(r"^  reference: .*; timings scaled by ([0-9.]+) on the whole$", re.M)


def speed_factor(stdout: str) -> float:
    """The factor F of the ``reference: ... timings scaled by F on the
    whole`` line of a ``run.py`` output; ValueError when it has none."""
    match = _SPEED.search(stdout)
    if match is None:
        raise ValueError("no 'reference: ... timings scaled by F' line in the output of run.py")
    return float(match.group(1))


def scaled(values: dict, factor: float) -> dict:
    """One traced run's per-layer readings with each ``*_s`` time
    multiplied by the run's reference factor, as run.py scales its
    end-to-end timings."""
    return {
        name: value * factor if name.endswith("_s") and value is not None else value
        for name, value in values.items()
    }


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def medians(runs: list) -> dict:
    """Each metric's median over the runs that report a value for it."""
    out = {}
    for name in dict.fromkeys(name for values in runs for name in values):
        present = [values[name] for values in runs if values.get(name) is not None]
        out[name] = statistics.median(present) if present else None
    return out


def summarize_traced(pairs, per_layer) -> dict:
    """``pairs``: {side: traced run.py result with its "scale"} per pair;
    ``per_layer``: the per-layer entries of BENCHMARK.json.  Each metric
    is summarised, scaled, over the pairs where both sides report it."""
    raw = {side: [_values(pair[side]) for pair in pairs] for side in SIDES}
    runs = {
        side: [scaled(values, pair[side]["scale"]) for values, pair in zip(raw[side], pairs)]
        for side in SIDES
    }
    out = {
        "pairs": len(pairs),
        "label": "note" if len(pairs) < 10 else "reading",
        "scale": {side: [pair[side]["scale"] for pair in pairs] for side in SIDES},
        "metrics": {},
        "unscaled_medians": {side: medians(raw[side]) for side in SIDES},
    }
    for spec in per_layer:
        name = spec["name"]
        both = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])
                if p.get(name) is not None and c.get(name) is not None]
        if not both:
            continue
        entry = summarize([p for p, _ in both], [c for _, c in both], spec["better"], 0.0)
        del entry["bound"], entry["within_bound"]  # per-layer metrics have no bound
        out["metrics"][name] = {"unit": spec["unit"], **entry}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout directory or git revision")
    parser.add_argument("change", help="checkout directory or git revision")
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:SEEDS")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--traced", metavar="WORKLOAD:SEEDS")
    parser.add_argument("--out", required=True)
    argv = sys.argv[1:] if argv is None else argv
    args, runs, claimed, traced = parse_args(parser, argv)
    specs = {"parent": args.parent, "change": args.change}

    with stopping_on_signals(), tempfile.TemporaryDirectory() as work:
        roots, commits = {}, {}
        for side in SIDES:
            roots[side], commits[side] = checkout(specs[side], work, side)
        with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            benchmark = json.load(f)
        seconds = benchmark["run_seconds"]
        names = {w["name"] for w in benchmark["workloads"]}
        if any(workload not in names for workload, _ in runs):
            parser.error(f"the workloads of BENCHMARK.json are {', '.join(sorted(names))}")
        if claimed and claimed[1] not in [m["name"] for m in benchmark["end_to_end"]]:
            parser.error(f"--claim {args.claim}: not an end-to-end metric of BENCHMARK.json")
        report = {**report_head(argv, specs, commits, seconds), "workloads": {}}

        def write():
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
                f.write("\n")

        for workload, seeds in runs:
            pairs = []
            for k, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                results = {side: run(roots[side], workload, seed, seconds, 0) for side in order}
                pairs.append((seed, order[0], results))
                report["workloads"][workload] = summarize_workload(pairs, benchmark["end_to_end"])
                print(f"{workload} seed {seed}: pair {k + 1} done", file=sys.stderr)
                write()
        if claimed:
            workload, metric = claimed
            report["claim"] = claim(workload, metric, report["workloads"][workload]["metrics"][metric])
        if traced:
            workload, seeds = traced
            pairs = []
            for k, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pairs.append({side: run(roots[side], workload, seed, seconds, 1)
                              for side in order})
                print(f"{workload} seed {seed}: traced pair {k + 1} done", file=sys.stderr)
            report["traced"] = {
                "note": f"one traced {workload} run per side per seed, the side that runs first "
                "alternating, parent first; per-layer values are per operation, and each *_s "
                "reading is multiplied by its run's reference factor ('scale'); a summary over "
                "fewer than 10 pairs is labelled a note, not a reading",
                "seeds": seeds,
                **summarize_traced(pairs, benchmark["per_layer"]),
            }
        write()
    print(table(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
