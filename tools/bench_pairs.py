"""Run the benchmark in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT CHANGE batch:1301-1310 wide:1301-1305 \\
        --claim batch:op_p50_s --traced batch:1311 --out BENCH_N.json

PARENT and CHANGE are each a checkout directory or a git revision of this
repository (exported with ``git archive`` into a temporary directory).  Each
``WORKLOAD:SEEDS`` runs one pair per seed (``A-B`` is a range, ``A,B`` a
list): both sides run ``perfbench/run.py`` from their own checkout on the
same seed, for the ``run_seconds`` that ``BENCHMARK.json`` sets, one run at
a time, the side that runs first alternating from pair to pair.
``--traced WORKLOAD:SEED`` adds one ``--trace 1`` run per side.

The output holds, for every end-to-end metric that ``BENCHMARK.json`` lists,
each side's runs, medians and quartiles, the change over the parent, the
gap between the medians in parent interquartile ranges, in how many pairs
the change reads better, and whether the change's median is within the
metric's bound.  The claim is met when the change reads better in at least
nine pairs in ten and its median is better than the parent's by more than
the parent's interquartile range.  The file is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
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
    """``"5"``, ``"1-3"`` or ``"1,4,7"`` as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


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
    }


def summarize_workload(pairs, end_to_end) -> dict:
    """``pairs``: (seed, first side, {side: run.py result}) per pair;
    ``end_to_end``: the metric entries of BENCHMARK.json."""
    out = {
        "pairs": len(pairs),
        "seeds": [seed for seed, _, _ in pairs],
        "first": [first for _, first, _ in pairs],
        "failed": {side: [r[side]["failed"] for _, _, r in pairs] for side in SIDES},
        "attempted": {side: [r[side]["attempted"] for _, _, r in pairs] for side in SIDES},
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        runs = {side: [r[side]["metrics"][name]["value"] for _, _, r in pairs] for side in SIDES}
        entry = summarize(runs["parent"], runs["change"], spec["better"], spec["bound"])
        out["metrics"][name] = {"unit": spec["unit"], **entry}
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


def checkout(spec: str, work: str, side: str) -> str:
    """A checkout directory: ``spec`` itself, or revision ``spec`` exported."""
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    tar = subprocess.run(["git", "-C", ROOT, "archive", spec], capture_output=True, check=True)
    dest = os.path.join(work, side)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest)
    return dest


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout directory or git revision")
    parser.add_argument("change", help="checkout directory or git revision")
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:SEEDS")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    parser.add_argument("--traced", metavar="WORKLOAD:SEED")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as work:
        roots = {side: checkout(spec, work, side) for side, spec in zip(SIDES, (args.parent, args.change))}
        with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            benchmark = json.load(f)
        seconds = benchmark["run_seconds"]
        report = {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "method": METHOD,
            "machine": machine(),
            "workloads": {},
        }

        def write():
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
                f.write("\n")

        for spec in args.runs:
            workload, seeds = spec.split(":")
            pairs = []
            for k, seed in enumerate(parse_seeds(seeds)):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                results = {side: run(roots[side], workload, seed, seconds, 0) for side in order}
                pairs.append((seed, order[0], results))
                report["workloads"][workload] = summarize_workload(pairs, benchmark["end_to_end"])
                print(f"{workload} seed {seed}: pair {k + 1} done", file=sys.stderr)
                write()
        if args.claim:
            workload, metric = args.claim.split(":")
            report["claim"] = claim(workload, metric, report["workloads"][workload]["metrics"][metric])
        if args.traced:
            workload, seed = args.traced.split(":")
            report["traced"] = {
                "note": f"one traced {workload} run per side, seed {seed}, parent first; "
                "per-layer values are per operation",
                **{side: _values(run(roots[side], workload, int(seed), seconds, 1)) for side in SIDES},
            }
        write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
