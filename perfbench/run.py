"""lgroup benchmark entry point.

    python3 perfbench/run.py --workload {wide,deep,batch} --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; lgroup is imported from its ``src/``.
Prints readable lines first and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import workloads
from workloads import LABELS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide", "deep", "batch")


def tail(values):
    """(value, percentile, samples): the highest percentile that still has
    at least 10 samples beyond it, or the median when that would be lower."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(run, records, setup_s):
    out, notes = {}, {}
    for label in (*LABELS, "op"):
        value, n = run.p50(label, records)
        out[f"{label}_p50_s"] = (value, "s")
        notes[f"{label}_p50_s"] = f"{n} rounds of {run.round_size} operations"
    times = run.op_times(records)
    value, pct, n = tail(times)
    out["op_tail_s"] = (value, "s")
    notes["op_tail_s"] = f"p{pct:.1f} of {n} operations"
    out["ops_per_s"] = (len(times) / sum(times), "1/s")
    out["setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    return out, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lgroup", "__init__.py")):
        print(f"error: no lgroup sources at {os.path.join(ROOT, 'src', 'lgroup')}", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(ROOT, "src"))

    if args.workload == "batch":
        run = workloads.run_batch(ROOT, args.seed, args.seconds, args.trace)
    else:
        run = workloads.run_cli(ROOT, args.workload, args.seed, args.seconds, args.trace)

    missing = [label for label in LABELS if run.p50(label)[0] is None]
    if missing and not args.trace:
        print(f"error: nothing timed for {', '.join(missing)}: {run.errors}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, notes = run.layers.metrics(), {}
    else:
        metrics, notes = end_to_end(run, run.records, run.setup_s)
        unscaled, _ = end_to_end(run, run.unscaled, run.unscaled_setup_s)
        for name, (value, unit) in unscaled.items():
            if unit != "MB":
                notes[name] = "; ".join(filter(None, (notes.get(name), f"measured {value:.6g} {unit}")))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:12.6g} {unit}{note}")
    for label, (seconds, busy) in sorted(run.shares.items()):
        top = sorted(busy.items(), key=lambda kv: -kv[1])[:4]
        shares = ", ".join(f"{name} {b / seconds:.0%}" for name, b in top)
        print(f"  share of traced {label} time: {shares}")
    print(f"  {run.speed.note()}")
    if run.setup_speed is not run.speed:
        print(f"  set-up {run.setup_speed.note()}")
    print(f"  failed_ratio {run.failed / max(run.attempted, 1):.4f} ({run.failed} of {run.attempted})")
    for error in run.errors:
        print(f"  failure: {error}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
