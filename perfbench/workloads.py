"""The three workloads, each a closed loop with one client.

* ``wide`` and ``deep`` make cold CLI calls: every call is a fresh
  ``python -m lgroup`` process, as users run it, so nothing is cached
  across calls.
* ``batch`` calls the public API from this process over a seeded stream,
  so the library's caches stay warm from one operation to the next.

Every output is checked against ``oracle``; a wrong exit code, a traceback,
an oracle mismatch or a call over ``CAP_S`` counts as a failed operation.
With tracing on, the CLI workloads run each call twice, untraced and then
through ``calltrace.py``, and the batch workload traces every other pair of
rounds; the ratio of paired traced and untraced times is the tracing
overhead.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import gen
import oracle as O
import reference
import spans as S

CAP_S = 60.0
SETUP_REPEATS = 7
# The reference workload's median time on a 2-vCPU 2.0 GHz Xeon VM: as a
# fresh process (CLI workloads) and as ``reference.work(5)`` in this
# process (batch).  Timings are scaled to that speed; see ``Speed``.
REF_PROCESS_S = 0.145
REF_WORK_S = 0.008
REF_EVERY = 4
# Every run of a workload does the same work: ``--seconds`` sets how many
# cycles (CLI) or rounds (batch) a run measures, at the rate they run on a
# 2-vCPU 2.0 GHz Xeon VM.  A run that stopped on the clock would end after a
# different mix of cheap and costly calls, and so report a different tail,
# on a faster machine or program.  The batch stream's caches also grow and
# warm with every round, so its memory and operation times depend on how
# many rounds it has run.
CYCLE_S = {"wide": 15.0, "deep": 15.0}
OPS_PER_S = 30.0
LABELS = ("analyze", "spectrum", "crt_keimel", "crt_strong", "crt_zeroset")

# (metric label, CLI arguments, task file used).  A keimel crt call is
# mostly start-up and imports, whose time moves more from call to call and
# less with the reference than the costly calls'.  So, like the json and dot
# spectrum calls, it runs twice per instance, apart in time, which halves
# the variance of its metric.
COMMANDS = [
    ("analyze", ("analyze",), "keimel"),
    ("spectrum", ("spectrum", "--format", "json"), "keimel"),
    ("crt_keimel", ("crt",), "keimel"),
    ("crt_strong", ("crt",), "strong"),
    ("spectrum", ("spectrum", "--format", "dot"), "keimel"),
    ("crt_zeroset", ("crt",), "zeroset"),
    ("crt_keimel", ("crt",), "keimel"),
]


class Speed:
    """How fast the machine ran over one run, from the reference workload
    (``reference.py``) timed between the program's calls.

    A shared machine has slow and fast spells, from a second to many
    minutes long, that move every timing of a run together.  ``scale(at)``
    is the reference's nominal time over the median of the ``window``
    reference samples taken nearest to ``at``.  A timing multiplied by it
    is the time it would have taken at the speed where the reference takes
    its nominal time, so runs made in different spells agree, while a
    change to lgroup, which the reference never touches, still moves it.
    """

    def __init__(self, nominal, window):
        self.nominal = nominal
        self.window = window
        self.samples = []

    def add(self, at, seconds):
        self.samples.append((at, seconds))

    def scale(self, at):
        near = sorted(self.samples, key=lambda sample: abs(sample[0] - at))[: self.window]
        return self.nominal / statistics.median(seconds for _, seconds in near)

    def note(self):
        ref = statistics.median(seconds for _, seconds in self.samples)
        return (
            f"reference: median {ref:.4g} s over {len(self.samples)} samples, nominal "
            f"{self.nominal:.4g} s; timings scaled by {self.nominal / ref:.3f} on the whole"
        )


class Run:
    """What one run measured.

    ``records`` holds one dict per timed operation: the time of each step
    it made, by metric label, its total under "op" and its start under
    "at".  ``setups`` holds (start, seconds) of each set-up.  ``speed``
    scales the operations and ``setup_speed`` the set-ups.  Operations
    come in whole rounds of ``round_size``: a cycle of the CLI classes, or
    a round of the batch pool.
    """

    def __init__(self, speed, setup_speed=None):
        self.records = []
        self.unscaled = []
        self.setups = []
        self.speed = speed
        self.setup_speed = setup_speed or speed
        self.round_size = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setup_s = self.unscaled_setup_s = 0.0
        self.peak_rss_mb = 0.0
        self.layers = None
        self.shares = {}

    def scale(self):
        """Scale every timing to the reference speed (see ``Speed``) and
        take the median set-up; keep the measured times in ``unscaled``."""
        self.unscaled = [{k: v for k, v in r.items() if k != "at"} for r in self.records]
        for record in self.records:
            factor = self.speed.scale(record.pop("at"))
            for label in record:
                record[label] *= factor
        scale = self.setup_speed.scale
        self.setup_s = statistics.median(seconds * scale(at) for at, seconds in self.setups)
        self.unscaled_setup_s = statistics.median(seconds for _, seconds in self.setups)

    def check(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(errors))

    def op_times(self, records=None):
        return [r["op"] for r in (self.records if records is None else records)]

    def p50(self, label, records=None):
        """(median, rounds) of one step: the median, over whole rounds, of
        the step's mean time per operation in the round.

        A round has the same mix of inputs every time, so its mean does not
        move with the mix.  The median of single calls does: on the CLI
        workloads it falls in a gap between shape classes, or between
        cheap calls, which are mostly start-up, and costly ones, and on
        batch it moves with which operations hit a cache."""
        records = self.records if records is None else records
        means = []
        for at in range(0, len(records), self.round_size):
            values = [r[label] for r in records[at : at + self.round_size] if label in r]
            if values:
                means.append(statistics.fmean(values))
        return (statistics.median(means) if means else None), len(means)


# -- cold CLI calls ----------------------------------------------------------


def _check_call(inst, argv, mode, proc):
    if proc is None:
        return [f"{argv[0]} over the {CAP_S:.0f} s cap"]
    if "Traceback" in proc.stderr:
        return [f"{argv[0]} traceback: {proc.stderr.strip().splitlines()[-1]}"]
    s = inst["structure"]
    try:
        if argv[0] == "crt":
            task, incompatible = inst["tasks"][mode]
            return O.check_crt(s, task, incompatible, proc.returncode, proc.stdout)
        if proc.returncode != 0:
            return [f"{argv[0]} exit {proc.returncode}"]
        if argv[0] == "analyze":
            return O.check_analyze(s, inst["unit"], inst["elements"], proc.stdout)
        if argv[-1] == "json":
            return O.check_spectrum_json(s, proc.stdout)
        return O.check_spectrum_dot(s, proc.stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{argv[0]} output unreadable: {exc!r}"]


def _call(argv, env, cwd):
    """(wall seconds, completed process or None when over the cap)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=CAP_S)
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter() - start, proc


def _write(work, instances, first):
    """Write each instance's task files; number them from ``first``."""
    for k, inst in enumerate(instances, first):
        inst["files"] = {}
        for mode, text in inst["texts"].items():
            path = os.path.join(work, f"i{k:04d}-{mode}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            inst["files"][mode] = path
    return instances


def _reference_process(root, env):
    """(start, seconds) of the reference workload as a fresh process."""
    at = time.perf_counter()
    elapsed, proc = _call([sys.executable, os.path.join(root, "perfbench", "reference.py")], env, root)
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"reference workload failed: {proc and proc.stderr}")
    return at, elapsed


def run_cli(root, workload, seed, seconds, trace):
    # about one reference sample per instance: the window spans about
    # seven instances, some ten seconds
    run = Run(Speed(REF_PROCESS_S, 7))
    work = os.path.join(root, ".perfbench_work", str(os.getpid()))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    python = [sys.executable, "-m", "lgroup"]
    tracer_script = os.path.join(root, "perfbench", "calltrace.py")
    size = len(gen.WIDE_CLASSES if workload == "wide" else gen.DEEP_CLASSES)

    def measure_speed():
        run.speed.add(*_reference_process(root, env))

    try:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            instances = gen.cli_instances(workload, seed)
            cycle = _write(work, list(itertools.islice(instances, size)), 0)
            # warm up on the instance with the fewest primes, the cheapest
            warm = min(cycle, key=lambda inst: O.prime_count(inst["structure"]))
            argv = ("spectrum", "--format", "json")
            _, proc = _call(python + [*argv, warm["files"]["keimel"]], env, root)
            run.setups.append((start, time.perf_counter() - start))
            run.check(_check_call(warm, argv, "keimel", proc))
            measure_speed()
        if trace:
            run.layers = S.LayerStats()
            wall = {}
        # Whole cycles, one instance of each shape class, so every run has
        # the same mix of classes and commands.  Each instance gets every
        # command in turn, so the samples of each command spread over the
        # whole run rather than one stretch of it: the machine's speed
        # drifts over seconds.  A traced run makes every call twice, so it
        # measures half the cycles.
        cycles = max(1, round(seconds / CYCLE_S[workload] / (2 if trace else 1)))
        run.round_size = size * len(COMMANDS)
        for c in range(cycles):
            if c:
                cycle = _write(work, list(itertools.islice(instances, size)), c * size)
            for inst in cycle:
                measure_speed()
                for label, argv, mode in COMMANDS:
                    args = [*argv, inst["files"][mode]]
                    at = time.perf_counter()
                    elapsed, proc = _call(python + args, env, root)
                    run.check(_check_call(inst, argv, mode, proc))
                    run.records.append({label: elapsed, "op": elapsed, "at": at})
                    if trace:
                        out = os.path.join(work, "spans.json")
                        call_id = str(len(run.records))
                        traced, tproc = _call([sys.executable, tracer_script, out, call_id, *args], env, root)
                        run.check(_check_call(inst, argv, mode, tproc))
                        times = _add_trace(run.layers, out, elapsed, traced)
                        _add_shares(wall, label, traced, times)
        measure_speed()
        run.scale()
        if trace:
            run.shares = wall
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    return run


def _add_trace(layers, path, untraced, traced):
    """Fold one traced call into ``layers``; returns its layer times."""
    layers.untraced.append(untraced)
    layers.traced.append(traced)
    try:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        os.remove(path)
    except (OSError, ValueError):
        return {}
    layers.startup.append(record["startup_s"])
    layers.add_cache(record["cache_before"], record["cache_after"])
    return layers.add_op(record["spans"])


def _add_shares(wall, label, seconds, times):
    row = wall.setdefault(label, [0.0, {}])
    row[0] += seconds
    for name, (_calls, busy, _own) in times.items():
        row[1][name] = row[1].get(name, 0.0) + busy


# -- warm in-process stream ------------------------------------------------------


def _with_objects(op, structures):
    """``op`` with the library objects its calls take, built from its JSON."""
    from lgroup.serialize import ideal_from_json

    st = structures[op["pool"]]
    op["obj"] = st
    op["system"] = [(ideal_from_json(st, I), t) for I, t in zip(op["keimel"]["ideals"], op["keimel"]["targets"])]
    return op


def _run_op(L, op):
    """The library calls of one operation and the time of each step.

    The spectrum step is what ``lgroup spectrum`` computes: the spectrum and
    its JSON export."""
    clock = time.perf_counter
    t0 = clock()
    G = L.validate_unital_group(op["obj"], op["unit"])
    t1 = clock()
    space = L.compute_spectrum(G)
    t2 = clock()
    rad = L.radical(G)
    strong = L.is_strongly_semisimple(G)
    tables = [L.yosida_table(G, e, space) for e in op["elements"]]
    t3 = clock()
    exported = L.spectrum_json(space)
    t4 = clock()
    kres = L.keimel_patch(G, op["system"])
    t5 = clock()
    task = op["task"]
    if task["mode"] == "strong":
        sres = L.strong_patch(G, op["system"])
    else:
        sres = L.zero_set_patch(G, task["generators"], task["targets"])
    t6 = clock()
    alg = L.GammaAlgebra(G)
    gamma = [getattr(alg, name)(x) if name == "neg" else getattr(alg, name)(x, y) for name, x, y in op["gamma"]]
    t7 = clock()
    times = {
        "analyze": t3 - t0,
        "spectrum": (t2 - t1) + (t4 - t3),
        "crt_keimel": t5 - t4,
        f"crt_{task['mode']}": t6 - t5,
    }
    return (space, exported, rad, strong, tables, kres, sres, gamma), times, t7 - t0


def _check_patch(s, task, incompatible, res):
    cert = res.certificate
    kind = None if res.solution is not None else S.CERT_KINDS.get(type(cert).__name__)
    hypothesis = getattr(cert, "keimel_hypothesis_holds", None)
    return O.check_patch(s, task, incompatible, kind, res.solution, res.unique, hypothesis)


def _check_op(op, outputs):
    from lgroup.serialize import ideal_to_json

    space, exported, rad, strong, tables, kres, sres, gamma = outputs
    s, unit = op["structure"], op["unit"]
    want = O.expected(s)
    errors = O.check_spectrum_data(s, exported)
    if (ideal_to_json(rad) == "zero") != want["semisimple"] or strong[0] != want["semisimple"]:
        errors.append("semisimplicity")
    for e, table in zip(op["elements"], tables):
        if sorted(table.values()) != O.values(s, unit, e):
            errors.append("value table")
    errors += _check_patch(s, op["keimel"], op["incompatible"], kres)
    errors += _check_patch(s, op["task"], op["incompatible"], sres)
    for (name, x, y), got in zip(op["gamma"], gamma):
        if got != O.gamma(s, unit, name, x, y):
            errors.append(f"interval {name}")
    return errors


def _import_s(env):
    """The time ``import lgroup`` takes in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lgroup; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return float(proc.stdout)


def run_batch(root, seed, seconds, trace):
    # One in-process reference sample per REF_EVERY operations: the window
    # spans about sixty operations, some two seconds.  A set-up is mostly
    # the import in a fresh interpreter, so the fresh-process reference run
    # after each one scales it.
    run = Run(Speed(REF_WORK_S, 15), Speed(REF_PROCESS_S, 7))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    import lgroup as L
    from lgroup.serialize import structure_from_json

    def measure_speed():
        at = time.perf_counter()
        reference.work(5)
        run.speed.add(at, time.perf_counter() - at)

    # A set-up is what a script pays before its first operation: importing
    # lgroup, building the pool and preparing the first round of the stream.
    for _ in range(SETUP_REPEATS):
        at = time.perf_counter()
        import_s = _import_s(env)
        start = time.perf_counter()
        pool = gen.batch_pool()
        structures = [structure_from_json(s) for s in pool]
        ops = gen.batch_ops(seed, pool)
        first = [_with_objects(op, structures) for op in itertools.islice(ops, len(pool))]
        run.setups.append((at, import_s + time.perf_counter() - start))
        run.setup_speed.add(*_reference_process(root, env))
    if trace:
        start = time.perf_counter()
        import lgroup.cli  # noqa: F401  (the start-up a CLI call would pay)

        run.layers = S.LayerStats()
        run.layers.startup.append(time.perf_counter() - start)
        tracer = S.Tracer()
        S.install(tracer)
        before = tracer.cache_counts()
    run.round_size = len(pool)
    # whole rounds of the pool, like whole cycles of the CLI classes; a
    # traced run needs an untraced and a traced round
    rounds = max(2 if trace else 1, round(seconds * OPS_PER_S / len(pool)))
    rest = (_with_objects(op, structures) for op in itertools.islice(ops, (rounds - 1) * len(pool)))
    round_s = 0.0
    for k, op in enumerate(itertools.chain(first, rest)):
        # Rounds run untraced, traced, traced, untraced, and so on, each
        # traced round paired with the untraced one beside it.  Every round
        # has the same mix of structures, and the order cancels the warming
        # of the caches from one round to the next.  Untraced rounds run the
        # library's own functions, so they pay nothing for tracing.
        traced = trace and k // len(pool) % 4 in (1, 2)
        if trace and k % len(pool) == 0:
            S.bind(tracer, traced)
        if k % REF_EVERY == 0:
            measure_speed()
        at = time.perf_counter()
        try:
            outputs, times, elapsed = _run_op(L, op)
            errors = _check_op(op, outputs)
        except Exception:  # one broken operation must not end the run
            errors = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
            times, elapsed = {}, 0.0
        run.check(errors)
        if trace:
            round_s += elapsed
            if traced:
                run.layers.add_op(tracer.drain())
            if k % len(pool) == len(pool) - 1:
                (run.layers.traced if traced else run.layers.untraced).append(round_s)
                round_s = 0.0
        if times:
            run.records.append(dict(times, op=elapsed, at=at))
    measure_speed()
    run.scale()
    if trace:
        run.layers.add_cache(before, tracer.cache_counts())
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run
