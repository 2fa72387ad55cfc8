"""Spans around lgroup's public functions, recorded from outside the package.

``install`` binds a timing wrapper in place of each listed function in every
``lgroup`` module namespace that holds it (modules import these names
directly, so rebinding only the defining module would miss most calls).
Spans stay in memory as ``[name, start, end, parent, call_id, info]`` and are
written out or drained once a call ends.  ``LayerStats`` folds drained spans
into per-layer totals and counters.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (module, function); the span is named "<module>.<function>"
FUNCTIONS = [
    ("serialize", "loads_instance"),
    ("serialize", "dumps_canonical"),
    ("serialize", "certificate_to_json"),
    ("core", "validate_unital_group"),
    ("ideals", "enumerate_ideals"),
    ("ideals", "quotient"),
    ("spectrum", "compute_spectrum"),
    ("spectrum", "spectrum_json"),
    ("spectrum", "specialization_dot"),
    ("semisimple", "radical"),
    ("semisimple", "is_strongly_semisimple"),
    ("yosida", "yosida_table"),
    ("yosida", "holder_eval"),
    ("yosida", "principal_zero_set"),
    ("crt", "keimel_patch"),
    ("crt", "strong_patch"),
    ("crt", "zero_set_patch"),
]
GAMMA = "mv.GammaAlgebra"
GAMMA_METHODS = ("clamp", "oplus", "neg", "odot", "mv_join", "mv_meet", "leq")
SPAN_NAMES = [f"{m}.{f}" for m, f in FUNCTIONS] + [GAMMA]
CACHED = ("ideals.enumerate_ideals", "spectrum.compute_spectrum")
PATCHES = ("crt.keimel_patch", "crt.strong_patch", "crt.zero_set_patch")
CERT_KINDS = {
    "Incompatible": "incompatible",
    "MaxHypothesisViolated": "max-hypothesis-violated",
    "NotStronglySemisimple": "not-strongly-semisimple",
    "IncompatibleOnZeroSets": "incompatible-on-zero-sets",
}


def _size(result):
    return len(result)


def _outcome(result):
    if result.solution is not None:
        return "solved"
    name = type(result.certificate).__name__
    return CERT_KINDS.get(name, name)


INFO = {
    "ideals.enumerate_ideals": _size,
    "spectrum.compute_spectrum": _size,
    **{name: _outcome for name in PATCHES},
}


class Tracer:
    """Collects spans from the wrappers that ``install`` binds."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = 0
        self.originals = {}
        # (namespace, attribute, library function, wrapper)
        self.bindings = []

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self.stack, INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, self.call_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(result)
            return result

        return traced

    def drain(self):
        """Hand back the finished spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def cache_counts(self):
        """{name: (hits, misses)} for the functions that still expose
        ``cache_info``; the others are simply absent."""
        out = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                c = info()
                out[name] = (c.hits, c.misses)
        return out


def install(tracer):
    """Wrap every listed function that the loaded lgroup still defines."""
    modules = [
        m for n, m in list(sys.modules.items()) if m is not None and (n == "lgroup" or n.startswith("lgroup."))
    ]
    for mod, attr in FUNCTIONS:
        fn = getattr(importlib.import_module(f"lgroup.{mod}"), attr, None)
        if fn is None:
            continue
        name = f"{mod}.{attr}"
        tracer.originals[name] = fn
        wrapped = tracer.wrap(name, fn)
        tracer.bindings += [(m, attr, fn, wrapped) for m in modules if vars(m).get(attr) is fn]
    cls = getattr(importlib.import_module("lgroup.mv"), "GammaAlgebra", None)
    for meth in GAMMA_METHODS if cls is not None else ():
        fn = vars(cls).get(meth)
        if callable(fn):
            tracer.bindings.append((cls, meth, fn, tracer.wrap(GAMMA, fn)))
    bind(tracer, True)


def bind(tracer, traced):
    """Bind the wrappers (``traced``) or the library's own functions."""
    for owner, attr, fn, wrapped in tracer.bindings:
        setattr(owner, attr, wrapped if traced else fn)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_times(spans):
    """{name: [calls, busy, self]} for one list of spans.

    Busy time counts a span only when no enclosing span has the same name,
    so recursion is not counted twice; self time is a span's duration minus
    the part of it that its child spans cover.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = {}
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        duration = end - start
        row[2] += duration - _covered([(spans[c][1], spans[c][2]) for c in children[i]])
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row[1] += duration
    return out


def _has_ancestor(spans, i, names):
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


class LayerStats:
    """Per-layer totals and counters over many calls or operations."""

    def __init__(self):
        self.ops = 0
        self.times = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.ideals_enumerated = 0
        self.primes_found = 0
        self.ideals_examined = 0
        self.quotients_in_checks = 0
        self.checks = 0
        self.outcomes = {}
        self.cache = {}
        self.startup = []
        # paired times of the same work, traced and untraced
        self.traced = []
        self.untraced = []

    def add_op(self, spans):
        """Fold in the spans of one call or operation; returns their
        layer times."""
        self.ops += 1
        times = layer_times(spans)
        for name, row in times.items():
            total = self.times.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                total[k] += row[k]
        children = {}
        for i, s in enumerate(spans):
            children.setdefault(s[3], []).append(i)
        for i, (name, _start, _end, _parent, _call, info) in enumerate(spans):
            if name == "ideals.enumerate_ideals":
                self.ideals_enumerated += info or 0
            elif name == "spectrum.compute_spectrum":
                # useful work (primes) over attempted work (ideals filtered);
                # a call that filters nothing, a cache hit or a closed form,
                # attempted only what it found
                examined = sum(
                    spans[c][5] or 0 for c in children.get(i, ()) if spans[c][0] == "ideals.enumerate_ideals"
                )
                self.primes_found += info or 0
                self.ideals_examined += examined or info or 0
            elif name == "semisimple.is_strongly_semisimple":
                self.checks += 1
            elif name == "ideals.quotient" and _has_ancestor(spans, i, ("semisimple.is_strongly_semisimple",)):
                self.quotients_in_checks += 1
            if name in PATCHES and not _has_ancestor(spans, i, PATCHES):
                self.outcomes[info] = self.outcomes.get(info, 0) + 1
        return times

    def add_cache(self, before, after):
        for name, (hits, misses) in after.items():
            if name in before:
                h, m = self.cache.get(name, (0, 0))
                self.cache[name] = (h + hits - before[name][0], m + misses - before[name][1])

    def metrics(self):
        """Per-operation means of every layer, then the counters."""
        ops = max(self.ops, 1)
        out = {}
        for name in SPAN_NAMES:
            calls, busy, own = self.times[name]
            out[f"{name}.calls"] = (calls / ops, "count/op")
            out[f"{name}.busy_s"] = (busy / ops, "s/op")
            out[f"{name}.self_s"] = (own / ops, "s/op")
        out["ideals.ideals_enumerated"] = (self.ideals_enumerated / ops, "count/op")
        out["spectrum.primes_per_ideal"] = (self.primes_found / max(self.ideals_examined, 1), "ratio")
        for name in CACHED:
            if name in self.cache:
                hits, misses = self.cache[name]
                out[f"{name}.hit_ratio"] = (hits / max(hits + misses, 1), "ratio")
        out["semisimple.quotients_per_check"] = (self.quotients_in_checks / max(self.checks, 1), "count")
        patches = sum(self.outcomes.values())
        out["crt.solved_ratio"] = (self.outcomes.get("solved", 0) / max(patches, 1), "ratio")
        for kind in CERT_KINDS.values():
            out[f"crt.cert.{kind}"] = (self.outcomes.get(kind, 0) / ops, "count/op")
        out["cli.startup_s"] = (_median(self.startup), "s")
        ratios = [t / u for t, u in zip(self.traced, self.untraced) if u > 0]
        out["trace.overhead_ratio"] = (_median(ratios), "ratio")
        return out


def _median(values):
    return statistics.median(values) if values else 0.0
