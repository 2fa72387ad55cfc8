"""The per-layer counters that ``perfbench/spans.py`` reads from the library.

The tracer takes each layer's ``hit_ratio`` from ``cache_info()`` on
``compute_spectrum`` and ``enumerate_ideals``, and drops the metric when the
function has none; this checks, with the tracer's own code, that both keep
one.
"""

import importlib.util
import pathlib

import lgroup.ideals
import lgroup.spectrum
from lgroup import UnitalGroup, Z, lex, prod

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"
spec = importlib.util.spec_from_file_location("spans", SPANS)
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)


def test_the_tracer_reads_both_counters():
    G = UnitalGroup(prod(lex(Z), Z, Z), ((1, 1), 1, 1))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        before = tracer.cache_counts()
        # one traced call of each, through the names the modules now bind
        lgroup.spectrum.compute_spectrum(G)
        lgroup.ideals.enumerate_ideals(G)
        after = tracer.cache_counts()
        assert set(before) == set(after) == set(spans.CACHED)
        for name in spans.CACHED:
            assert sum(after[name]) == sum(before[name]) + 1
        assert after["ideals.enumerate_ideals"][0] == 0
        assert {span[0] for span in tracer.drain()} == set(spans.CACHED)
    finally:
        spans.bind(tracer, False)
    assert lgroup.spectrum.compute_spectrum is tracer.originals["spectrum.compute_spectrum"]
    assert lgroup.ideals.enumerate_ideals is tracer.originals["ideals.enumerate_ideals"]
