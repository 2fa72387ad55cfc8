"""Tests of the benchmark itself: generation, oracle, span arithmetic, runs.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import gen
import oracle as O
import pytest
import spans as S

import lgroup as L
from lgroup.serialize import ideal_from_json, structure_from_json

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_same_seed_same_bytes():
    for workload in ("wide", "deep"):
        def texts(seed):
            return [i["texts"] for i in itertools.islice(gen.cli_instances(workload, seed), 8)]

        assert texts(7) == texts(7)
        assert texts(7) != texts(8)

    def stream(seed):
        return json.dumps(list(itertools.islice(gen.batch_ops(seed, gen.batch_pool()), 40)))

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)


def _sample_groups(count):
    rng = random.Random(2024)
    for _ in range(count):
        s = gen.rand_shape(rng, rng.randint(1, 6), rng.randint(1, 3))
        yield rng, s, gen.rand_unit(rng, s)


def test_oracle_agrees_with_library_on_spectra():
    for rng, s, unit in _sample_groups(120):
        G = L.validate_unital_group(structure_from_json(s), unit)
        want = O.expected(s)
        space = L.compute_spectrum(G)
        assert len(L.enumerate_ideals(G)) == want["ideals"]
        assert (len(space), sum(space.maximal)) == (want["primes"], want["maximal"])
        assert L.is_semisimple(G) == want["semisimple"] == L.is_strongly_semisimple(G)[0]
        assert not O.check_spectrum_json(s, L.dumps_canonical(L.spectrum_json(space)))
        assert not O.check_spectrum_dot(s, L.specialization_dot(space))
        e = gen.rand_elem(rng, s)
        assert sorted(L.yosida_table(G, e, space).values()) == O.values(s, unit, e)
        ideal = gen.rand_ideal(rng, s)
        assert L.contains(G.structure, ideal_from_json(G.structure, ideal), e) == O.contains(s, ideal, e)
        assert L.principal_ideal(G.structure, e) == ideal_from_json(G.structure, O.principal(s, e))
        x, y = (O.gamma(s, unit, "clamp", gen.rand_elem(rng, s), None) for _ in range(2))
        alg = L.GammaAlgebra(G)
        for name in gen.GAMMA_OPS:
            got = alg.neg(x) if name == "neg" else getattr(alg, name)(x, y)
            assert got == O.gamma(s, unit, name, x, y)


@pytest.mark.parametrize("mode", gen.MODES)
def test_oracle_predicts_every_solver(mode):
    for rng, s, unit in _sample_groups(80):
        G = L.validate_unital_group(structure_from_json(s), unit)
        incompatible = rng.random() < 0.3
        task = gen.make_task(rng, s, mode, incompatible, rng.randint(2, 5))
        if mode == "zeroset":
            result = L.zero_set_patch(G, task["generators"], task["targets"])
        else:
            system = [(ideal_from_json(G.structure, I), t) for I, t in zip(task["ideals"], task["targets"])]
            result = (L.keimel_patch if mode == "keimel" else L.strong_patch)(G, system)
        cert = result.certificate
        kind = None if result.solved else S.CERT_KINDS[type(cert).__name__]
        hypothesis = getattr(cert, "keimel_hypothesis_holds", None)
        assert not O.check_patch(s, task, incompatible, kind, result.solution, result.unique, hypothesis)
        assert O.check_patch(s, task, not incompatible, kind, result.solution, result.unique, hypothesis)


def test_self_time_arithmetic():
    spans = [
        ["a", 0.0, 10.0, -1, 0, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 6.0, 0, 0, None],
        ["a", 7.0, 9.0, 0, 0, None],
    ]
    times = S.layer_times(spans)
    # the nested "a" adds a call and self time but no busy time
    assert times["a"] == [2, 10.0, (10.0 - 6.0) + 2.0]
    assert times["b"] == [2, 4.0, (3.0 - 1.0) + 1.0]
    assert times["c"] == [1, 1.0, 1.0]
    assert S._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_speed_scales_by_the_nearest_reference_samples():
    import workloads as W

    speed = W.Speed(nominal=1.0, window=3)
    for at, seconds in [(0, 2.0), (1, 2.0), (2, 2.0), (10, 0.5), (11, 0.5), (12, 4.0)]:
        speed.add(at, seconds)
    # a call made in the slow spell at the start counts half its time, one
    # made in the fast spell at the end twice its time
    assert speed.scale(1.0) == 0.5
    assert speed.scale(11.5) == 2.0
    run = W.Run(speed)
    run.records = [{"analyze": 4.0, "op": 4.0, "at": 0.5}, {"spectrum": 1.0, "op": 1.0, "at": 11.0}]
    run.setups = [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]
    run.scale()
    assert run.records == [{"analyze": 2.0, "op": 2.0}, {"spectrum": 2.0, "op": 2.0}]
    assert run.unscaled == [{"analyze": 4.0, "op": 4.0}, {"spectrum": 1.0, "op": 1.0}]
    assert (run.setup_s, run.unscaled_setup_s) == (1.0, 2.0)


def test_counters_without_caches_are_absent():
    tracer = S.Tracer()
    tracer.originals = {name: (lambda: None) for name in S.CACHED}
    assert tracer.cache_counts() == {}
    stats = S.LayerStats()
    stats.add_cache({}, tracer.cache_counts())
    metrics = stats.metrics()
    assert not any(name.endswith("hit_ratio") for name in metrics)
    assert "trace.overhead_ratio" in metrics


def test_untraced_calls_run_the_library_functions():
    tracer = S.Tracer()
    S.install(tracer)
    try:
        wrapped = L.compute_spectrum
        assert wrapped is not tracer.originals["spectrum.compute_spectrum"]
        S.bind(tracer, False)
        assert L.compute_spectrum is tracer.originals["spectrum.compute_spectrum"]
        assert L.GammaAlgebra.oplus.__name__ == "oplus" and not hasattr(L.GammaAlgebra.oplus, "__wrapped__")
        G = L.validate_unital_group(structure_from_json("Z"), 1)
        L.compute_spectrum(G)
        assert tracer.drain() == []
        S.bind(tracer, True)
        assert L.compute_spectrum is wrapped
    finally:
        S.bind(tracer, False)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=300
    )


@pytest.mark.parametrize(
    "workload, trace", [("wide", 0), ("deep", 0), ("batch", 0), ("wide", 1), ("batch", 1)]
)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _contract()["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in wanted} <= set(result["metrics"])
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
