"""Acceptance suite: one test per criterion, with independent oracles.

Each test prints a single PASS line once its criterion is fully verified
(visible with ``pytest -s`` or in the verbose test listing).
"""

import itertools
import json
import pathlib
import random


from conftest import GALLERY_GROUPS, invoke, random_element, random_group
from lgroup import (
    AtomIdeal,
    NotStronglySemisimple,
    ProdIdeal,
    Z,
    closure,
    compute_spectrum,
    contains,
    enumerate_ideals,
    gallery_instance,
    ideal_leq,
    ideal_of_locus,
    is_strongly_semisimple,
    is_zero_ideal,
    keimel_patch,
    leq,
    prod,
    quotient,
    radical,
    scale,
    strong_patch,
    validate_unital_group,
    vanishing_locus,
    zero_ideal,
    zero_set_patch,
)
from lgroup.laws import archimedean_falsify
from lgroup.mv import GammaAlgebra

DATA = pathlib.Path(__file__).parent / "data"

_RANDOM_INSTANCES = None


def _random_instances():
    """The shared instance set for criteria 2 and 3: gallery plus 120
    seeded random structures of depth <= 3 and product width <= 4."""
    global _RANDOM_INSTANCES
    if _RANDOM_INSTANCES is None:
        rng = random.Random(60660)
        _RANDOM_INSTANCES = list(GALLERY_GROUPS.values()) + [
            random_group(rng) for _ in range(120)
        ]
    return _RANDOM_INSTANCES


def _subsets(items):
    for mask in range(1 << len(items)):
        yield frozenset(p for i, p in enumerate(items) if mask >> i & 1)


def test_criterion_1_galois_connection_suite():
    for name, G in GALLERY_GROUPS.items():
        space = compute_spectrum(G)
        ideals = enumerate_ideals(G).ideals
        subsets = list(_subsets(list(space.primes)))
        for R in ideals:
            VR = vanishing_locus(space, R)
            for S in subsets:
                assert ideal_leq(R, ideal_of_locus(space, S)) == (S <= VR), (
                    name,
                    R,
                    S,
                )
        cl = {S: closure(space, S) for S in subsets}
        for S in subsets:
            assert S <= cl[S]
            assert cl[cl[S]] == cl[S]
            for T in subsets:
                if S <= T:
                    assert cl[S] <= cl[T]
                assert cl[S | T] == cl[S] | cl[T]
        assert cl[frozenset()] == frozenset()
    print("criterion 1: PASS (galois adjunction and closure laws, exhaustive)")


def test_criterion_2_semisimplicity_equivalence():
    for G in _random_instances():
        space = compute_spectrum(G)
        dense = closure(space, space.max_ideals()) == frozenset(space.primes)
        semisimple = is_zero_ideal(radical(G))
        assert semisimple == dense, G.structure
        witness = archimedean_falsify(G)
        if not semisimple:
            assert witness is not None, G.structure
            g, h = witness
            assert G.lt(G.zero(), g)
            for n in range(1, 12):
                assert leq(G.structure, scale(G.structure, n, g), h)
        else:
            assert witness is None, G.structure
    print("criterion 2: PASS (radical = 0 iff dense maximal spectrum, 124 instances)")


def test_criterion_3_strong_semisimplicity_spectral_form():
    for G in _random_instances():
        space = compute_spectrum(G)
        maxset = frozenset(space.max_ideals())
        spectral = all(
            vanishing_locus(space, P)
            == closure(space, vanishing_locus(space, P) & maxset)
            for P in enumerate_ideals(G).ideals
        )
        assert is_strongly_semisimple(G)[0] == spectral, G.structure
    print("criterion 3: PASS (co-compact closed sets regain their maximal points)")


def test_criterion_4_quotient_spectra_match_loci():
    for name in ("a2", "c3", "lex", "mix", "chang"):
        G = gallery_instance(name).group
        space = compute_spectrum(G)
        for I in enumerate_ideals(G).ideals:
            above = [p for p in space.primes if ideal_leq(I, p)]
            q = quotient(G, I)
            if q.trivial:
                assert above == []
                continue
            qspace = compute_spectrum(q.group)
            mapped = [q.project_ideal(p) for p in above]
            assert len(set(mapped)) == len(mapped)
            assert set(mapped) == set(qspace.primes)
            for p1, m1 in zip(above, mapped):
                for p2, m2 in zip(above, mapped):
                    assert ideal_leq(p1, p2) == ideal_leq(m1, m2)
                assert space.is_maximal(p1) == qspace.is_maximal(m1)
    print("criterion 4: PASS (quotient spectra isomorphic to vanishing loci)")


# ---- criterion 5 helpers: direct coordinate semantics on Z^n ----------------


def _coords(e, n):
    return (e,) if n == 1 else e


def _mask_ideal(n, mask):
    if n == 1:
        return AtomIdeal(mask[0])
    return ProdIdeal(tuple(AtomIdeal(m) for m in mask))


def _satisfies(n, g, mask, target):
    gc, tc = _coords(g, n), _coords(target, n)
    return all(mask[c] or gc[c] == tc[c] for c in range(n))


def _zn_group(n):
    if n == 1:
        return validate_unital_group(Z, 1)
    return validate_unital_group(prod(*([Z] * n)), tuple([1] * n))


def _random_point(rng, n):
    coords = tuple(rng.randint(-5, 5) for _ in range(n))
    return coords[0] if n == 1 else coords


def _box(n):
    if n == 1:
        return list(range(-5, 6))
    return list(itertools.product(range(-5, 6), repeat=n))


def test_criterion_5_keimel_soundness_and_brute_force_oracle():
    rng = random.Random(50505)
    solved = 0
    while solved < 200:
        n = rng.randint(1, 3)
        G = _zn_group(n)
        base = _random_point(rng, n)
        masks, system = [], []
        for _ in range(rng.randint(1, 4)):
            mask = tuple(rng.random() < 0.5 for _ in range(n))
            bc = list(_coords(base, n))
            for c in range(n):
                if mask[c]:
                    bc[c] = rng.randint(-5, 5)
            target = bc[0] if n == 1 else tuple(bc)
            masks.append(mask)
            system.append((_mask_ideal(n, mask), target))
        result = keimel_patch(G, system)
        assert result.solution is not None, (n, system)
        for mask, (_, target) in zip(masks, system):
            assert _satisfies(n, result.solution, mask, target)
        solved += 1

    compared = 0
    while compared < 50:
        n = rng.randint(1, 3)
        G = _zn_group(n)
        masks, system = [], []
        for _ in range(rng.randint(1, 3)):
            mask = tuple(rng.random() < 0.5 for _ in range(n))
            masks.append(mask)
            system.append((_mask_ideal(n, mask), _random_point(rng, n)))
        brute = [
            g
            for g in _box(n)
            if all(
                _satisfies(n, g, mask, target)
                for mask, (_, target) in zip(masks, system)
            )
        ]
        result = keimel_patch(G, system)
        assert (result.solution is not None) == bool(brute), (n, system)
        if brute:
            # both pick the same congruence class modulo the meet of the
            # ideals: coordinates pinned by any constraint must agree
            pinned = [c for c in range(n) if any(not m[c] for m in masks)]
            sol = _coords(result.solution, n)
            for g in brute:
                gc = _coords(g, n)
                assert all(sol[c] == gc[c] for c in pinned)
        compared += 1
    print("criterion 5: PASS (200 solved systems, 50 brute-force comparisons)")


def test_criterion_6_lex_counterexample_regression():
    G = gallery_instance("lex").group
    z = zero_ideal(G.structure)
    g1, g2 = (0, 0), (0, 1)
    space = compute_spectrum(G)
    maxes = space.max_ideals()
    assert len(maxes) == 1
    # the maximal-ideal hypothesis does hold at the unique maximal ideal
    assert contains(G.structure, maxes[0], G.sub(g1, g2))
    assert is_strongly_semisimple(G) == (False, z)
    result = strong_patch(G, [(z, g1), (z, g2)])
    assert result.solution is None
    assert isinstance(result.certificate, NotStronglySemisimple)
    assert result.certificate.witness == z
    # exhaustive verification: nothing satisfies both congruences
    from lgroup.laws import elements_in_box

    for g in elements_in_box(G.structure, 4):
        both = contains(G.structure, z, G.sub(g, g1)) and contains(
            G.structure, z, G.sub(g, g2)
        )
        assert not both
    print("criterion 6: PASS (counterexample refused with exact certificate)")


def test_criterion_7_unique_zero_set_solution():
    inst = gallery_instance("c3")
    G = inst.group
    result = zero_set_patch(G, inst.task.generators, inst.task.targets)
    assert result.solution == (2, 4, 1)
    assert result.unique is True
    # brute force with direct coordinate/unit arithmetic: matching on a
    # zero set means matching the pinned coordinates exactly
    unit = (1, 2, 1)
    zsets = [
        [c for c in range(3) if h[c] == 0] for h in inst.task.generators
    ]
    matches = []
    for g in itertools.product(range(-10, 11), repeat=3):
        ok = True
        for zs, target in zip(zsets, inst.task.targets):
            for c in zs:
                if g[c] * unit[c] != target[c] * unit[c] or g[c] != target[c]:
                    ok = False
        if ok:
            matches.append(g)
    assert matches == [(2, 4, 1)]
    print("criterion 7: PASS (unique solution confirmed by brute force)")


def test_criterion_8_interval_algebra_suite():
    rng = random.Random(88888)
    for name in ("a2", "c3", "lex", "mix", "chang"):
        G = gallery_instance(name).group
        alg = GammaAlgebra(G)
        u = G.unit
        one = u
        zero_e = G.zero()
        for _ in range(1000):
            x, y, z = (
                alg.clamp(random_element(rng, G.structure, 6)),
                alg.clamp(random_element(rng, G.structure, 6)),
                alg.clamp(random_element(rng, G.structure, 6)),
            )
            assert alg.oplus(x, y) == alg.oplus(y, x)
            assert alg.oplus(alg.oplus(x, y), z) == alg.oplus(x, alg.oplus(y, z))
            assert alg.neg(alg.neg(x)) == x
            assert alg.oplus(x, alg.neg(zero_e)) == alg.neg(zero_e) == one
            lhs = alg.oplus(alg.neg(alg.oplus(alg.neg(x), y)), y)
            rhs = alg.oplus(alg.neg(alg.oplus(alg.neg(y), x)), x)
            assert lhs == rhs
    from lgroup import LexIdeal, laws

    chang = gallery_instance("chang").group
    assert laws.interval_algebra(chang) == []
    assert radical(chang) == LexIdeal(AtomIdeal(True))
    print("criterion 8: PASS (interval axioms on 1000 triples per instance)")


def test_criterion_9_cli_snapshot():
    result = invoke(["selftest"])
    assert result.exit_code == 0, result.output

    expectations = [
        ("crt_solved.json", 0),
        ("crt_incompatible.json", 1),
        ("crt_not_strongly_semisimple.json", 2),
        ("crt_invalid.json", 3),
    ]
    for filename, code in expectations:
        result = invoke(["crt", str(DATA / filename)])
        assert result.exit_code == code, (filename, result.output)
    solved = invoke(["crt", str(DATA / "crt_solved.json")])
    assert json.loads(solved.output) == {"solution": [2, 4, 1], "unique": True}
    print("criterion 9: PASS (selftest green; exit codes 0/1/2/3 as canned)")
