import random

import pytest

import lgroup.ideals
import lgroup.spectrum
from conftest import A2, C3, GALLERY_GROUPS, LEX, MIX, ORACLE_GROUPS, random_group, tall_groups
from oracles import primes_by_walk, radical_by_walk, zero_by_walk
from lgroup import (
    Atom,
    AtomIdeal,
    Lex,
    Prod,
    UnitalGroup,
    Z,
    LexIdeal,
    ProdIdeal,
    SpectrumSpace,
    UnknownPrime,
    closure,
    compute_spectrum,
    elements_in_box,
    enumerate_ideals,
    ideal_leq,
    ideal_of_locus,
    ideal_to_json,
    is_chain,
    is_proper,
    leq,
    lex,
    prod,
    quotient,
    radical,
    specialization_dot,
    spectrum_json,
    vanishing_locus,
    zero,
    zero_ideal,
)

LEX_MAX = LexIdeal(AtomIdeal(True))


def test_spectrum_lex():
    space = compute_spectrum(LEX)
    assert space.primes == (zero_ideal(LEX.structure), LEX_MAX)
    assert space.maximal == (False, True)
    assert space.specializes(space.primes[0], space.primes[1])


def test_spectrum_a2():
    space = compute_spectrum(A2)
    assert space.primes == (
        ProdIdeal((AtomIdeal(False), AtomIdeal(True))),
        ProdIdeal((AtomIdeal(True), AtomIdeal(False))),
    )
    assert space.maximal == (True, True)
    assert not space.specializes(space.primes[0], space.primes[1])


def test_spectrum_mix():
    space = compute_spectrum(MIX)
    assert len(space) == 3
    assert sum(space.maximal) == 2


def test_spectrum_matches_the_definition_filter():
    # oracle: the proper ideals whose quotient is a chain, in enumeration
    # order, maximal exactly when the quotient is a single coordinate
    rng = random.Random(8191)
    groups = list(GALLERY_GROUPS.values()) + [random_group(rng) for _ in range(120)]
    for G in groups:
        primes, maximal = [], []
        for I in enumerate_ideals(G).ideals:
            q = quotient(G, I)
            if is_proper(I) and is_chain(q.group.structure):
                primes.append(I)
                maximal.append(isinstance(q.group.structure, Atom))
        space = compute_spectrum(G)
        assert space.primes == tuple(primes)
        assert space.maximal == tuple(maximal)


def test_primes_walk_visits_each_node_once(monkeypatch):
    # the walk builds each node's whole ideal beside its primes, so a tall
    # tree costs one visit per node, not one per node and level above it
    visits = []

    def counted(walk):
        def visit(structure):
            visits.append(structure)
            return walk(structure)

        return visit

    monkeypatch.setattr(lgroup.spectrum, "_primes", counted(lgroup.spectrum._primes))
    for module in (lgroup.spectrum, lgroup.ideals):
        monkeypatch.setattr(module, "all_ideal", counted(lgroup.ideals.all_ideal))
    height = 300
    tower, nest = Atom(), Atom()
    for _ in range(height):
        tower, nest = Lex(tower), Prod((Atom(), nest))
    for structure, nodes in ((tower, height + 1), (nest, 2 * height + 1)):
        visits.clear()
        primes, _ = lgroup.spectrum._primes(structure)
        assert len(primes) == height + 1
        assert len(visits) == nodes


def test_primality_against_sampled_totality_oracle():
    # a proper ideal is prime exactly when the quotient order is total;
    # cross-check the chain test by sampling quotient elements
    for G in (A2, LEX, MIX):
        space = compute_spectrum(G)
        for I in enumerate_ideals(G).ideals:
            if not is_proper(I):
                continue
            q = quotient(G, I)
            box = list(elements_in_box(q.group.structure, 1))
            total = all(
                leq(q.group.structure, g, h) or leq(q.group.structure, h, g)
                for g in box
                for h in box
            )
            assert total == is_chain(q.group.structure)
            assert (I in space.primes) == total


def test_vanishing_locus_examples():
    for G in GALLERY_GROUPS.values():
        space = compute_spectrum(G)
        assert vanishing_locus(space, [G.unit]) == frozenset()
        assert vanishing_locus(space, [G.zero()]) == frozenset(space.primes)
    space = compute_spectrum(LEX)
    assert vanishing_locus(space, [(0, 1)]) == frozenset([LEX_MAX])


def test_ideal_of_locus_examples():
    space = compute_spectrum(LEX)
    assert ideal_of_locus(space, [LEX_MAX]) == LEX_MAX
    assert ideal_of_locus(space, space.primes) == zero_ideal(LEX.structure)
    from lgroup import all_ideal

    for G in GALLERY_GROUPS.values():
        sp = compute_spectrum(G)
        assert ideal_of_locus(sp, []) == all_ideal(G.structure)


def test_closure_examples():
    space = compute_spectrum(LEX)
    generic = zero_ideal(LEX.structure)
    assert closure(space, [generic]) == frozenset(space.primes)
    assert closure(space, space.max_ideals()) == frozenset([LEX_MAX])
    for G in GALLERY_GROUPS.values():
        assert closure(compute_spectrum(G), []) == frozenset()


def test_unknown_prime_rejected():
    space = compute_spectrum(A2)
    with pytest.raises(UnknownPrime):
        ideal_of_locus(space, [zero_ideal(A2.structure)])


def test_spectrum_space_checks_its_covers():
    # covers point at later primes; maximality flags are not covers
    space = compute_spectrum(LEX)
    assert space.cover == (1, None)
    for cover in ((False, True), (1, 1), (None,), (0, None), (1.0, None)):
        with pytest.raises(ValueError):
            SpectrumSpace(LEX, space.primes, cover)


def test_dot_export():
    dot = specialization_dot(compute_spectrum(LEX))
    assert "doublecircle" in dot
    assert "p0 -> p1;" in dot
    assert dot.startswith("digraph spectrum {")


def test_json_export():
    payload = spectrum_json(compute_spectrum(MIX))
    assert len(payload["primes"]) == 3
    assert payload["max_dense"] is False
    ids = {p["id"] for p in payload["primes"]}
    assert ids == {"p0", "p1", "p2"}
    for pid, closed in payload["closure"].items():
        assert pid in closed  # closures contain their points


def _pairwise_dot(space):
    # the deleted O(n^3) cover loop over plain containment
    lines = ["digraph spectrum {", "  rankdir=BT;"]
    for i, (p, mx) in enumerate(zip(space.primes, space.maximal)):
        shape = ", shape=doublecircle" if mx else ""
        lines.append(f'  p{i} [label="{p!r}"{shape}];')
    n = len(space.primes)
    for i in range(n):
        for j in range(n):
            if i == j or not ideal_leq(space.primes[i], space.primes[j]):
                continue
            covered = any(
                k != i
                and k != j
                and ideal_leq(space.primes[i], space.primes[k])
                and ideal_leq(space.primes[k], space.primes[j])
                for k in range(n)
            )
            if not covered:
                lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _pairwise_json(space):
    # the deleted O(n^2) pairs, closures and density
    ids = {p: f"p{i}" for i, p in enumerate(space.primes)}
    singleton_closures = {
        ids[p]: sorted(ids[q] for q in closure(space, [p])) for p in space.primes
    }
    return {
        "primes": [
            {"id": ids[p], "ideal": ideal_to_json(p), "maximal": mx}
            for p, mx in zip(space.primes, space.maximal)
        ],
        "specialization": [
            [ids[p], ids[q]]
            for p in space.primes
            for q in space.primes
            if p != q and ideal_leq(p, q)
        ],
        "closure": singleton_closures,
        "max_dense": closure(space, space.max_ideals()) == frozenset(space.primes),
    }


def _towers(max_depth):
    for bottom, unit in ((Z, 1), (prod(Z, Z), (1, 1)), (prod(Z, lex(Z)), (1, (1, 0)))):
        for _ in range(max_depth):
            bottom, unit = lex(bottom), (1, unit)
            yield UnitalGroup(bottom, unit)


def test_specialization_matches_pairwise_containment():
    rng = random.Random(1613)
    groups = list(GALLERY_GROUPS.values()) + [random_group(rng) for _ in range(120)]
    groups += list(_towers(12))
    for G in groups:
        space = compute_spectrum(G)
        assert specialization_dot(space) == _pairwise_dot(space)
        assert spectrum_json(space) == _pairwise_json(space)
        assert all(c is None or c > i for i, c in enumerate(space.cover))


def test_stored_facts_agree_with_their_walks():
    for G in ORACLE_GROUPS + tall_groups(30):
        s = G.structure
        assert zero(s) == G.zero() == zero_by_walk(s)
        space = compute_spectrum(G)
        assert (space.primes, space.cover) == s._spectrum == primes_by_walk(s)
        assert radical(G) is s._radical is radical_by_walk(s)


def test_groups_on_one_tree_share_one_primes_walk(monkeypatch):
    # the primes depend on the tree, not the unit: five units, one walk
    s = prod(lex(prod(Z, Z, Z, Z, Z)), lex(lex(Z)), Z, lex(Z))
    assert s._spectrum is None
    walks = []
    walk = lgroup.spectrum._primes

    def counted(structure):
        walks.append(structure)
        return walk(structure)

    monkeypatch.setattr(lgroup.spectrum, "_primes", counted)
    spaces = [
        compute_spectrum(UnitalGroup(s, ((k, (0,) * 5), (1, (k, 0)), k, (2, -k))))
        for k in range(1, 6)
    ]
    assert walks.count(s) == 1
    assert len({space.group for space in spaces}) == 5
    assert all(space.primes is spaces[0].primes for space in spaces)
    assert all(space.cover is spaces[0].cover for space in spaces)
