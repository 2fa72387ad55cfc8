import copy
import gc
import marshal
import pickle
import random
import sys
import weakref

import pytest

import lgroup.core
import lgroup.spectrum
from conftest import (
    A2, C3, GALLERY_GROUPS, LEX, MIX, ORACLE_GROUPS, random_group, seeded_tree_group, tall_groups,
)
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
    ShapeMismatch,
    SpectrumSpace,
    UnknownPrime,
    closure,
    compute_spectrum,
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
from lgroup.laws import elements_in_box

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
    monkeypatch.setattr(lgroup.spectrum, "all_ideal", counted(lgroup.core.all_ideal))
    height = 300
    tower, nest = Atom(), Atom()
    for _ in range(height):
        tower, nest = Lex(tower), Prod((Atom(), nest))
    for structure, nodes in ((tower, height + 1), (nest, 2 * height + 1)):
        visits.clear()
        primes = lgroup.spectrum._primes(structure)
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
    # any iterable but an ideal node holds elements; a non-iterable is
    # checked as an ideal
    space = compute_spectrum(MIX)
    a_and_top = frozenset(space.primes[i] for i in (0, 2))
    e = (0, (0, 1))
    assert vanishing_locus(space, (g for g in [e])) == a_and_top
    assert vanishing_locus(space, {e: None}.keys()) == a_and_top
    with pytest.raises(ShapeMismatch) as info:
        vanishing_locus(space, 5)
    assert str(info.value) == "root: expected a 2-part product ideal, got 5"


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


def test_compute_spectrum_trusts_the_covers_of_its_own_walk(monkeypatch):
    def refuse(*_):
        raise AssertionError("the covers were checked again")

    monkeypatch.setattr(SpectrumSpace, "__init__", refuse)
    for G in (LEX, MIX):
        space = compute_spectrum(G)
        assert type(space) is SpectrumSpace and space.group is G
        assert (space.primes, space.cover, space.max_ideals()) == G.structure._spectrum


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
        assert (space.primes, space.cover) == s._spectrum[:2] == primes_by_walk(s)
        assert space.max_ideals() is s._spectrum[2]
        assert radical(G) is s._radical is radical_by_walk(s)


def test_a_space_answers_max_ideals_from_its_own_covers():
    # the tree stores its maximal ideals in one slot with its primes and
    # covers, and a space built by hand stores those of its own covers,
    # not the tree's
    tree = compute_spectrum(MIX)
    assert tree.cover == (None, 2, None)
    assert MIX.structure._spectrum == (tree.primes, tree.cover, tree.max_ideals())
    assert tree.max_ideals() is MIX.structure._spectrum[2]
    assert tree.max_ideals() == (tree.primes[0], tree.primes[2])
    for cover in ((None, None, None), (2, 2, None), (1, None, None)):
        space = SpectrumSpace(MIX, tree.primes, cover)
        want = tuple(p for p, c in zip(tree.primes, cover) if c is None)
        assert space.max_ideals() == want
        assert space == SpectrumSpace(MIX, tree.primes, cover) and space != tree
        fields = f"group={MIX!r}, primes={tree.primes!r}, cover={cover!r}"
        assert repr(space) == f"SpectrumSpace({fields})"
        for twin in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert twin == space and twin.max_ideals() == want
    assert compute_spectrum(MIX).max_ideals() == (tree.primes[0], tree.primes[2])


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


def _mutate(doc):
    doc["primes"][0]["ideal"] = "mutated"
    doc["primes"].append(None)
    doc["specialization"].append(["p0", "p0"])
    doc["closure"]["p0"].append("p9")
    doc["max_dense"] = None


def test_the_export_is_stored_once_per_tree_and_each_call_gets_a_fresh_copy():
    for G in ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(12)]:
        s, space = G.structure, compute_spectrum(G)
        built = lgroup.spectrum._document(space)
        lgroup.core._store(s, "_export", None)  # as if never exported
        first = spectrum_json(space)
        blob = s._export
        assert first == built and marshal.loads(blob) == built
        _mutate(first)
        later = [spectrum_json(space), spectrum_json(G), spectrum_json(compute_spectrum(G))]
        assert all(doc == built for doc in later)
        assert s._export is blob
        # new containers on every call: a mutated result leaves the next
        _mutate(later[0])
        assert spectrum_json(G) == built == later[1]


def test_a_second_export_of_a_tree_builds_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(
        lgroup.spectrum, "ideal_to_json", lambda I: calls.append(I) or ideal_to_json(I)
    )
    # a tree that no other test builds, so its export is its own
    s = prod(lex(prod(Z, lex(Z), Z)), *(Z,) * 23, lex(Z))
    G = UnitalGroup(s, ((1, (1, (1, 0), 1)), *(1,) * 23, (1, 0)))
    assert s._export is None
    doc = spectrum_json(G)
    assert len(calls) == len(doc["primes"]) == len(compute_spectrum(G))
    for _ in range(3):
        assert spectrum_json(G) == doc
    assert len(calls) == len(doc["primes"])


def test_a_space_that_does_not_hold_the_trees_primes_stores_no_export():
    s = prod(lex(prod(Z, Z, lex(Z))), *(Z,) * 21, lex(lex(Z)))
    G = UnitalGroup(s, ((1, (1, 1, (1, 0))), *(1,) * 21, (1, (1, 0))))
    tree = compute_spectrum(G)
    want = lgroup.spectrum._document(tree)
    twins = [
        # equal tuples, but not the tree's own
        SpectrumSpace(G, tuple(list(tree.primes)), tuple(list(tree.cover))),
        SpectrumSpace(G, tree.primes, tuple(list(tree.cover))),
    ]
    for space in twins:
        assert spectrum_json(space) == want and s._export is None
    assert spectrum_json(tree) == want and s._export is not None


def test_a_dropped_tree_frees_its_export():
    s = prod(*(Z,) * 22, lex(prod(lex(Z), Z)))
    G = UnitalGroup(s, (1,) * 22 + ((1, ((1, 0), 1)),))
    spectrum_json(G)
    blob, tree = s._export, weakref.ref(s)
    held = sys.getrefcount(blob)
    del s, G
    gc.collect()
    assert tree() is None and sys.getrefcount(blob) == held - 1
