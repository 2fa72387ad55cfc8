import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import (
    A2,
    C3,
    CHAIN3,
    GALLERY_GROUPS,
    LEX,
    MIX,
    random_element,
    random_group,
    some_ideals,
    tall_groups,
)
from oracles import holder_eval_by_quotient, zero_set_by_membership

from lgroup import (
    AtomIdeal,
    LexIdeal,
    LGroupError,
    NotMaximal,
    ProdIdeal,
    UnitalGroup,
    compute_spectrum,
    contains,
    elements_in_box,
    holder_eval,
    principal_zero_set,
    radical,
    yosida_table,
    zero_ideal,
)
import lgroup
from lgroup.yosida import ForeignSpectrum

M1 = ProdIdeal((AtomIdeal(False), AtomIdeal(True), AtomIdeal(True)))
M2 = ProdIdeal((AtomIdeal(True), AtomIdeal(False), AtomIdeal(True)))
M3 = ProdIdeal((AtomIdeal(True), AtomIdeal(True), AtomIdeal(False)))


def test_holder_eval_scaled_unit_coordinate():
    # the embedding of (Z, 2) into the reals with unit 1 sends k to k/2
    assert holder_eval(C3, (0, 3, 0), M2) == Fraction(3, 2)


def test_holder_eval_lex_projects_top():
    assert holder_eval(LEX, (2, -9), LexIdeal(AtomIdeal(True))) == 2


def test_holder_eval_unit_is_one():
    for G in GALLERY_GROUPS.values():
        space = compute_spectrum(G)
        for m in space.max_ideals():
            assert holder_eval(G, G.unit, m) == 1


def test_holder_eval_rejects_non_maximal():
    with pytest.raises(NotMaximal):
        holder_eval(LEX, (1, 0), zero_ideal(LEX.structure))


def test_principal_zero_set_examples():
    assert principal_zero_set(C3, (0, 0, 1)) == frozenset([M1, M2])
    for G in GALLERY_GROUPS.values():
        space = compute_spectrum(G)
        assert principal_zero_set(G, G.unit) == frozenset()
        assert principal_zero_set(G, G.zero()) == frozenset(space.max_ideals())


def _coordinate_groups():
    # the gallery, CHAIN3, seeded random groups, and lex towers and
    # product nests of every height from 1 to 30
    rng = random.Random(6113)
    groups = list(GALLERY_GROUPS.values()) + [CHAIN3]
    return groups + [random_group(rng, max_atoms=5) for _ in range(120)] + tall_groups(30)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except NotMaximal as exc:
        return ("not maximal", exc.ideal)


def test_holder_eval_matches_the_quotient():
    # the top-position reading of values, NotMaximal and tables against the
    # quotient G/m that it replaces
    rng = random.Random(6114)
    for G in _coordinate_groups():
        space = compute_spectrum(G)
        ideals = some_ideals(rng, G)
        for g in [random_element(rng, G.structure, 3) for _ in range(2)] + [G.unit]:
            for I in ideals:
                expected = _outcome(holder_eval_by_quotient, G, g, I)
                assert _outcome(holder_eval, G, g, I) == expected, (G, g, I)
            table = yosida_table(G, g, space)
            assert list(table) == list(space.max_ideals())
            assert table == {m: holder_eval_by_quotient(G, g, m) for m in table}


def test_zero_set_matches_vanishing_values():
    # the descriptions of a zero set agree on sampled inputs: the top
    # positions where g is 0, where its table vanishes, and membership
    rng = random.Random(52)
    for G in (A2, C3, MIX):
        space = compute_spectrum(G)
        for _ in range(40):
            g = random_element(rng, G.structure, 4)
            zs = principal_zero_set(G, g, space)
            by_values = frozenset(
                m for m in space.max_ideals() if holder_eval(G, g, m) == 0
            )
            assert zs == by_values == zero_set_by_membership(G, g, space)
    for G in _coordinate_groups():
        space = compute_spectrum(G)
        for _ in range(3):
            g = random_element(rng, G.structure, 1)
            assert principal_zero_set(G, g, space) == zero_set_by_membership(G, g, space)


def test_table_is_additive_and_lattice_compatible():
    rng = random.Random(53)
    for G in (C3, MIX, LEX):
        space = compute_spectrum(G)
        for _ in range(40):
            g = random_element(rng, G.structure, 5)
            h = random_element(rng, G.structure, 5)
            for m in space.max_ideals():
                assert holder_eval(G, G.add(g, h), m) == holder_eval(
                    G, g, m
                ) + holder_eval(G, h, m)
                assert holder_eval(G, G.meet(g, h), m) == min(
                    holder_eval(G, g, m), holder_eval(G, h, m)
                )
                assert holder_eval(G, G.join(g, h), m) == max(
                    holder_eval(G, g, m), holder_eval(G, h, m)
                )


def test_vanishing_everywhere_is_radical_membership():
    for G in (LEX, MIX, A2):
        space = compute_spectrum(G)
        rad = radical(G)
        for g in elements_in_box(G.structure, 1):
            table = yosida_table(G, g, space)
            vanishes = all(v == 0 for v in table.values())
            assert vanishes == contains(G.structure, rad, g)


def test_lex_free_points_are_coordinates():
    # on Z^n every maximal ideal pins exactly one coordinate, and the map
    # from maximal ideals to coordinates is a bijection
    for G in (A2, C3):
        space = compute_spectrum(G)
        seen = set()
        for m in space.max_ideals():
            zero_coords = [
                i for i, part in enumerate(m.parts) if part == AtomIdeal(False)
            ]
            assert len(zero_coords) == 1
            seen.add(zero_coords[0])
            for g in elements_in_box(G.structure, 1):
                if contains(G.structure, m, g):
                    assert g[zero_coords[0]] == 0
        assert seen == set(range(len(G.structure.children)))


def test_table_and_serialization():
    space = compute_spectrum(C3)
    table = yosida_table(C3, (0, 3, 0), space)
    assert set(table) == set(space.max_ideals())
    assert list(table.values()) == [0, Fraction(3, 2), 0]


def test_a_spectrum_of_another_tree_is_refused():
    # MIX has two maximal ideals to C3's three: zip would pair two of them
    space = compute_spectrum(MIX)
    for evaluate in (yosida_table, principal_zero_set):
        with pytest.raises(ForeignSpectrum, match=r"Prod\(Z, Lex\(Z\)\).*Prod\(Z, Z, Z\)") as exc:
            evaluate(C3, (1, 1, 1), space)
        assert isinstance(exc.value, LGroupError)
    # a spectrum of another unit on the same tree is the group's own
    other = compute_spectrum(UnitalGroup(C3.structure, (3, 1, 2)))
    assert yosida_table(C3, (1, 0, 2), other) == yosida_table(C3, (1, 0, 2))
    assert principal_zero_set(C3, (1, 0, 0), other) == principal_zero_set(C3, (1, 0, 0)) == {M2, M3}


def test_the_unit_is_walked_once_per_group(monkeypatch):
    # the unit's top integers are stored on the group at the first table
    import lgroup.yosida

    walked = []
    top_values = lgroup.yosida.top_values
    monkeypatch.setattr(lgroup.yosida, "top_values", lambda s, g: walked.append(g) or top_values(s, g))
    G = UnitalGroup(MIX.structure, (2, (3, -1)))
    space = compute_spectrum(G)
    elements = [(1, (0, 5)), (0, (2, 2))]
    tables = [yosida_table(G, g, space) for g in elements]
    values = [holder_eval(G, g, m) for g in elements for m in space.max_ideals()]
    # each element once per call, the unit once in all
    assert walked == [elements[0], G.unit, elements[1]] + [g for g in elements for _ in range(2)]
    assert [list(t.values()) for t in tables] == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(2, 3)]]
    assert values == [v for t in tables for v in t.values()]
    assert G._tops == (2, 3)


def test_holder_eval_answers_on_a_600_level_product_nest_without_a_spectrum():
    # in a fresh interpreter: maximality is read off the stored masks by a
    # descent through the products, so the tree's spectrum is never built
    code = (
        "from lgroup import AtomIdeal, LexIdeal, NotMaximal, ProdIdeal, UnitalGroup, Z, holder_eval, lex, prod\n"
        "s, u, g = lex(Z), (1, 0), (3, 5)\n"
        "m, below = LexIdeal(AtomIdeal(True)), LexIdeal(AtomIdeal(False))\n"
        "for _ in range(600):\n"
        "    s, u, g = prod(Z, s), (1, u), (2, g)\n"
        "    m, below = ProdIdeal((AtomIdeal(True), m)), ProdIdeal((AtomIdeal(True), below))\n"
        "G = UnitalGroup(s, u)\n"
        "assert holder_eval(G, g, m) == 3\n"
        "try:\n"
        "    holder_eval(G, g, below)\n"
        "except NotMaximal:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a non-maximal ideal was evaluated')\n"
        "assert s._spectrum is None\n"
        "print('ok')\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["ok"]
