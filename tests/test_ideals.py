import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import (
    A2,
    C3,
    GALLERY_GROUPS,
    LEX,
    MIX,
    ORACLE_GROUPS,
    random_group,
    seeded_tree_group,
    some_ideals,
    tall_groups,
)
from oracles import (
    all_ideal_by_walk,
    full_generator_by_walk,
    ideal_count_by_walk,
    ideal_leq_by_walk,
    ideal_to_json_by_walk,
    is_all_ideal_by_walk,
    is_zero_ideal_by_walk,
    proper_tops_by_generator,
    top_index_by_walk,
    zero_ideal_by_walk,
)
import lgroup.ideals
from lgroup import (
    AtomIdeal,
    LexIdeal,
    ProdIdeal,
    ShapeMismatch,
    UnitalGroup,
    Z,
    all_ideal,
    compute_spectrum,
    congruent,
    contains,
    elements_in_box,
    enumerate_ideals,
    full_generator,
    ideal_count,
    ideal_to_json,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_all_ideal,
    is_proper,
    is_zero_ideal,
    lex,
    principal_ideal,
    prod,
    quotient,
    validate_unital_group,
    zero_ideal,
)
from lgroup.yosida import top_index

LEX_BOTTOM_ALL = LexIdeal(AtomIdeal(True))  # {0} x Z inside Z x-> Z


def test_contains_lex_examples():
    assert contains(LEX.structure, LEX_BOTTOM_ALL, (0, -7))
    assert not contains(LEX.structure, LEX_BOTTOM_ALL, (1, 0))
    for G in GALLERY_GROUPS.values():
        assert contains(G.structure, zero_ideal(G.structure), G.zero())


def test_contains_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        contains(LEX.structure, AtomIdeal(True), (0, 0))


def test_principal_ideal_examples():
    assert principal_ideal(LEX.structure, (1, 0)) == all_ideal(LEX.structure)
    assert principal_ideal(LEX.structure, (0, 4)) == LEX_BOTTOM_ALL
    for G in GALLERY_GROUPS.values():
        assert is_zero_ideal(principal_ideal(G.structure, G.zero()))


def test_principal_ideal_is_least_containing_exhaustive():
    # oracle: against the full enumerated lattice, membership of g in I
    # must coincide with <g> below I
    for G in (LEX, A2, MIX):
        lattice = enumerate_ideals(G)
        for g in elements_in_box(G.structure, 2):
            P = principal_ideal(G.structure, g)
            for I in lattice.ideals:
                assert contains(G.structure, I, g) == ideal_leq(P, I)


def test_lattice_op_examples():
    i1 = ProdIdeal((AtomIdeal(False), AtomIdeal(True), AtomIdeal(False)))
    i2 = ProdIdeal((AtomIdeal(False), AtomIdeal(False), AtomIdeal(True)))
    joined = ideal_join(i1, i2)
    assert joined == ProdIdeal((AtomIdeal(False), AtomIdeal(True), AtomIdeal(True)))
    assert ideal_join(LEX_BOTTOM_ALL, zero_ideal(LEX.structure)) == LEX_BOTTOM_ALL
    for G in GALLERY_GROUPS.values():
        for I in enumerate_ideals(G).ideals:
            assert ideal_meet(I, all_ideal(G.structure)) == I


def test_enumeration_counts():
    assert len(enumerate_ideals(LEX)) == 3
    assert sum(1 for I in enumerate_ideals(LEX).ideals if is_proper(I)) == 2
    assert len(enumerate_ideals(A2)) == 4
    assert len(enumerate_ideals(MIX)) == 6
    assert len(enumerate_ideals(validate_unital_group(Z, 1))) == 2


def test_enumeration_order_and_principality():
    rng = random.Random(4099)
    groups = list(GALLERY_GROUPS.values()) + [random_group(rng) for _ in range(120)]
    for G in groups:
        lattice = enumerate_ideals(G)
        assert ideal_count(G.structure) == len(lattice)
        assert is_zero_ideal(lattice.bottom)
        assert is_all_ideal(lattice.top)
        assert all(lattice.principal)
        for I, g in zip(lattice.ideals, lattice.generators):
            assert principal_ideal(G.structure, g) == I


def test_quotient_examples():
    q = quotient(LEX, LEX_BOTTOM_ALL)
    assert repr(q.group.structure) == "Z" and q.group.unit == 1
    assert q.project((7, -9)) == 7

    q = quotient(C3, ProdIdeal((AtomIdeal(False), AtomIdeal(True), AtomIdeal(False))))
    assert repr(q.group.structure) == "Prod(Z, Z)"
    assert q.group.unit == (1, 1)
    assert q.project((4, 5, 6)) == (4, 6)

    q = quotient(MIX, zero_ideal(MIX.structure))
    assert q.group.structure == MIX.structure and q.group.unit == MIX.unit
    assert q.project((2, (3, 4))) == (2, (3, 4))

    q = quotient(A2, all_ideal(A2.structure))
    assert q.trivial and q.group is None

    with pytest.raises(ShapeMismatch):
        quotient(LEX, AtomIdeal(True))

    # projections validate their argument against the source structure
    q = quotient(LEX, zero_ideal(LEX.structure))
    for bad in ((1, 2, 3), (1,)):
        with pytest.raises(ShapeMismatch):
            q.project(bad)
    with pytest.raises(ShapeMismatch):
        q.project_ideal(AtomIdeal(True))
    with pytest.raises(ShapeMismatch):
        quotient(C3, zero_ideal(C3.structure)).project((1, 2))


def test_congruence_examples():
    assert congruent(LEX, (0, 0), (0, 1), LEX_BOTTOM_ALL)
    assert not congruent(LEX, (0, 0), (0, 1), zero_ideal(LEX.structure))
    for G in GALLERY_GROUPS.values():
        for I in enumerate_ideals(G).ideals:
            assert congruent(G, G.unit, G.unit, I)


def test_quotient_lattice_matches_upper_interval():
    # the ideals of G/I correspond one to one with the ideals above I, and
    # the projection is a unital lattice-group map whose kernel is I
    rng = random.Random(1729)
    groups = list(GALLERY_GROUPS.values())
    groups += [random_group(rng, max_atoms=6) for _ in range(10)]
    for G in groups:
        lattice = enumerate_ideals(G)
        box = list(elements_in_box(G.structure, 1))
        for I in lattice.ideals:
            interval = [J for J in lattice.ideals if ideal_leq(I, J)]
            q = quotient(G, I)
            if q.trivial:
                assert interval == [all_ideal(G.structure)]
                continue
            mapped = [q.project_ideal(J) for J in interval]
            assert len(set(mapped)) == len(mapped)
            assert set(mapped) == set(enumerate_ideals(q.group).ideals)
            for J1, M1 in zip(interval, mapped):
                for J2, M2 in zip(interval, mapped):
                    assert ideal_leq(J1, J2) == ideal_leq(M1, M2)
            Q = q.group
            assert q.project(G.unit) == Q.unit
            images = [q.project(g) for g in box]
            for g, pg in zip(box, images):
                assert (pg == Q.zero()) == contains(G.structure, I, g)
            half = (len(box) + 1) // 2
            for g, h, pg, ph in zip(box[:half], box[::-1], images, images[::-1]):
                assert q.project(G.add(g, h)) == Q.add(pg, ph)
                assert q.project(G.meet(g, h)) == Q.meet(pg, ph)


def test_join_membership_has_additive_witnesses():
    # members of I v J split as sums; sums of members stay in the join
    from lgroup import riesz_split

    for G in (A2, LEX, MIX):
        ideals = enumerate_ideals(G).ideals
        box = list(elements_in_box(G.structure, 1))
        for I in ideals:
            for J in ideals:
                joined = ideal_join(I, J)
                for d in box:
                    if contains(G.structure, joined, d):
                        a, b = riesz_split(G, d, I, J)
                        assert contains(G.structure, I, a)
                        assert contains(G.structure, J, b)
                        assert G.add(a, b) == d
                for a in box:
                    if not contains(G.structure, I, a):
                        continue
                    for b in box:
                        if contains(G.structure, J, b):
                            assert contains(G.structure, joined, G.add(a, b))


def test_ideal_labels():
    I = ProdIdeal((AtomIdeal(False), LEX_BOTTOM_ALL, LexIdeal(None)))
    assert repr(I) == "(zero,bottom(all),all)"
    deep = AtomIdeal(False)
    for _ in range(3000):
        deep = ProdIdeal((AtomIdeal(True), LexIdeal(deep)))
    # far deeper than the recursion limit: the repr is a walk
    assert repr(deep) == "(all,bottom(" * 3000 + "zero" + "))" * 3000


def _lex_power(depth):
    structure, unit = Z, 1
    for _ in range(depth):
        structure, unit = lex(structure), (1, unit)
    return structure, unit


def test_caches_stay_bounded():
    # one more distinct structure, and group, than a cache holds
    size = lgroup.ideals.CACHE_SIZE
    for k in range(size + 1):
        (s, u), (t, v) = (_lex_power(d) for d in divmod(k, 16))
        G = UnitalGroup(prod(s, t), (u, v))
        enumerate_ideals(G)
        compute_spectrum(G)
    for cached in (enumerate_ideals, compute_spectrum):
        info = cached.cache_info()
        assert info.maxsize == size and info.currsize <= size


def _fact_cases():
    """Every enumerated ideal of the oracle groups; on 30 seeded trees up to
    depth 6, the primes, zero, the whole group, principal ideals and the
    meets and joins of neighbours among them, so that mixed ideals occur."""
    for G in ORACLE_GROUPS:
        yield G, enumerate_ideals(G).ideals
    for seed in range(1600, 1630):
        G = seeded_tree_group(seed)
        ideals = some_ideals(random.Random(seed), G, count=12)
        pairs = list(zip(ideals, ideals[1:]))
        yield G, ideals + [ideal_meet(I, J) for I, J in pairs] + [ideal_join(I, J) for I, J in pairs]


FACT_CASES = list(_fact_cases())


def test_stored_ideal_facts_agree_with_their_walks():
    kinds = set()
    for G, ideals in FACT_CASES:
        for I in ideals:
            tops = proper_tops_by_generator(G.structure, I)
            assert I._zero is is_zero_ideal_by_walk(I) is is_zero_ideal(I)
            assert is_all_ideal(I) is is_all_ideal_by_walk(I) is not is_proper(I)
            assert I._mask == sum(1 << k for k, proper in enumerate(tops) if proper)
            assert I._width == len(tops)
            kinds.add((I._zero, is_all_ideal(I), type(I)))
    # zero, whole and mixed ideals of each node class occur
    assert len(kinds) == 8


def test_ideal_leq_agrees_with_its_walk():
    # every ordered pair where there are at most 100 ideals; in the larger
    # lattices, each ideal against 4 seeded others
    rng = random.Random(19)
    held = 0
    for G, ideals in FACT_CASES:
        for I in ideals:
            others = ideals if len(ideals) <= 100 else rng.sample(ideals, 4)
            for J in others:
                verdict = ideal_leq(I, J)
                assert verdict is ideal_leq_by_walk(I, J)
                held += verdict
    assert held > 10000


def test_ideal_json_and_top_index_agree_with_their_walks():
    maximal = 0
    for G, ideals in FACT_CASES:
        s = G.structure
        for I in ideals:
            assert ideal_to_json(I) == ideal_to_json_by_walk(I)
            k = top_index(s, I)
            assert k == top_index_by_walk(s, I)
            maximal += k is not None
        maxes = compute_spectrum(G).max_ideals()
        assert [top_index(s, m) for m in maxes] == list(range(len(maxes)))
    assert maximal > 100


def test_zero_ideal_full_generator_and_ideal_count_agree_with_their_walks():
    for G in ORACLE_GROUPS + tall_groups(30):
        s = G.structure
        assert zero_ideal(G) is zero_ideal(s) is zero_ideal_by_walk(s)
        assert full_generator(G) == full_generator(s) == full_generator_by_walk(s)
        assert principal_ideal(s, full_generator(s)) is all_ideal(s)
        assert ideal_count(s) == ideal_count_by_walk(s)


@pytest.mark.parametrize("level", ["lex", "prod"])
def test_ideal_count_answers_on_3000_level_trees(level):
    # far deeper than the recursion limit: each node stores its count
    s = Z
    for _ in range(3000):
        s = lex(s) if level == "lex" else prod(Z, s)
    assert ideal_count(s) == (3002 if level == "lex" else 2**3001)


def test_max_meet_is_the_meet_of_the_maximal_ideals_at_its_mask():
    # mask 0 is the whole ideal, -1 the radical, 1 << k the k-th maximal
    # ideal: each the meet, from the whole ideal, of the maximal ideals at
    # the set bits
    rng = random.Random(17)
    for G in ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(1700, 1730)]:
        s = G.structure
        maxes = compute_spectrum(G).max_ideals()
        n = len(maxes)
        masks = [0, -1] + [1 << k for k in range(n)] + [rng.getrandbits(n) for _ in range(8)]
        for mask in masks:
            meet = all_ideal_by_walk(s)
            for k, m in enumerate(maxes):
                if mask >> k & 1:
                    meet = ideal_meet(meet, m)
            assert lgroup.ideals._max_meet(s, mask) is meet
        assert [top_index(s, lgroup.ideals._max_meet(s, 1 << k)) for k in range(n)] == list(range(n))
        assert all_ideal(G) is all_ideal(s) is all_ideal_by_walk(s)


def test_containment_entries_answer_on_600_and_900_level_product_nests():
    # in a fresh interpreter: membership takes a product's parts in a loop
    # and containment is a meet, one frame per level each; every entry
    # below walks down to the deepest atom, and each pair of verdicts is
    # one that holds and one that does not
    code = (
        "from lgroup import UnitalGroup, Z, compute_spectrum, congruent, contains, ideal_leq\n"
        "from lgroup import keimel_patch, prod, strong_patch, vanishing_locus, zero_ideal\n"
        "for n in (600, 900):\n"
        "    s, u, deep = Z, 1, 1\n"
        "    for _ in range(n):\n"
        "        s, u, deep = prod(Z, s), (1, u), (0, deep)\n"
        "    G = UnitalGroup(s, u)\n"
        "    zero = G.zero()\n"
        "    top = (1,) + zero[1:]  # 1 at the first atom, where deep is 0\n"
        "    space = compute_spectrum(G)\n"
        "    first, last = space.max_ideals()[0], space.max_ideals()[-1]\n"
        "    table = [\n"
        "        ideal_leq(zero_ideal(G), last), ideal_leq(last, zero_ideal(G)),\n"
        "        contains(s, last, top), contains(s, last, deep),\n"
        "        congruent(G, u, deep, last), congruent(G, u, top, last),\n"
        "        len(vanishing_locus(space, zero_ideal(G))), len(vanishing_locus(space, [deep])),\n"
        "    ]\n"
        "    for patch in (keimel_patch, strong_patch):\n"
        "        g = patch(G, [(last, deep), (first, zero)]).solution\n"
        "        table.append(contains(s, last, G.sub(g, deep)) and contains(s, first, g))\n"
        "    print(n, *table)\n"
    )
    src = pathlib.Path(lgroup.ideals.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    rows = [line.split() for line in result.stdout.splitlines()]
    verdicts = ["True", "False"] * 3
    assert rows == [[str(n), *verdicts, str(n + 1), str(n), "True", "True"] for n in (600, 900)]
