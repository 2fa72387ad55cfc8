import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import (
    A2,
    C3,
    CHAIN3,
    GALLERY_GROUPS,
    LEX,
    MIX,
    ORACLE_GROUPS,
    random_element,
    seeded_tree_group,
    some_ideals,
    tall_groups,
)
from oracles import (
    all_ideal_by_walk,
    max_failure_by_generators,
    max_hypothesis_failure,
    patch_by_sweep,
    primes_agree,
    split_by_walk,
    strong_patch_by_sweep,
    unique_by_cover,
    unique_by_top_values,
    zero_set_overlap_failure,
    zero_set_patch_by_sweep,
    zero_sets_agree,
)
import lgroup.crt
from lgroup import (
    AtomIdeal,
    CongruenceSystem,
    Incompatible,
    IncompatibleOnZeroSets,
    LengthMismatch,
    LexIdeal,
    LGroupError,
    MaxHypothesisViolated,
    NotInJoin,
    NotStronglySemisimple,
    ProdIdeal,
    all_ideal,
    compute_spectrum,
    congruent,
    contains,
    enumerate_ideals,
    holder_eval,
    ideal_join,
    ideal_leq,
    ideal_meet,
    keimel_patch,
    lex,
    principal_ideal,
    principal_zero_set,
    prod,
    radical,
    riesz_split,
    strong_patch,
    validate_unital_group,
    Z,
    zero_ideal,
    zero_set_patch,
)
from lgroup.laws import elements_in_box

M1 = ProdIdeal((AtomIdeal(False), AtomIdeal(True), AtomIdeal(True)))
M2 = ProdIdeal((AtomIdeal(True), AtomIdeal(False), AtomIdeal(True)))
M3 = ProdIdeal((AtomIdeal(True), AtomIdeal(True), AtomIdeal(False)))
A2_M1 = ProdIdeal((AtomIdeal(False), AtomIdeal(True)))
A2_M2 = ProdIdeal((AtomIdeal(True), AtomIdeal(False)))
LEX_MAX = LexIdeal(AtomIdeal(True))

# pairs (1, 2) and (0, 3) are incompatible and every other pair is
# compatible, so a forward merge gets stuck at step 2 while the first pair in
# certificate order is (0, 3)
STUCK_AT_2 = [(A2_M2, (-1, -1)), (A2_M1, (-1, 0)), (A2_M1, (0, -1)), (A2_M2, (-1, 1))]
# the same shape on a group that is not strongly semisimple, where the
# four targets agree at every maximal ideal above each join: constraints
# (<h>, t) for the generators h and targets t below
LEX2 = validate_unital_group(prod(lex(Z), lex(Z)), ((1, 0), (1, 0)))
LEX2_GENERATORS = [((1, 0), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (1, 0)), ((1, 0), (0, 0))]
LEX2_TARGETS = [((0, 0), (0, 0)), ((0, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 1))]
LEX2_SYSTEM = [
    (principal_ideal(LEX2.structure, h), t) for h, t in zip(LEX2_GENERATORS, LEX2_TARGETS)
]


def test_riesz_split_shared_coordinate_goes_first():
    a, b = riesz_split(C3, (4, 5, 6), M1, M3)
    assert a == (0, 5, 6) and b == (4, 0, 0)


def test_riesz_split_trivial_side():
    a, b = riesz_split(LEX, (0, 7), LEX_MAX, zero_ideal(LEX.structure))
    assert a == (0, 7) and b == (0, 0)


def test_riesz_split_not_in_join():
    with pytest.raises(NotInJoin):
        riesz_split(A2, (1, 0), zero_ideal(A2.structure), zero_ideal(A2.structure))


def test_riesz_split_random_members_of_joins():
    rng = random.Random(4242)
    for G in (A2, C3, MIX, LEX):
        ideals = enumerate_ideals(G).ideals
        for _ in range(60):
            I, J = rng.choice(ideals), rng.choice(ideals)
            raw = random_element(rng, G.structure, 4)
            # force membership in the join by keeping only claimable parts
            a0, _ = riesz_split(G, raw, I, all_ideal(G.structure))
            b0, _ = riesz_split(
                G, random_element(rng, G.structure, 4), J, all_ideal(G.structure)
            )
            d = G.add(a0, b0)
            a, b = riesz_split(G, d, I, J)
            assert contains(G.structure, I, a)
            assert contains(G.structure, J, b)
            assert G.add(a, b) == d


def test_keimel_two_maximal_constraints():
    result = keimel_patch(A2, [(A2_M1, (5, 7)), (A2_M2, (3, 4))])
    assert result.solution == (5, 4)
    # brute-force oracle: the solution class is unique modulo the meet
    meet = ideal_meet(A2_M1, A2_M2)
    solutions = [
        g
        for g in elements_in_box(A2.structure, 8)
        if congruent(A2, g, (5, 7), A2_M1) and congruent(A2, g, (3, 4), A2_M2)
    ]
    assert solutions
    for g in solutions:
        assert congruent(A2, g, result.solution, meet)


def test_keimel_merge_trace_on_three_coordinates():
    result = keimel_patch(C3, [(M1, (1, 2, 3)), (M2, (9, 9, 1))])
    assert result.solution == (1, 9, 1)
    # not unique: the third coordinate is unconstrained
    other = (1, 9, 0)
    assert congruent(C3, other, (1, 2, 3), M1)
    assert congruent(C3, other, (9, 9, 1), M2)


def test_keimel_incompatible_certificate():
    z = zero_ideal(A2.structure)
    result = keimel_patch(A2, [(z, (5, 7)), (z, (3, 4))])
    assert result.solution is None
    cert = result.certificate
    assert isinstance(cert, Incompatible)
    assert (cert.i, cert.j) == (0, 1)
    assert cert.difference == (2, 3)
    assert cert.join_ideal == z


def test_keimel_empty_and_singleton_systems():
    assert keimel_patch(A2, []).solution == (0, 0)
    assert keimel_patch(A2, [(A2_M1, (4, 9))]).solution == (4, 9)


@pytest.mark.parametrize("solver", [keimel_patch, strong_patch], ids=["keimel", "strong"])
def test_malformed_constraints_raise_a_library_error(solver):
    good = (A2_M1, (4, 9))
    for bad in [(A2_M1,), (A2_M1, (4, 9), 5), A2_M1]:
        for k, system in enumerate([[bad], [good, bad]]):
            with pytest.raises(LGroupError) as info:
                solver(A2, system)
            assert type(info.value) is LGroupError
            assert str(info.value) == f"constraint {k}: expected an (ideal, target) pair"
    # any two-item iterable is a pair, and the system may be any iterable
    assert solver(A2, [[A2_M1, (4, 9)]]).solution == (4, 9)
    assert solver(A2, (pair for pair in [good, (A2_M2, (1, 2))])).solution == (4, 2)


def test_malformed_systems_raise_a_library_error_naming_the_argument():
    g = (4, 9)
    calls = [
        (lambda: keimel_patch(A2, 5), "system: expected an iterable of (ideal, target) pairs"),
        (lambda: strong_patch(A2, None), "system: expected an iterable of (ideal, target) pairs"),
        (lambda: zero_set_patch(A2, 5, [g]), "generators: expected a sequence of elements"),
        (lambda: zero_set_patch(A2, iter([g]), [g]), "generators: expected a sequence of elements"),
    ]
    for call, message in calls:
        with pytest.raises(LGroupError) as info:
            call()
        assert type(info.value) is LGroupError
        assert str(info.value) == message


def test_keimel_duplicate_ideals_allowed():
    z = zero_ideal(LEX.structure)
    system = CongruenceSystem.of([(z, (0, 1)), (z, (0, 1))])
    assert keimel_patch(LEX, system).solution == (0, 1)


def test_strong_patch_refuses_the_impossible_pair():
    z = zero_ideal(LEX.structure)
    result = strong_patch(LEX, [(z, (0, 0)), (z, (0, 1))])
    assert result.solution is None
    cert = result.certificate
    assert isinstance(cert, NotStronglySemisimple)
    assert cert.witness == z
    assert cert.keimel_hypothesis_holds is False
    assert cert.solution_exists is False
    assert cert.incompatible_pair == (0, 1)
    # the weak hypothesis really does hold at the unique maximal ideal
    diff = LEX.sub((0, 0), (0, 1))
    assert contains(LEX.structure, LEX_MAX, diff)
    assert ideal_leq(ideal_join(z, z), LEX_MAX)


def test_strong_patch_vacuous_max_hypothesis():
    # m1 v m2 is improper, so no maximal ideal constrains the pair
    result = strong_patch(C3, [(M1, (1, 2, 3)), (M2, (9, 9, 1))])
    assert result.solution == (1, 9, 1)


def test_strong_patch_singleton():
    result = strong_patch(A2, [(A2_M1, (2, -3))])
    assert result.solution == (2, -3)


def test_strong_patch_detects_max_violation():
    # same ideal twice with targets differing at the surviving coordinate
    result = strong_patch(A2, [(A2_M1, (5, 0)), (A2_M1, (7, 0))])
    cert = result.certificate
    assert isinstance(cert, MaxHypothesisViolated)
    assert (cert.i, cert.j) == (0, 1)
    assert cert.maximal == A2_M1


def test_certificates_name_the_first_failing_pair():
    # pairs are scanned as (0, 1), (0, 2), (1, 2); only the last two fail
    z = zero_ideal(A2.structure)
    cert = keimel_patch(A2, [(z, (0, 0)), (z, (0, 0)), (z, (1, 1))]).certificate
    assert (cert.i, cert.j) == (0, 2)
    system = [(A2_M1, (5, 0)), (A2_M1, (5, 0)), (A2_M1, (7, 0))]
    cert = strong_patch(A2, system).certificate
    assert isinstance(cert, MaxHypothesisViolated)
    assert (cert.i, cert.j) == (0, 2)


def test_zero_set_patch_unique_solution():
    result = zero_set_patch(C3, [(0, 0, 1), (1, 0, 0)], [(2, 4, 6), (0, 4, 1)])
    assert result.solution == (2, 4, 1)
    assert result.unique is True
    assert principal_zero_set(C3, (0, 0, 1)) == frozenset([M1, M2])
    assert principal_zero_set(C3, (1, 0, 0)) == frozenset([M2, M3])


def test_zero_set_patch_refuses_non_strongly_semisimple():
    result = zero_set_patch(LEX, [(0, 1)], [(0, 0)])
    assert isinstance(result.certificate, NotStronglySemisimple)
    result = zero_set_patch(LEX, [], [])
    assert isinstance(result.certificate, NotStronglySemisimple)


def test_zero_set_patch_incompatible_on_overlap():
    h = (0, 0, 1)
    result = zero_set_patch(C3, [h, h], [(2, 4, 6), (0, 4, 1)])
    cert = result.certificate
    assert isinstance(cert, IncompatibleOnZeroSets)
    assert (cert.i, cert.j) == (0, 1)
    assert cert.maximal == M1
    assert holder_eval(C3, (2, 4, 6), M1) != holder_eval(C3, (0, 4, 1), M1)


def test_zero_set_patch_empty_system():
    result = zero_set_patch(A2, [], [])
    assert result.solution == (0, 0)
    assert result.unique is False


def test_zero_set_patch_length_mismatch():
    with pytest.raises(LengthMismatch):
        zero_set_patch(A2, [(0, 1)], [])


def test_upgrade_fails_without_strong_semisimplicity():
    # maximal agreement does not imply join membership on the lex group
    g, h = (0, 0), (0, 1)
    z = zero_ideal(LEX.structure)
    joined = ideal_join(z, z)
    diff = LEX.sub(g, h)
    space = compute_spectrum(LEX)
    for m in space.max_ideals():
        if ideal_leq(joined, m):
            assert contains(LEX.structure, m, diff)
    assert not contains(LEX.structure, joined, diff)


def test_upgrade_holds_on_strongly_semisimple_instances():
    # on Z^n, agreement at every maximal ideal above I v J upgrades to
    # membership in I v J, exhaustively over a bounded box
    for G in (A2, C3):
        space = compute_spectrum(G)
        maxes = space.max_ideals()
        ideals = enumerate_ideals(G).ideals
        for I in ideals:
            for J in ideals:
                joined = ideal_join(I, J)
                above = [m for m in maxes if ideal_leq(joined, m)]
                for d in elements_in_box(G.structure, 1):
                    if all(contains(G.structure, m, d) for m in above):
                        assert contains(G.structure, joined, d)


def test_merge_distributivity_identity():
    # the identity that keeps the forward merge of the reference sound
    for G in GALLERY_GROUPS.values():
        ideals = enumerate_ideals(G).ideals
        for I1 in ideals:
            for I2 in ideals:
                for I3 in ideals:
                    lhs = ideal_meet(ideal_join(I1, I3), ideal_join(I2, I3))
                    rhs = ideal_join(ideal_meet(I1, I2), I3)
                    assert lhs == rhs
    # and its family form, on random ideal families
    rng = random.Random(606)
    for G in GALLERY_GROUPS.values():
        ideals = enumerate_ideals(G).ideals
        for _ in range(25):
            family = [rng.choice(ideals) for _ in range(rng.randint(2, 4))]
            last = rng.choice(ideals)
            lhs = all_ideal(G.structure)
            meet_family = all_ideal(G.structure)
            for J in family:
                lhs = ideal_meet(lhs, ideal_join(J, last))
                meet_family = ideal_meet(meet_family, J)
            assert lhs == ideal_join(meet_family, last)


def test_spectral_and_ideal_forms_agree():
    # congruence modulo I is the same as agreement at every prime above I
    rng = random.Random(1199)
    for G in (LEX, MIX):
        space = compute_spectrum(G)
        ideals = enumerate_ideals(G).ideals
        for _ in range(40):
            g = random_element(rng, G.structure, 3)
            gi = random_element(rng, G.structure, 3)
            diff = G.sub(g, gi)
            for I in ideals:
                spectral = all(
                    contains(G.structure, p, diff)
                    for p in space.primes
                    if ideal_leq(I, p)
                )
                assert spectral == contains(G.structure, I, diff)


def test_patching_is_idempotent_on_congruent_targets():
    rng = random.Random(8080)
    for G in (A2, C3):
        ideals = enumerate_ideals(G).ideals
        everything = all_ideal(G.structure)
        for _ in range(30):
            g = random_element(rng, G.structure, 4)
            system = []
            for _ in range(rng.randint(1, 3)):
                I = rng.choice(ideals)
                noise = random_element(rng, G.structure, 4)
                inside, _ = riesz_split(G, noise, I, everything)
                system.append((I, G.add(g, inside)))
            result = keimel_patch(G, system)
            assert result.solution is not None
            for I, _ in system:
                assert congruent(G, result.solution, g, I)


def test_solutions_verify_all_congruences():
    rng = random.Random(3333)
    for G in (A2, C3, MIX):
        ideals = enumerate_ideals(G).ideals
        everything = all_ideal(G.structure)
        for _ in range(40):
            base = random_element(rng, G.structure, 4)
            system = []
            for _ in range(rng.randint(1, 4)):
                I = rng.choice(ideals)
                noise = random_element(rng, G.structure, 4)
                inside, _ = riesz_split(G, noise, I, everything)
                system.append((I, G.add(base, inside)))
            result = keimel_patch(G, system)
            assert result.solution is not None
            for I, t in system:
                assert congruent(G, result.solution, t, I)


def test_classical_solver_fuzz_with_certified_refusals():
    from conftest import random_group

    rng = random.Random(99)
    for _ in range(150):
        G = random_group(rng, max_atoms=4)
        ideals = enumerate_ideals(G).ideals
        system = [
            (rng.choice(ideals), random_element(rng, G.structure, 2))
            for _ in range(rng.randint(1, 4))
        ]
        result = keimel_patch(G, system)
        if result.solution is not None:
            for I, t in system:
                assert congruent(G, result.solution, t, I)
            continue
        cert = result.certificate
        (Ii, gi), (Ij, gj) = system[cert.i], system[cert.j]
        assert not contains(G.structure, ideal_join(Ii, Ij), G.sub(gi, gj))
        # no bounded element can satisfy every constraint either
        for g in elements_in_box(G.structure, 2):
            assert not all(congruent(G, g, t, I) for I, t in system)


def _extra_groups():
    # the gallery, CHAIN3, and lex towers and product nests of height 1-30
    return list(GALLERY_GROUPS.values()) + [CHAIN3] + tall_groups(30)


def test_strong_solver_fuzz_consistent_with_classical():
    from conftest import random_group
    from lgroup import is_strongly_semisimple

    rng = random.Random(314)
    randoms = (random_group(rng, max_atoms=4) for _ in range(150))
    for G in itertools.chain(randoms, _extra_groups()):
        ideals = some_ideals(rng, G)
        system = [
            (rng.choice(ideals), random_element(rng, G.structure, 2))
            for _ in range(rng.randint(1, 3))
        ]
        result = strong_patch(G, system)
        classical = keimel_patch(G, system)
        strongly, _ = is_strongly_semisimple(G)
        # the first failing pair and maximal ideal, by comparing ideals
        failure = max_hypothesis_failure(G, system)
        if result.solution is not None:
            assert strongly and failure is None
            assert classical.solution == result.solution
            assert primes_agree(G, system, result.solution)
        elif isinstance(result.certificate, MaxHypothesisViolated):
            c = result.certificate
            assert (c.i, c.j, c.maximal) == failure
            (Ii, gi), (Ij, gj) = system[c.i], system[c.j]
            assert ideal_leq(ideal_join(Ii, Ij), c.maximal)
            assert not contains(G.structure, c.maximal, G.sub(gi, gj))
            # the stronger pairwise hypothesis must fail as well
            assert classical.solution is None
        else:
            assert not strongly and failure is None
            cert = result.certificate
            assert isinstance(cert, NotStronglySemisimple)
            assert cert.keimel_hypothesis_holds == (classical.solution is not None)


def _check_zero_set(G, gens, targets):
    # the certificate, solution and uniqueness against the overlap loop by
    # quotient evaluation, the agreement loop and the covering with the
    # radical check
    from lgroup import is_strongly_semisimple

    result = zero_set_patch(G, gens, targets)
    failure = zero_set_overlap_failure(G, gens, targets)
    if result.solution is not None:
        assert failure is None
        assert zero_sets_agree(G, gens, targets, result.solution)
        assert result.unique == unique_by_cover(G, gens)
        return
    c = result.certificate
    if isinstance(c, IncompatibleOnZeroSets):
        assert (c.i, c.j, c.maximal) == failure
    else:
        assert failure is None and isinstance(c, NotStronglySemisimple)
        assert not is_strongly_semisimple(G)[0]


def test_zero_set_solver_fuzz_on_strongly_semisimple_instances():
    from conftest import random_group
    from lgroup import is_strongly_semisimple

    rng = random.Random(2718)
    for _ in range(150):
        G = random_group(rng, max_atoms=4)
        if not is_strongly_semisimple(G)[0]:
            continue
        n = rng.randint(0, 3)
        gens = [random_element(rng, G.structure, 2) for _ in range(n)]
        targets = [random_element(rng, G.structure, 2) for _ in range(n)]
        _check_zero_set(G, gens, targets)
    # and on the extra groups, strongly semisimple or not, with generators
    # and targets that vanish and agree often
    for G in _extra_groups():
        for _ in range(3):
            n = rng.randint(0, 3)
            gens = [random_element(rng, G.structure, 1) for _ in range(n)]
            targets = [random_element(rng, G.structure, 1) for _ in range(n)]
            _check_zero_set(G, gens, targets)


def test_zero_set_solver_refuses_off_strongly_semisimple_instances():
    # the groups the fuzz above skips: a system that agrees on the zero
    # sets gets strong_patch's refusal, whose diagnostic matches the
    # classical solver on the principal system
    from conftest import random_group
    from lgroup import canonical_generator, is_strongly_semisimple, principal_ideal, radical

    rng = random.Random(2718)
    diagnostics = []
    for _ in range(150):
        G = random_group(rng, max_atoms=4)
        if is_strongly_semisimple(G)[0]:
            continue
        rad, everything = radical(G), all_ideal(G.structure)
        small = [I for I in enumerate_ideals(G).ideals if ideal_leq(I, rad)]
        n = rng.randint(2, 3)
        # generators of ideals inside the radical vanish at every maximal
        # ideal, and targets that differ by radical members agree there
        gens = [canonical_generator(G.structure, rng.choice(small)) for _ in range(n)]
        base = random_element(rng, G.structure, 2)
        targets = [
            G.add(base, riesz_split(G, random_element(rng, G.structure, 2), rad, everything)[0])
            for _ in range(n)
        ]
        cert = zero_set_patch(G, gens, targets).certificate
        assert isinstance(cert, NotStronglySemisimple)
        system = [(principal_ideal(G.structure, h), t) for h, t in zip(gens, targets)]
        assert cert.keimel_hypothesis_holds == keimel_patch(G, system).solved
        diagnostics.append(cert.keimel_hypothesis_holds)
    assert set(diagnostics) == {True, False}


@pytest.fixture
def sweeps(monkeypatch):
    """The systems that ``lgroup.crt._pairwise_failure`` sweeps while a
    test runs, one entry per call."""
    calls = []
    sweep = lgroup.crt._pairwise_failure

    def counted(G, system):
        calls.append(system)
        return sweep(G, system)

    monkeypatch.setattr(lgroup.crt, "_pairwise_failure", counted)
    return calls


def test_only_a_stuck_merge_sweeps_the_pairs(sweeps):
    # a solved system is never swept, by any of the three solvers
    system = [(A2_M1, (5, 7)), (A2_M2, (3, 4)), (A2_M1, (5, 1))]
    assert keimel_patch(A2, system).solution == (5, 4)
    assert strong_patch(A2, system).solution == (5, 4)
    assert zero_set_patch(C3, [(0, 0, 1), (1, 0, 0)], [(2, 4, 6), (0, 4, 1)]).solved
    # nor is one refused on a group that is not strongly semisimple, when
    # the fold passes its check
    z = zero_ideal(LEX.structure)
    cert = strong_patch(LEX, [(z, (0, 1)), (z, (0, 1))]).certificate
    assert cert.keimel_hypothesis_holds and cert.incompatible_pair is None
    assert sweeps == []
    # a refusal naming a pair sweeps once
    cert = keimel_patch(A2, STUCK_AT_2).certificate
    assert isinstance(cert, Incompatible) and (cert.i, cert.j) == (0, 3)
    assert len(sweeps) == 1
    cert = strong_patch(LEX, [(z, (0, 0)), (z, (0, 1))]).certificate
    assert cert.incompatible_pair == (0, 1)
    assert len(sweeps) == 2
    cert = zero_set_patch(LEX2, LEX2_GENERATORS, LEX2_TARGETS).certificate
    assert isinstance(cert, NotStronglySemisimple) and cert.incompatible_pair == (0, 3)
    assert len(sweeps) == 3


def _oracle_systems(rng, G):
    """The empty system, two single constraints, and eight systems of two
    to six constraints around a common base, half of them with one
    target moved by a random element or by a member of the radical."""
    s, everything = G.structure, all_ideal(G.structure)
    ideals, rad = some_ideals(rng, G), radical(G)
    yield []
    for _ in range(2):
        yield [(rng.choice(ideals), random_element(rng, s, 2))]
    for _ in range(8):
        base = random_element(rng, s, 2)
        system = []
        for _ in range(rng.randint(2, 6)):
            I = rng.choice(ideals)
            inside, _ = riesz_split(G, random_element(rng, s, 2), I, everything)
            system.append((I, G.add(base, inside)))
        if rng.random() < 0.5:
            k, move = rng.randrange(len(system)), random_element(rng, s, 1)
            if rng.random() < 0.5:
                move, _ = riesz_split(G, move, rad, everything)
            system[k] = (system[k][0], G.add(system[k][1], move))
        yield system


def test_solvers_agree_with_the_sweep_first_solvers():
    # every field of every result: solution, unique and the certificates
    rng = random.Random(1313)
    seen = set()

    def check(result, expected):
        assert result == expected
        cert = result.certificate
        seen.add((type(cert).__name__, getattr(cert, "keimel_hypothesis_holds", result.unique)))

    for G in ORACLE_GROUPS:
        for system in _oracle_systems(rng, G):
            check(keimel_patch(G, system), patch_by_sweep(G, system))
            check(strong_patch(G, system), strong_patch_by_sweep(G, system))
            gens = [random_element(rng, G.structure, 1) for _ in system]
            targets = [t for _, t in system]
            check(zero_set_patch(G, gens, targets), zero_set_patch_by_sweep(G, gens, targets))
    # every outcome occurs: a solution, unique or not, and each refusal,
    # with the classical hypothesis holding or not
    assert seen == {
        ("NoneType", False), ("NoneType", True), ("Incompatible", False),
        ("MaxHypothesisViolated", False), ("IncompatibleOnZeroSets", False),
        ("NotStronglySemisimple", False), ("NotStronglySemisimple", True),
    }
    # where a forward merge gets stuck at step 2, the first pair, (0, 3), is named
    for G, system in ((A2, STUCK_AT_2), (LEX2, LEX2_SYSTEM)):
        check(keimel_patch(G, system), patch_by_sweep(G, system))
        check(strong_patch(G, system), strong_patch_by_sweep(G, system))
    check(
        zero_set_patch(LEX2, LEX2_GENERATORS, LEX2_TARGETS),
        zero_set_patch_by_sweep(LEX2, LEX2_GENERATORS, LEX2_TARGETS),
    )
    assert keimel_patch(A2, STUCK_AT_2).certificate.j == 3
    assert strong_patch(LEX2, LEX2_SYSTEM).certificate.incompatible_pair == (0, 3)


def _small_systems(rng, G):
    """Systems of 0 to 4 constraints, three of each size: targets around a
    common base, each moved inside its ideal by the reference split, and
    in one of the three one target moved by a random element, which
    usually breaks compatibility."""
    s, whole = G.structure, all_ideal_by_walk(G.structure)
    ideals = some_ideals(rng, G)
    for n in range(5):
        for moved in (False, False, True):
            base = random_element(rng, s, 2)
            system = []
            for _ in range(n):
                I = rng.choice(ideals)
                inside = split_by_walk(s, random_element(rng, s, 2), I, whole)
                system.append((I, G.add(base, inside)))
            if moved and system:
                k = rng.randrange(n)
                system[k] = (system[k][0], G.add(system[k][1], random_element(rng, s, 1)))
            yield system


def test_solvers_match_the_forward_merge_on_small_systems():
    # the same solution, or the same certificate, as the sweep and the
    # forward merge, which share no kernel with the fold
    rng = random.Random(2201)
    seen = set()
    groups = ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(2200, 2220)]
    for G in groups:
        for system in _small_systems(rng, G):
            expected = patch_by_sweep(G, system)
            assert keimel_patch(G, system) == expected
            assert strong_patch(G, system) == strong_patch_by_sweep(G, system)
            seen.add((len(system), expected.solved))
    # every size is solved, and every size from 2 on is refused
    assert seen == {(n, True) for n in range(5)} | {(n, False) for n in range(2, 5)}


def test_riesz_split_refuses_exactly_outside_the_join():
    rng = random.Random(1314)
    for G in ORACLE_GROUPS:
        ideals = some_ideals(rng, G)
        for _ in range(10):
            I, J = rng.choice(ideals), rng.choice(ideals)
            d = random_element(rng, G.structure, 1)
            if contains(G.structure, ideal_join(I, J), d):
                a, b = riesz_split(G, d, I, J)
                assert G.add(a, b) == d
            else:
                with pytest.raises(NotInJoin):
                    riesz_split(G, d, I, J)


def test_strong_names_its_maximal_ideal_without_a_spectrum_call():
    # the targets differ at top position 0, where both ideals are proper
    G = validate_unital_group(prod(Z, Z), (3, 5))
    system = [(zero_ideal(G), (0, 0)), (A2_M1, (1, 0))]
    calls = compute_spectrum.cache_info()
    result = strong_patch(G, system)
    after = compute_spectrum.cache_info()
    assert (after.hits, after.misses) == (calls.hits, calls.misses)
    assert result.certificate == MaxHypothesisViolated(0, 1, A2_M1)
    assert A2_M1 == compute_spectrum(G).max_ideals()[0]


def test_hypothesis_check_and_uniqueness_agree_with_their_walks():
    # the stored masks of the ideals against their canonical generators'
    # top integers, and of the principal ideals against the generators'
    rng = random.Random(1315)
    failures = passes = unique = 0
    groups = ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(1700, 1720)]
    for G in groups:
        for system in _oracle_systems(rng, G):
            found = lgroup.crt._max_failure(G, CongruenceSystem.of(system))
            assert found == max_failure_by_generators(G, system)
            failures += found is not None
            passes += found is None and len(system) > 1
            gens = [random_element(rng, G.structure, 1) for _ in system]
            targets = [G.zero()] * len(gens)
            result = zero_set_patch(G, gens, targets)
            if result.solved:
                assert result.unique is unique_by_top_values(G, gens)
                unique += result.unique
    assert failures > 50 and passes > 50 and unique > 20


def test_the_one_pass_hypothesis_check_still_names_the_first_pair():
    # constraint 0 pins top position 1, constraint 1 position 0 and
    # constraint 2 both: the pass first meets a disagreement at position 0
    # (constraints 1 and 2), but the first pair in certificate order is
    # (0, 2), at position 1
    G = validate_unital_group(prod(Z, Z, Z), (1, 1, 1))
    both = ProdIdeal((AtomIdeal(False), AtomIdeal(False), AtomIdeal(True)))
    system = [(M2, (0, 5, 0)), (M1, (3, 0, 0)), (both, (4, 6, 0))]
    assert lgroup.crt._max_failure(G, CongruenceSystem.of(system)) == (0, 2, 1)
    assert max_failure_by_generators(G, system) == (0, 2, 1)
    assert strong_patch(G, system).certificate == MaxHypothesisViolated(0, 2, M2)
    # agreeing where they overlap, the three pass, and the solution takes
    # each coordinate from the first constraint that pins it
    system[2] = (both, (3, 5, 9))
    assert lgroup.crt._max_failure(G, CongruenceSystem.of(system)) is None
    assert strong_patch(G, system).solution == (3, 5, 9)


def test_entries_answer_on_900_level_trees_and_a_failing_strong_patch_builds_no_spectrum():
    # in a fresh interpreter: the certificate's maximal ideal is the closed
    # form at its top position, so no spectrum is built for it; the primes
    # walk takes one frame per product level, so the spectrum's readers
    # answer too
    code = (
        "from lgroup import UnitalGroup, Z, compute_spectrum, lex, prod, principal_zero_set\n"
        "from lgroup import specialization_dot, spectrum_json, strong_patch, yosida_table\n"
        "from lgroup import zero_ideal, zero_set_patch\n"
        "from lgroup.yosida import top_index\n"
        "for level, k in ((lambda s: prod(Z, s), 900), (lex, 0)):\n"
        "    s, u, e = Z, 1, 1\n"
        "    for _ in range(900):\n"
        "        s, u, e = level(s), (1, u), (0, e) if k else (1, e)\n"
        "    G = UnitalGroup(s, u)\n"
        "    zero = G.zero()\n"
        "    cert = strong_patch(G, [(zero_ideal(G), zero), (zero_ideal(G), e)]).certificate\n"
        "    assert (cert.i, cert.j, top_index(s, cert.maximal)) == (0, 1, k)\n"
        "    assert zero_set_patch(G, [zero, zero], [zero, e]).certificate.maximal is cert.maximal\n"
        "    assert s._spectrum is None\n"
        "    space = compute_spectrum(G)\n"
        "    assert space.max_ideals()[k] is cert.maximal\n"
        "    assert len(spectrum_json(space)['primes']) == len(space) == 901\n"
        "    assert specialization_dot(space).count('doublecircle') == len(space.max_ideals())\n"
        "    assert yosida_table(G, u)[cert.maximal] == 1\n"
        "    assert cert.maximal in principal_zero_set(G, zero)\n"
        "print('ok')\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["ok"]
