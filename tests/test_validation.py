"""Each public entry point validates each argument once, at the boundary.

The table pins the error a bad argument at a nested position raises; the
counting tests (``validation_walks`` in conftest) pin how many top-level
validation walks a call makes, so library code that re-validates what it
has already checked shows up as extra walks.
"""

import pytest

from conftest import MIX
from lgroup import (
    AtomIdeal,
    LexIdeal,
    ProdIdeal,
    ShapeMismatch,
    Z,
    add,
    canonical_generator,
    closure,
    compute_spectrum,
    congruent,
    enumerate_ideals,
    keimel_patch,
    prod,
    quotient,
    riesz_split,
    strong_patch,
    validate_unital_group,
    vanishing_locus,
    zero_ideal,
    zero_set_patch,
)

# MIX is prod(Z, lex(Z)): each bad value below is wrong only below the root
E0 = (0, (0, 0))
Z0 = zero_ideal(MIX)
LEX_BOTTOM_ALL = ProdIdeal((AtomIdeal(False), LexIdeal(AtomIdeal(True))))
BAD_BOTTOM = (0, (0, (1, 2)))
BAD_TOP = (0, (True, 0))
BAD_PAIR = (0, 5)
BAD_IDEAL_BOTTOM = ProdIdeal((AtomIdeal(True), LexIdeal(LexIdeal(None))))
BAD_IDEAL_CHILD = ProdIdeal((AtomIdeal(True), AtomIdeal(False)))

BOTTOM_MSG = "root[1].bottom: expected an integer, got (1, 2)"
TOP_MSG = "root[1].top: expected an integer, got True"
PAIR_MSG = "root[1]: expected a (top, bottom) pair, got 5"
IDEAL_BOTTOM_MSG = "root[1].bottom: expected an atom ideal, got all"
IDEAL_CHILD_MSG = "root[1]: expected a lex ideal, got zero"

BAD_ARGUMENTS = [
    ("keimel_patch ideal", lambda: keimel_patch(MIX, [(Z0, E0), (BAD_IDEAL_BOTTOM, E0)]),
     (1, "bottom"), IDEAL_BOTTOM_MSG),
    ("keimel_patch target", lambda: keimel_patch(MIX, [(Z0, E0), (Z0, BAD_TOP)]),
     (1, "top"), TOP_MSG),
    ("strong_patch ideal", lambda: strong_patch(MIX, [(Z0, E0), (BAD_IDEAL_CHILD, E0)]),
     (1,), IDEAL_CHILD_MSG),
    ("strong_patch target", lambda: strong_patch(MIX, [(Z0, BAD_BOTTOM), (Z0, E0)]),
     (1, "bottom"), BOTTOM_MSG),
    ("zero_set_patch generator", lambda: zero_set_patch(MIX, [E0, BAD_BOTTOM], [E0, E0]),
     (1, "bottom"), BOTTOM_MSG),
    ("zero_set_patch target", lambda: zero_set_patch(MIX, [E0, E0], [E0, BAD_PAIR]),
     (1,), PAIR_MSG),
    ("riesz_split element", lambda: riesz_split(MIX, BAD_TOP, Z0, Z0),
     (1, "top"), TOP_MSG),
    ("riesz_split first ideal", lambda: riesz_split(MIX, E0, BAD_IDEAL_BOTTOM, Z0),
     (1, "bottom"), IDEAL_BOTTOM_MSG),
    ("riesz_split second ideal", lambda: riesz_split(MIX, E0, Z0, BAD_IDEAL_CHILD),
     (1,), IDEAL_CHILD_MSG),
    ("congruent first", lambda: congruent(MIX, BAD_PAIR, E0, Z0),
     (1,), PAIR_MSG),
    ("congruent second", lambda: congruent(MIX, E0, BAD_BOTTOM, Z0),
     (1, "bottom"), BOTTOM_MSG),
    ("congruent ideal", lambda: congruent(MIX, E0, E0, BAD_IDEAL_BOTTOM),
     (1, "bottom"), IDEAL_BOTTOM_MSG),
    ("vanishing_locus element", lambda: vanishing_locus(MIX, [E0, BAD_TOP]),
     (1, "top"), TOP_MSG),
    ("project", lambda: quotient(MIX, LEX_BOTTOM_ALL).project(BAD_BOTTOM),
     (1, "bottom"), BOTTOM_MSG),
    ("project_ideal", lambda: quotient(MIX, LEX_BOTTOM_ALL).project_ideal(BAD_IDEAL_CHILD),
     (1,), IDEAL_CHILD_MSG),
]


@pytest.mark.parametrize(
    "call, path, message", [row[1:] for row in BAD_ARGUMENTS], ids=[row[0] for row in BAD_ARGUMENTS]
)
def test_bad_arguments_raise_at_the_boundary(call, path, message):
    with pytest.raises(ShapeMismatch) as info:
        call()
    assert type(info.value) is ShapeMismatch
    assert info.value.path == path
    assert str(info.value) == message


# a strongly semisimple group, so every solver runs its merge to the end
WIDE = validate_unital_group(prod(Z, prod(Z, Z), Z), (1, (2, 1), 3))
WIDE_IDEALS = enumerate_ideals(WIDE).ideals
BASE = (3, (-1, 2), 0)


def _ideals(n):
    """n ideals of WIDE, repeats allowed."""
    return [WIDE_IDEALS[(5 * k + 3) % len(WIDE_IDEALS)] for k in range(n)]


@pytest.mark.parametrize("solver", [keimel_patch, strong_patch], ids=["keimel", "strong"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_solvers_validate_each_constraint_once(solver, n, validation_walks):
    # each target is BASE plus a member of its ideal, so all pairs agree
    system = [(I, add(WIDE.structure, BASE, canonical_generator(WIDE, I))) for I in _ideals(n)]
    validation_walks.clear()
    assert solver(WIDE, system).solved
    assert (validation_walks["check_element"], validation_walks["check_ideal"]) == (n, n)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_zero_set_patch_validates_each_element_once(n, validation_walks):
    # each target is BASE on its generator's zero set
    generators = [canonical_generator(WIDE, I) for I in _ideals(n)]
    targets = [add(WIDE.structure, BASE, h) for h in generators]
    validation_walks.clear()
    assert zero_set_patch(WIDE, generators, targets).solved
    assert (validation_walks["check_element"], validation_walks["check_ideal"]) == (2 * n, 0)


QUOTIENT = quotient(MIX, LEX_BOTTOM_ALL)
ONE_WALK_PER_ARGUMENT = [
    ("riesz_split", lambda: riesz_split(MIX, (0, (0, 4)), LEX_BOTTOM_ALL, Z0), 1, 2),
    ("congruent", lambda: congruent(MIX, E0, (0, (0, 4)), LEX_BOTTOM_ALL), 2, 1),
    ("vanishing_locus", lambda: vanishing_locus(MIX, [E0, (0, (0, 4)), (1, (0, 0))]), 3, 0),
    ("project_ideal", lambda: QUOTIENT.project_ideal(Z0), 0, 1),
    ("closure", lambda: closure(MIX, compute_spectrum(MIX).primes[:2]), 0, 0),
]


@pytest.mark.parametrize(
    "call, elements, ideals",
    [row[1:] for row in ONE_WALK_PER_ARGUMENT],
    ids=[row[0] for row in ONE_WALK_PER_ARGUMENT],
)
def test_queries_validate_each_argument_once(call, elements, ideals, validation_walks):
    call()
    assert (validation_walks["check_element"], validation_walks["check_ideal"]) == (elements, ideals)
