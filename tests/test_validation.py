"""Each public entry point validates each argument once, at the boundary.

The table pins the error a bad argument at a nested position raises; the
counting tests (``validation_walks`` in conftest) pin how many top-level
validation walks a call makes, so library code that re-validates what it
has already checked shows up as extra walks.
"""

import random

import pytest

from conftest import MIX
from lgroup import (
    AtomIdeal,
    CongruenceSystem,
    GammaAlgebra,
    LGroupError,
    LexIdeal,
    ParseError,
    ProdIdeal,
    ShapeMismatch,
    SpectrumSpace,
    UnitalGroup,
    Z,
    absval,
    add,
    all_ideal,
    atom_count,
    canonical_generator,
    check_element,
    closure,
    compute_spectrum,
    congruent,
    contains,
    element_to_json,
    enumerate_ideals,
    holder_eval,
    ideal_count,
    ideal_join,
    ideal_leq,
    ideal_meet,
    ideal_of_locus,
    ideal_to_json,
    instance_to_json,
    is_all_ideal,
    is_chain,
    is_proper,
    is_semisimple,
    is_strongly_semisimple,
    is_zero_ideal,
    join,
    keimel_patch,
    leq,
    loads_instance,
    lt,
    meet,
    neg,
    principal_ideal,
    principal_zero_set,
    prod,
    quotient,
    radical,
    riesz_split,
    scale,
    specialization_dot,
    spectrum_json,
    strong_patch,
    structure_to_json,
    sub,
    validate_unital_group,
    vanishing_locus,
    yosida_table,
    zero,
    zero_ideal,
    zero_set_patch,
)
from lgroup.gallery import gallery_instance, gallery_json
from lgroup.laws import (
    archimedean_falsify,
    elements_in_box,
    ideal_lattice,
    random_element,
    riesz_splitting,
)
from lgroup.yosida import ForeignSpectrum

# MIX is prod(Z, lex(Z)): each bad value below but the last ideal is wrong
# only below the root
S = MIX.structure
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
    ("canonical_generator ideal", lambda: canonical_generator(MIX, BAD_IDEAL_CHILD),
     (1,), IDEAL_CHILD_MSG),
    ("canonical_generator root", lambda: canonical_generator(MIX, AtomIdeal(False)),
     (), "root: expected a 2-part product ideal, got zero"),
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
    ("GammaAlgebra.oplus", lambda: GammaAlgebra(MIX).oplus(E0, BAD_BOTTOM),
     (1, "bottom"), BOTTOM_MSG),
    ("GammaAlgebra.clamp", lambda: GammaAlgebra(MIX).clamp(BAD_BOTTOM),
     (1, "bottom"), BOTTOM_MSG),
    ("element_to_json", lambda: element_to_json(MIX.structure, BAD_TOP),
     (1, "top"), TOP_MSG),
    # the element arithmetic checks each operand in turn: the first
    # malformed one is named, though the second is malformed too
    ("add first", lambda: add(S, BAD_TOP, BAD_BOTTOM), (1, "top"), TOP_MSG),
    ("add second", lambda: add(S, E0, BAD_BOTTOM), (1, "bottom"), BOTTOM_MSG),
    ("sub first", lambda: sub(S, BAD_PAIR, E0), (1,), PAIR_MSG),
    ("sub second", lambda: sub(S, E0, BAD_TOP), (1, "top"), TOP_MSG),
    ("neg", lambda: neg(S, BAD_BOTTOM), (1, "bottom"), BOTTOM_MSG),
    ("scale", lambda: scale(S, 2, BAD_PAIR), (1,), PAIR_MSG),
    ("meet first", lambda: meet(S, BAD_TOP, E0), (1, "top"), TOP_MSG),
    ("meet second", lambda: meet(S, E0, BAD_PAIR), (1,), PAIR_MSG),
    ("join first", lambda: join(S, BAD_BOTTOM, BAD_TOP), (1, "bottom"), BOTTOM_MSG),
    ("join second", lambda: join(S, E0, BAD_BOTTOM), (1, "bottom"), BOTTOM_MSG),
    ("leq first", lambda: leq(S, BAD_PAIR, E0), (1,), PAIR_MSG),
    ("leq second", lambda: leq(S, E0, BAD_TOP), (1, "top"), TOP_MSG),
    # equal operands are compared only once both are checked
    ("lt equal", lambda: lt(S, BAD_TOP, BAD_TOP), (1, "top"), TOP_MSG),
    ("lt second", lambda: lt(S, E0, BAD_BOTTOM), (1, "bottom"), BOTTOM_MSG),
    ("absval", lambda: absval(S, BAD_TOP), (1, "top"), TOP_MSG),
    ("UnitalGroup.add", lambda: MIX.add(E0, BAD_TOP), (1, "top"), TOP_MSG),
    ("UnitalGroup.sub", lambda: MIX.sub(BAD_BOTTOM, E0), (1, "bottom"), BOTTOM_MSG),
    ("UnitalGroup.neg", lambda: MIX.neg(BAD_PAIR), (1,), PAIR_MSG),
    ("UnitalGroup.scale", lambda: MIX.scale(-1, BAD_TOP), (1, "top"), TOP_MSG),
    ("UnitalGroup.meet", lambda: MIX.meet(E0, BAD_BOTTOM), (1, "bottom"), BOTTOM_MSG),
    ("UnitalGroup.join", lambda: MIX.join(BAD_PAIR, E0), (1,), PAIR_MSG),
    ("UnitalGroup.abs", lambda: MIX.abs(BAD_BOTTOM), (1, "bottom"), BOTTOM_MSG),
    ("UnitalGroup.leq", lambda: MIX.leq(E0, BAD_PAIR), (1,), PAIR_MSG),
    ("UnitalGroup.lt", lambda: MIX.lt(BAD_TOP, BAD_TOP), (1, "top"), TOP_MSG),
]

# each entry that takes a unital group, called with a bare structure or
# with no group at all, and otherwise good arguments: one check in core
# refuses it before any other argument is read
SPACE = compute_spectrum(MIX)
M0 = SPACE.max_ideals()[0]
GROUP_ENTRIES = {
    "compute_spectrum": compute_spectrum,
    "radical": radical,
    "is_semisimple": is_semisimple,
    "is_strongly_semisimple": is_strongly_semisimple,
    "enumerate_ideals": enumerate_ideals,
    "quotient": lambda G: quotient(G, Z0),
    "congruent": lambda G: congruent(G, E0, E0, Z0),
    "keimel_patch": lambda G: keimel_patch(G, [(Z0, E0)]),
    "strong_patch": lambda G: strong_patch(G, [(Z0, E0)]),
    "zero_set_patch": lambda G: zero_set_patch(G, [E0], [E0]),
    "riesz_split": lambda G: riesz_split(G, E0, Z0, Z0),
    "yosida_table": lambda G: yosida_table(G, E0),
    "principal_zero_set": lambda G: principal_zero_set(G, E0),
    "holder_eval": lambda G: holder_eval(G, E0, M0),
    "GammaAlgebra": GammaAlgebra,
    "SpectrumSpace": lambda G: SpectrumSpace(G, SPACE.primes, SPACE.cover),
}
BAD_ARGUMENTS += [
    (f"{name} on {label}", lambda f=f, x=x: f(x), (), f"root: expected a unital group, got {x!r}")
    for name, f in GROUP_ENTRIES.items()
    for label, x in (("a bare structure", S), ("None", None), ("an int", 5))
]

# the law checks that read a group's structure before any other call does
BAD_ARGUMENTS += [
    (f"{f.__name__} on {label}", lambda f=f, x=x: f(x), (), f"root: expected a unital group, got {x!r}")
    for f in (archimedean_falsify, ideal_lattice, riesz_splitting)
    for label, x in (("a bare structure", S), ("None", None), ("an int", 5))
]

# the closed forms that take a structure or a unital group, and the
# element checks that take a structure, called with neither
STRUCTURE_ENTRIES = {
    "zero_ideal": zero_ideal,
    "all_ideal": all_ideal,
    "ideal_count": ideal_count,
    "principal_ideal": lambda s: principal_ideal(s, 0),
    "contains": lambda s: contains(s, AtomIdeal(True), 0),
    "canonical_generator": lambda s: canonical_generator(s, AtomIdeal(True)),
}
ELEMENT_ENTRIES = {
    "check_element": lambda s: check_element(s, 0),
    "add": lambda s: add(s, 1, 2),
    "UnitalGroup": lambda s: UnitalGroup(s, 1),
    "validate_unital_group": lambda s: validate_unital_group(s, 1),
}
BAD_ARGUMENTS += [
    (f"{name} on {label}", lambda f=f, x=x: f(x), (), f"root: expected {wanted}, got {x!r}")
    for entries, wanted in (
        (STRUCTURE_ENTRIES, "a structure or a unital group"),
        (ELEMENT_ENTRIES, "a structure"),
    )
    for name, f in entries.items()
    for label, x in (("None", None), ("an int", 5))
]

# the functions that take a spectrum or a unital group, given neither (a
# space of None is yosida_table's default)
SPACE_ENTRIES = {
    "spectrum_json": spectrum_json,
    "specialization_dot": specialization_dot,
    "closure": lambda x: closure(x, []),
    "yosida_table space": lambda x: yosida_table(MIX, E0, x),
    "principal_zero_set space": lambda x: principal_zero_set(MIX, E0, x),
}
BAD_ARGUMENTS += [
    (f"{name} on {label}", lambda f=f, x=x: f(x), (),
     f"root: expected a spectrum or a unital group, got {x!r}")
    for name, f in SPACE_ENTRIES.items()
    for label, x in (("an int", 5), ("a string", "p0"), ("a bare structure", S))
]

# a hand-built spectrum takes its primes and its covers as tuples
BAD_ARGUMENTS += [
    (f"SpectrumSpace {label}", call, (), message)
    for label, call, message in (
        ("primes in a list", lambda: SpectrumSpace(MIX, list(SPACE.primes), SPACE.cover),
         f"root: expected a tuple of primes, got {list(SPACE.primes)!r}"),
        ("primes of None", lambda: SpectrumSpace(MIX, None, SPACE.cover),
         "root: expected a tuple of primes, got None"),
        ("covers of an int", lambda: SpectrumSpace(MIX, SPACE.primes, 5),
         "root: expected a tuple of covers, got 5"),
        ("covers in a list", lambda: SpectrumSpace(MIX, SPACE.primes, list(SPACE.cover)),
         f"root: expected a tuple of covers, got {list(SPACE.cover)!r}"),
    )
]

# the O(1) reads of a structure's or an ideal's stored facts, given
# something else
BAD_ARGUMENTS += [
    (f"{f.__name__} on {label}", lambda f=f, x=x: f(x), (), f"root: expected {wanted}, got {x!r}")
    for fs, wanted in (
        ((zero, atom_count, is_chain), "a structure"),
        ((is_zero_ideal, is_all_ideal, is_proper), "an ideal"),
    )
    for f in fs
    for label, x in (("None", None), ("an int", 5), ("a string", "x"), ("a unital group", MIX))
]

# the ideal closed forms take two ideals of one structure: a kind or an
# arity that differs at a node both operands walk, at the root or below
# it, is refused at the root, naming both operands, in either order
ZERO, WHOLE = AtomIdeal(False), AtomIdeal(True)
P2, P3 = ProdIdeal((ZERO, ZERO)), ProdIdeal((ZERO, ZERO, ZERO))
UNLIKE_IDEALS = [
    ("products of two and three parts", P2, P3),
    ("a product and a lex ideal", P2, LexIdeal(ZERO)),
    ("an atom and a lex ideal", ZERO, LexIdeal(ZERO)),
    ("the whole atom and a whole product", WHOLE, ProdIdeal((WHOLE, WHOLE))),
    ("kinds that differ below the root",
     ProdIdeal((ZERO, P2)), ProdIdeal((ZERO, ProdIdeal((ZERO, LexIdeal(ZERO)))))),
    ("arities that differ below the root", ProdIdeal((ZERO, P3)), ProdIdeal((ZERO, P2, ZERO))),
    ("an ideal and an int", Z0, 5),
    ("two ints", 5, 5),
    ("an ideal and a structure", ZERO, S),
]
BAD_ARGUMENTS += [
    (f"{f.__name__} of {label}{order}", lambda f=f, I=I, J=J: f(I, J), (),
     f"root: expected ideals of one shape, got {I!r} and {J!r}")
    for f in (ideal_join, ideal_meet, ideal_leq)
    for label, first, second in UNLIKE_IDEALS
    for order, I, J in (("", first, second), (", swapped", second, first))
]

# the writers, given a value that they do not write
BAD_ARGUMENTS += [
    (f"{f.__name__} on {label}", lambda f=f, x=x: f(x), (), f"root: expected {wanted}, got {x!r}")
    for f, wanted in (
        (structure_to_json, "a structure"),
        (ideal_to_json, "an ideal"),
        (instance_to_json, "an instance"),
    )
    for label, x in (("an int", 5), ("None", None), ("a unital group", MIX))
]
BAD_ARGUMENTS += [
    ("ideal_to_json on a structure", lambda: ideal_to_json(S), (),
     f"root: expected an ideal, got {S!r}"),
    ("structure_to_json on an ideal", lambda: structure_to_json(Z0), (),
     f"root: expected a structure, got {Z0!r}"),
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


# a constraint that is not a pair: the system's builder names it, for the
# solvers too
NOT_PAIRS = [
    ("CongruenceSystem.of", lambda: CongruenceSystem.of([1]), 0),
    ("keimel_patch", lambda: keimel_patch(MIX, [1]), 0),
    ("strong_patch", lambda: strong_patch(MIX, [(Z0, E0), (Z0,)]), 1),
]


@pytest.mark.parametrize("call, k", [row[1:] for row in NOT_PAIRS], ids=[row[0] for row in NOT_PAIRS])
def test_a_constraint_that_is_not_a_pair_is_named(call, k):
    with pytest.raises(LGroupError) as info:
        call()
    assert type(info.value) is LGroupError
    assert str(info.value) == f"constraint {k}: expected an (ideal, target) pair"


@pytest.mark.parametrize("locus", [closure, ideal_of_locus])
@pytest.mark.parametrize("primes", [5, None, Z0], ids=["int", "none", "ideal"])
def test_a_set_of_primes_that_is_not_iterable_is_refused(locus, primes):
    with pytest.raises(LGroupError) as info:
        locus(MIX, primes)
    assert type(info.value) is LGroupError
    assert str(info.value) == f"expected an iterable of primes, got {primes!r}"


def test_a_group_serves_where_a_spectrum_goes():
    space = compute_spectrum(MIX)
    assert spectrum_json(MIX) == spectrum_json(space)
    assert specialization_dot(MIX) == specialization_dot(space)
    # a group is checked as its spectrum is: one on another tree is foreign
    for evaluate in (yosida_table, principal_zero_set):
        assert evaluate(MIX, (1, (2, 0)), MIX) == evaluate(MIX, (1, (2, 0)), space)
        with pytest.raises(ForeignSpectrum):
            evaluate(MIX, E0, WIDE)


# a strongly semisimple group, so every solver runs its fold and its check
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
MIX_TEXT = (
    '{"structure": {"prod": ["Z", {"lex": "Z"}]}, "unit": [1, [1, 0]],'
    ' "elements": {"a": [3, [7, -2]]}}'
)
ONE_WALK_PER_ARGUMENT = [
    ("riesz_split", lambda: riesz_split(MIX, (0, (0, 4)), LEX_BOTTOM_ALL, Z0), 1, 2),
    ("congruent", lambda: congruent(MIX, E0, (0, (0, 4)), LEX_BOTTOM_ALL), 2, 1),
    ("vanishing_locus", lambda: vanishing_locus(MIX, [E0, (0, (0, 4)), (1, (0, 0))]), 3, 0),
    ("project_ideal", lambda: QUOTIENT.project_ideal(Z0), 0, 1),
    ("closure", lambda: closure(MIX, compute_spectrum(MIX).primes[:2]), 0, 0),
    # the quotient's unit is the image of G's, produced by the walk, and a
    # parsed unit is checked as it is read: only the strong-unit check runs
    ("quotient", lambda: quotient(MIX, LEX_BOTTOM_ALL), 0, 1),
    ("loads_instance", lambda: loads_instance(MIX_TEXT), 0, 0),
    # interval membership is one walk of its own; check_element walks only
    # to name what is wrong with a malformed operand
    ("GammaAlgebra.oplus", lambda: GammaAlgebra(MIX).oplus(E0, (1, (0, 0))), 0, 0),
    # clamp takes any element of the group, whose shape is one walk
    ("GammaAlgebra.clamp", lambda: GammaAlgebra(MIX).clamp((2, (-1, 5))), 1, 0),
    # rendering reads the element itself, after its one shape walk
    ("element_to_json", lambda: element_to_json(MIX.structure, (2, (-1, 5))), 1, 0),
    # the element arithmetic: one shape walk per operand, then the kernels
    ("add", lambda: add(S, E0, (1, (0, 4))), 2, 0),
    ("sub", lambda: sub(S, E0, (1, (0, 4))), 2, 0),
    ("neg", lambda: neg(S, (1, (0, 4))), 1, 0),
    ("scale", lambda: scale(S, 3, (1, (0, 4))), 1, 0),
    ("meet", lambda: meet(S, E0, (1, (0, 4))), 2, 0),
    ("join", lambda: join(S, E0, (1, (0, 4))), 2, 0),
    ("leq", lambda: leq(S, E0, (1, (0, 4))), 2, 0),
    ("lt", lambda: lt(S, E0, E0), 2, 0),
    ("absval", lambda: absval(S, (1, (0, -4))), 1, 0),
    ("UnitalGroup.join", lambda: MIX.join(E0, (1, (0, 4))), 2, 0),
    ("UnitalGroup.abs", lambda: MIX.abs((1, (0, -4))), 1, 0),
    ("UnitalGroup.scale", lambda: MIX.scale(-2, (1, (0, 4))), 1, 0),
]


@pytest.mark.parametrize(
    "call, elements, ideals",
    [row[1:] for row in ONE_WALK_PER_ARGUMENT],
    ids=[row[0] for row in ONE_WALK_PER_ARGUMENT],
)
def test_queries_validate_each_argument_once(call, elements, ideals, validation_walks):
    call()
    assert (validation_walks["check_element"], validation_walks["check_ideal"]) == (elements, ideals)


def test_a_malformed_interval_operand_costs_one_walk(validation_walks):
    with pytest.raises(ShapeMismatch):
        GammaAlgebra(MIX).oplus(E0, BAD_BOTTOM)
    assert (validation_walks["check_element"], validation_walks["check_ideal"]) == (1, 0)


@pytest.mark.parametrize("n", [2.5, True, "2", None], ids=["float", "bool", "str", "none"])
def test_scale_refuses_a_multiplier_that_is_not_an_int(n):
    for call in (lambda: scale(S, n, E0), lambda: MIX.scale(n, E0)):
        with pytest.raises(LGroupError) as info:
            call()
        assert type(info.value) is LGroupError
        assert str(info.value) == f"expected an integer multiplier, got {n!r}"


@pytest.mark.parametrize("bound", [2.5, True, "x", None], ids=["float", "bool", "str", "none"])
def test_the_element_generators_refuse_a_bound_that_is_not_an_int(bound):
    for call in (lambda: elements_in_box(Z, bound), lambda: random_element(random.Random(0), S, bound)):
        with pytest.raises(LGroupError) as info:
            call()
        assert type(info.value) is LGroupError
        assert str(info.value) == f"expected an integer bound, got {bound!r}"


def test_a_mismatch_beneath_the_whole_lex_ideal_is_hidden():
    # LexIdeal(None) is one node for every lex structure, so the whole
    # ideal of lex(Z^2) is that of lex(Z), and meets like it
    assert ideal_join(LexIdeal(None), LexIdeal(ZERO)) is LexIdeal(None)
    assert ideal_meet(LexIdeal(None), LexIdeal(P2)) is LexIdeal(P2)
    assert ideal_leq(LexIdeal(P2), LexIdeal(None))


@pytest.mark.parametrize("text", [None, 5, ["{}"]], ids=["none", "int", "list"])
def test_loads_instance_refuses_what_is_not_text(text):
    with pytest.raises(ParseError) as info:
        loads_instance(text)
    assert info.value.path == "$"
    assert str(info.value) == f"$: expected JSON text, got {type(text).__name__}"


@pytest.mark.parametrize("name", ["nope", None, ["a2"]], ids=["unknown", "none", "list"])
@pytest.mark.parametrize("entry", [gallery_instance, gallery_json])
def test_an_unknown_gallery_name_is_refused_with_the_known_names(entry, name):
    with pytest.raises(LGroupError) as info:
        entry(name)
    assert type(info.value) is LGroupError
    assert str(info.value) == f"unknown gallery instance {name!r}; known: a2, c3, chang, lex, mix"
