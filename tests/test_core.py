import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgroup
from conftest import (
    A2,
    CHAIN3,
    LEX,
    MIX,
    NODE_CLASSES,
    ORACLE_GROUPS,
    operands,
    seeded_tree_group,
)
from oracles import (
    add_by_walk,
    atom_count_by_walk,
    between_by_walk,
    check_element_by_walk,
    is_chain_by_walk,
    join_by_walk,
    leq_by_walk,
    meet_by_walk,
    neg_by_walk,
    sub_by_negation,
    sub_by_walk,
)
from lgroup import (
    Atom,
    AtomIdeal,
    GammaAlgebra,
    Lex,
    LexIdeal,
    NotAStrongUnit,
    Prod,
    ProdIdeal,
    ShapeMismatch,
    UnitalGroup,
    Z,
    absval,
    add,
    atom_count,
    check_element,
    elements_in_box,
    is_chain,
    join,
    leq,
    lex,
    lt,
    meet,
    neg,
    prod,
    scale,
    sub,
    unital_group_violations,
    validate_unital_group,
    zero,
)

GROUPS = {"a2": A2, "lex": LEX, "mix": MIX, "chain3": CHAIN3}
ATOM_ALL, ATOM_ZERO = AtomIdeal(True), AtomIdeal(False)


def elements(structure, bound=12):
    if isinstance(structure, Atom):
        return st.integers(-bound, bound)
    if isinstance(structure, Prod):
        return st.tuples(*(elements(c, bound) for c in structure.children))
    return st.tuples(st.integers(-bound, bound), elements(structure.bottom, bound))


def test_validate_atom():
    G = validate_unital_group(Z, 1)
    assert G.unit == 1


def test_validate_lex_unit():
    G = validate_unital_group(lex(Z), (1, 0))
    assert G.unit == (1, 0)


def test_lex_zero_top_is_not_a_strong_unit():
    with pytest.raises(NotAStrongUnit) as err:
        validate_unital_group(lex(Z), (0, 5))
    violation = err.value.violations[0]
    assert violation.path == ("top",)
    # independent bounded-multiple oracle: no multiple of (0, 5) reaches (1, 0)
    for n in range(1, 60):
        assert not leq(lex(Z), (1, 0), scale(lex(Z), n, (0, 5)))


def test_negative_unit_reported_as_non_positive():
    violations = unital_group_violations(prod(Z, Z), (1, -2))
    assert [v.kind for v in violations] == ["non-positive-unit"]
    assert violations[0].path == (1,)


def test_unit_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        validate_unital_group(prod(Z, Z), (1, 1, 1))
    violations = unital_group_violations(lex(Z), 3)
    assert violations[0].kind == "shape-mismatch"


def test_evaluate_meet_componentwise():
    assert A2.meet((2, 5), (3, 1)) == (2, 1)


def test_evaluate_abs_under_lex_order():
    assert LEX.abs((-1, 3)) == (1, -3)
    # oracle: |g| is the larger of g and -g under direct comparison
    g, ng = (-1, 3), (1, -3)
    assert leq(LEX.structure, g, ng) and not leq(LEX.structure, ng, g)


def test_leq_lex_dominant_component():
    assert leq(LEX.structure, (0, 100), (1, -100))


def test_leq_product_incomparable_pair():
    assert not A2.leq((1, 0), (0, 1))
    assert not A2.leq((0, 1), (1, 0))


def test_zero_below_unit_everywhere():
    for G in GROUPS.values():
        assert G.leq(G.zero(), G.unit)


def test_is_chain():
    assert is_chain(Z)
    assert is_chain(lex(lex(Z)))
    assert not is_chain(prod(Z, Z))
    # totality oracle on a bounded box for the nested chain
    box = list(elements_in_box(lex(lex(Z)), 1))
    for g in box:
        for h in box:
            assert leq(lex(lex(Z)), g, h) or leq(lex(lex(Z)), h, g)


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lattice_laws(name, data):
    G = GROUPS[name]
    e = elements(G.structure)
    g, h, k = data.draw(e), data.draw(e), data.draw(e)
    assert G.meet(g, h) == G.meet(h, g)
    assert G.join(g, h) == G.join(h, g)
    assert G.meet(G.meet(g, h), k) == G.meet(g, G.meet(h, k))
    assert G.join(G.join(g, h), k) == G.join(g, G.join(h, k))
    assert G.meet(g, g) == g and G.join(g, g) == g
    assert G.meet(g, G.join(g, h)) == g
    assert G.join(g, G.meet(g, h)) == g


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_translation_invariance(name, data):
    G = GROUPS[name]
    e = elements(G.structure)
    g, h, k = data.draw(e), data.draw(e), data.draw(e)
    assert G.add(g, G.meet(h, k)) == G.meet(G.add(g, h), G.add(g, k))
    assert G.add(g, G.join(h, k)) == G.join(G.add(g, h), G.add(g, k))


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_abs_properties(name, data):
    G = GROUPS[name]
    g = data.draw(elements(G.structure))
    assert G.leq(G.zero(), G.abs(g))
    assert (G.abs(g) == G.zero()) == (g == G.zero())


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_leq_is_a_partial_order(name, data):
    G = GROUPS[name]
    e = elements(G.structure)
    g, h, k = data.draw(e), data.draw(e), data.draw(e)
    assert G.leq(g, g)
    if G.leq(g, h) and G.leq(h, g):
        assert g == h
    if G.leq(g, h) and G.leq(h, k):
        assert G.leq(g, k)
    if is_chain(G.structure):
        assert G.leq(g, h) or G.leq(h, g)


def _top_magnitude_bound(structure, g):
    if isinstance(structure, Atom):
        return abs(g) + 1
    if isinstance(structure, Prod):
        return max(
            _top_magnitude_bound(c, p) for c, p in zip(structure.children, g)
        )
    return abs(g[0]) + 1


@pytest.mark.parametrize("name", sorted(GROUPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_unit_dominates_within_computed_bound(name, data):
    G = GROUPS[name]
    g = data.draw(elements(G.structure))
    n0 = _top_magnitude_bound(G.structure, g)
    assert G.leq(g, G.scale(n0, G.unit))


WALK_CASES = [(G, elements(G.structure)) for G in ORACLE_GROUPS]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_sub_is_addition_of_the_negation(data):
    G, e = data.draw(st.sampled_from(WALK_CASES))
    g, h = data.draw(e), data.draw(e)
    assert sub(G.structure, g, h) == sub_by_negation(G.structure, g, h)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_scale_is_repeated_addition(data):
    G, e = data.draw(st.sampled_from(WALK_CASES))
    g, n = data.draw(e), data.draw(st.integers(-6, 6))
    total = G.zero()
    for _ in range(abs(n)):
        total = G.add(total, g)
    assert scale(G.structure, n, g) == (total if n >= 0 else G.neg(total))


def test_elements_in_box_counts():
    assert len(list(elements_in_box(prod(Z, Z), 1))) == 9
    assert len(list(elements_in_box(lex(Z), 2))) == 25
    assert zero(MIX.structure) in list(elements_in_box(MIX.structure, 1))


def test_structures_render_without_recursion():
    def tower(height, level):
        s = Z
        for _ in range(height):
            s = lex(s) if level == "lex" else prod(Z, s)
        return s

    for level, opening in (("lex", "Lex("), ("prod", "Prod(Z, ")):
        # far deeper than the recursion limit: repr is a walk
        assert repr(tower(3000, level)) == opening * 3000 + "Z" + ")" * 3000
    assert repr(lex(prod(Z, lex(Z), prod(Z, Z)))) == "Lex(Prod(Z, Lex(Z), Prod(Z, Z)))"


@pytest.mark.parametrize("level", ["lex", "prod"])
def test_zero_answers_on_3000_level_trees(level):
    # far deeper than the recursion limit: each node stores its zero
    s = Z
    for _ in range(3000):
        s = lex(s) if level == "lex" else prod(Z, s)
    z = zero(s)
    for _ in range(3000):
        assert len(z) == 2 and z[0] == 0
        z = z[1]
    assert z == 0
    # the atom count and the chain flag are stored at construction too
    assert atom_count(s) == 3001
    assert is_chain(s) is (level == "lex")


@pytest.mark.parametrize(
    "build, path, message",
    [
        (lambda: prod(Z, 5), (1,), "expected a structure, got 5"),
        (lambda: prod(Z, None), (1,), "expected a structure, got None"),
        (lambda: lex("Z"), ("bottom",), "expected a structure, got 'Z'"),
        (lambda: Prod((lex(Z), Z, [Z])), (2,), "expected a structure, got [Z]"),
        (lambda: lex([Z]), ("bottom",), "expected a structure, got [Z]"),
        (lambda: Prod([Z, Z]), (), "expected a tuple of structures, got [Z, Z]"),
        (lambda: AtomIdeal("x"), (), "expected True or False, got 'x'"),
        (lambda: AtomIdeal([]), (), "expected True or False, got []"),
        (lambda: LexIdeal(Z), ("bottom",), "expected an ideal, got Z"),
        (lambda: LexIdeal(5), ("bottom",), "expected an ideal, got 5"),
        (lambda: LexIdeal([ATOM_ALL]), ("bottom",), "expected an ideal, got [all]"),
        (lambda: ProdIdeal((ATOM_ALL, Z)), (1,), "expected an ideal, got Z"),
        (lambda: ProdIdeal([ATOM_ALL, ATOM_ZERO]), (), "expected a tuple of ideals, got [all, zero]"),
    ],
    ids=[
        "int", "none", "string", "list", "list-bottom", "list-children", "ideal-string",
        "ideal-list", "ideal-structure-bottom", "ideal-int-bottom", "ideal-list-bottom",
        "ideal-structure-part", "ideal-list-parts",
    ],
)
def test_constructors_refuse_a_child_that_is_not_a_structure(build, path, message):
    # ideal constructors refuse what is not an ideal alike; nothing refused
    # is entered in an intern table
    tables = [len(cls._table) for cls in NODE_CLASSES]
    with pytest.raises(ShapeMismatch) as info:
        build()
    assert type(info.value) is ShapeMismatch and info.value.path == path
    assert str(info.value).endswith(f": {message}")
    assert [len(cls._table) for cls in NODE_CLASSES] == tables


def test_an_atom_ideal_field_equal_to_a_bool_finds_that_node_in_a_fresh_interpreter():
    # the two atom ideals are held from import, so 0 and 1 find them whatever
    # else is live, and never build a node whose field is not a bool
    code = (
        "from lgroup import AtomIdeal\n"
        "assert AtomIdeal(1).full is True and AtomIdeal(0).full is False\n"
        "assert AtomIdeal(1) is AtomIdeal(True) and AtomIdeal(0) is AtomIdeal(False)\n"
        "print('ok')\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["ok"]


def test_products_of_fewer_than_two_are_refused():
    for build in (lambda: Prod((Z,)), lambda: ProdIdeal((ATOM_ALL,)), lambda: ProdIdeal(())):
        with pytest.raises(ValueError, match="at least 2"):
            build()


# products whose children are one tree, which map its kernels in C
TWINS = [
    UnitalGroup(prod(lex(Z), lex(Z)), ((1, 0), (2, -1))),
    UnitalGroup(prod(*[lex(prod(Z, Z))] * 3), ((1, (0, 0)), (2, (1, -1)), (1, (3, 2)))),
]
# these, the oracle groups and 30 seeded random trees, with their operand
# strategies, well-formed and possibly malformed
KERNEL_CASES = st.sampled_from([
    (G, [operands(G.structure, G.unit, bad) for bad in (False, True)])
    for G in TWINS + ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(1500, 1530)]
])


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_element_kernels_agree_with_their_walks(data):
    G, (good, _) = data.draw(KERNEL_CASES)
    s = G.structure
    g, h = data.draw(good), data.draw(good)
    assert add(s, g, h) == add_by_walk(s, g, h)
    assert sub(s, g, h) == sub_by_walk(s, g, h)
    assert neg(s, g) == neg_by_walk(s, g)
    assert meet(s, g, h) == meet_by_walk(s, g, h)
    assert join(s, g, h) == join_by_walk(s, g, h)
    assert absval(s, g) == join_by_walk(s, g, neg_by_walk(s, g))
    assert leq(s, g, h) is leq_by_walk(s, g, h)
    assert lt(s, g, h) is (g != h and leq_by_walk(s, g, h))
    assert (atom_count(s), is_chain(s)) == (atom_count_by_walk(s), is_chain_by_walk(s))


def _raised(call, *args):
    try:
        call(*args)
    except ShapeMismatch as exc:
        return type(exc), exc.path, str(exc)
    return None


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_shape_and_interval_kernels_agree_with_their_walks(data):
    # operands drawn with True, int and tuple subclasses, wrong arities and
    # lex values that are not pairs at any position
    G, (_, maybe_bad) = data.draw(KERNEL_CASES)
    s, u = G.structure, G.unit
    x = data.draw(maybe_bad)
    shape_error = _raised(check_element_by_walk, s, x)
    assert _raised(check_element, s, x) == shape_error
    for low in (False, True):
        for high in (False, True):
            assert s._between(x, u, low, high) == between_by_walk(s, x, u, low, high)
    if shape_error is not None:
        # a shape error wins over OutOfInterval, wherever the order failed
        with pytest.raises(ShapeMismatch) as info:
            GammaAlgebra(G).validate(x)
        assert (type(info.value), info.value.path, str(info.value)) == shape_error


def test_the_first_kernel_read_builds_3000_level_trees():
    # in a fresh interpreter, where no node has kernels yet: the first read
    # builds those of every node below, children first, with an explicit
    # stack, and the later reads find them in the slots
    code = (
        "from lgroup import Z, all_ideal, lex, prod\n"
        "from lgroup.yosida import top_values\n"
        "for name, level in (('lex', lex), ('prod', lambda s: prod(Z, s))):\n"
        "    s = Z\n"
        "    for _ in range(3000):\n"
        "        s = level(s)\n"
        "    kernels = s._meet, s._shape\n"
        "    deep = s\n"
        "    while deep is not Z:\n"
        "        deep = deep.bottom if name == 'lex' else deep.children[1]\n"
        "        object.__getattribute__(deep, '_between'), object.__getattribute__(deep, '_split')\n"
        "    print(name, all_ideal(s)._width, len(top_values(s, s._zero)) if name == 'lex' else '-')\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["lex", "1", "1", "prod", "3001", "-"]


def test_kernels_answer_on_a_900_level_lex_tower():
    # in a fresh interpreter, as deep as the parser never goes: one frame
    # per level, as the recursive walks took
    code = (
        "from lgroup import GammaAlgebra, UnitalGroup, Z, add, lex, meet\n"
        "s, u = Z, 1\n"
        "for _ in range(900):\n"
        "    s, u = lex(s), (1, u)\n"
        "G = UnitalGroup(s, u)\n"
        "assert add(s, u, u)[0] == 2 and meet(s, u, G.zero()) == G.zero()\n"
        "assert GammaAlgebra(G).validate(u) is u\n"
        "print('ok')\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["ok"]
