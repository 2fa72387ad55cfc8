import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A2, CHAIN3, LEX, MIX, ORACLE_GROUPS
from oracles import sub_by_negation
from lgroup import (
    Atom,
    NotAStrongUnit,
    Prod,
    ShapeMismatch,
    Z,
    elements_in_box,
    is_chain,
    leq,
    lex,
    prod,
    scale,
    sub,
    unital_group_violations,
    validate_unital_group,
    zero,
)

GROUPS = {"a2": A2, "lex": LEX, "mix": MIX, "chain3": CHAIN3}


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
