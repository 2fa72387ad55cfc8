import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A2, C3, LEX, MIX, ORACLE_GROUPS, random_element, random_group
from oracles import validate_by_four_walks
from lgroup import (
    Atom,
    AtomIdeal,
    GammaAlgebra,
    LexIdeal,
    LGroupError,
    OutOfInterval,
    Prod,
    ShapeMismatch,
    laws,
    radical,
)

CHANG = GammaAlgebra(LEX)


def test_truncated_addition_below_the_unit():
    assert CHANG.oplus((0, 3), (0, 4)) == (0, 7)


def test_involution():
    assert CHANG.neg((0, 3)) == (1, -3)


def test_complement_saturates():
    rng = random.Random(11)
    for G in (A2, C3, LEX, MIX):
        alg = GammaAlgebra(G)
        for _ in range(50):
            x = alg.clamp(random_element(rng, G.structure, 5))
            assert alg.oplus(x, alg.neg(x)) == G.unit


def test_out_of_interval_rejected():
    with pytest.raises(OutOfInterval):
        CHANG.oplus((2, 0), (0, 0))
    with pytest.raises(OutOfInterval):
        CHANG.validate((0, -1))


def test_truncated_product_is_dual():
    rng = random.Random(12)
    for G in (A2, LEX, MIX):
        alg = GammaAlgebra(G)
        for _ in range(50):
            x = alg.clamp(random_element(rng, G.structure, 5))
            y = alg.clamp(random_element(rng, G.structure, 5))
            assert alg.odot(x, y) == alg.neg(alg.oplus(alg.neg(x), alg.neg(y)))


def test_axioms_on_samples():
    rng = random.Random(13)
    for G in (A2, C3, LEX, MIX):
        alg = GammaAlgebra(G)
        u = G.unit
        for _ in range(150):
            x = alg.clamp(random_element(rng, G.structure, 6))
            y = alg.clamp(random_element(rng, G.structure, 6))
            z = alg.clamp(random_element(rng, G.structure, 6))
            assert alg.oplus(x, y) == alg.oplus(y, x)
            assert alg.oplus(alg.oplus(x, y), z) == alg.oplus(x, alg.oplus(y, z))
            assert alg.neg(alg.neg(x)) == x
            assert alg.oplus(x, alg.neg(alg.clamp(G.zero()))) == alg.neg(
                alg.clamp(G.zero())
            )
            lhs = alg.oplus(alg.neg(alg.oplus(alg.neg(x), y)), y)
            rhs = alg.oplus(alg.neg(alg.oplus(alg.neg(y), x)), x)
            assert lhs == rhs
            assert alg.oplus(x, u) == u


def test_interval_order_matches_group_order():
    rng = random.Random(14)
    for G in (A2, LEX, MIX):
        alg = GammaAlgebra(G)
        for _ in range(80):
            x = alg.clamp(random_element(rng, G.structure, 5))
            y = alg.clamp(random_element(rng, G.structure, 5))
            assert alg.mv_join(x, y) == G.join(x, y)
            assert alg.mv_meet(x, y) == G.meet(x, y)
            assert alg.leq(x, y) == G.leq(x, y)


def _composed_join(alg, x, y):
    return alg.oplus(alg.neg(alg.oplus(alg.neg(x), y)), y)


def _composed_meet(alg, x, y):
    return alg.neg(_composed_join(alg, alg.neg(x), alg.neg(y)))


def test_lattice_operations_match_the_public_composition():
    rng = random.Random(15)
    for _ in range(60):
        G = random_group(rng)
        alg = GammaAlgebra(G)
        for _ in range(10):
            x = alg.clamp(random_element(rng, G.structure, 5))
            y = alg.clamp(random_element(rng, G.structure, 5))
            assert alg.mv_join(x, y) == _composed_join(alg, x, y)
            assert alg.mv_meet(x, y) == _composed_meet(alg, x, y)


def _raised(call):
    try:
        call()
    except LGroupError as exc:
        return type(exc), str(exc)
    return None


def test_bad_operands_raise_as_the_first_check_does():
    # every interval method validates its first operand, then its second:
    # a bad operand raises what validating it raises, the first bad one
    # wins, and the lattice operations raise as their public composition
    rng = random.Random(16)
    for G in (A2, C3, LEX, MIX):
        alg = GammaAlgebra(G)
        good = alg.clamp(random_element(rng, G.structure, 5))
        bad = [G.add(G.unit, G.unit), G.neg(G.unit), "not an element"]
        for b in bad:
            assert _raised(lambda: alg.neg(b)) == _raised(lambda: alg.validate(b))
        kinds = {_raised(lambda: alg.validate(b))[0] for b in bad}
        assert kinds == {OutOfInterval, ShapeMismatch}
        methods = [alg.oplus, alg.odot, alg.mv_join, alg.mv_meet, alg.leq]
        for method in methods:
            for b in bad:
                expected = _raised(lambda: alg.validate(b))
                assert _raised(lambda: method(b, good)) == expected, method.__name__
                assert _raised(lambda: method(good, b)) == expected, method.__name__
                for other in bad:
                    assert _raised(lambda: method(b, other)) == expected, method.__name__
        for b in bad:
            for x, y in ((b, good), (good, b), (b, bad[0])):
                assert _raised(lambda: alg.mv_join(x, y)) == _raised(lambda: _composed_join(alg, x, y))
                assert _raised(lambda: alg.mv_meet(x, y)) == _raised(lambda: _composed_meet(alg, x, y))


class Count(int):
    """An int subclass: it passes as an integer, as bool does not."""


Pair = namedtuple("Pair", "first second")

MALFORMED = st.sampled_from([True, False, None, "x", "ab", 1.0, [], [0, 0], ()])


def _near(bound):
    return st.integers(bound - 1, bound + 1)


def _integer(bound):
    n = st.one_of(_near(0), _near(bound), st.integers(min(0, bound) - 3, max(0, bound) + 3))
    return n.flatmap(lambda k: st.sampled_from([k, Count(k)]))


def _or_malformed(good, bad, malformed):
    if not malformed:
        return good
    return st.integers(0, 7).flatmap(lambda k: st.one_of(bad, MALFORMED) if k == 0 else good)


def operands(s, u, malformed):
    """Values about [0, u] in s: integers at, just inside and just outside
    each bound (a lex top tying with 0 or u's top included), int
    subclasses, namedtuples and, when ``malformed``, bad parts anywhere."""
    if isinstance(s, Atom):
        return _or_malformed(_integer(u), st.nothing(), malformed)
    if isinstance(s, Prod):
        parts = st.tuples(*map(operands, s.children, u, [malformed] * len(u)))
        good = parts.flatmap(lambda t: st.sampled_from([t, Pair(*t)] if len(t) == 2 else [t]))
        bad = parts.flatmap(lambda t: st.sampled_from([t[:-1], t + (0,), list(t)]))
        return _or_malformed(good, bad, malformed)
    top = _integer(u[0])
    pair = st.tuples(top, operands(s.bottom, u[1], malformed))
    good = pair.flatmap(lambda t: st.sampled_from([t, Pair(*t)]))
    bad = st.one_of(
        pair.map(lambda t: t[:1]),
        pair.map(lambda t: t + (0,)),
        st.tuples(MALFORMED, operands(s.bottom, u[1], malformed)),
    )
    return _or_malformed(good, bad, malformed)


# each group with its operand strategies, well-formed and possibly malformed
ORACLE_CASES = [(G, [operands(G.structure, G.unit, bad) for bad in (False, True)]) for G in ORACLE_GROUPS]


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_validate_agrees_with_the_four_walks(data):
    G, strategies = data.draw(st.sampled_from(ORACLE_CASES))
    alg = GammaAlgebra(G)
    malformed = data.draw(st.booleans())
    x = data.draw(strategies[malformed])
    if not malformed and data.draw(st.booleans()):
        x = alg.clamp(x)  # inside the interval
    expected = _raised(lambda: validate_by_four_walks(alg, x))
    assert _raised(lambda: alg.validate(x)) == expected
    if expected is None:
        assert alg.validate(x) is x


def test_chang_radical_is_the_infinitesimal_ideal():
    assert radical(LEX) == LexIdeal(AtomIdeal(True))
    assert laws.interval_algebra(LEX) == []
