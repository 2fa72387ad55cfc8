import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A2, C3, LEX, MIX, ORACLE_GROUPS, operands, random_element, random_group
from oracles import validate_by_four_walks, zero_by_walk
from lgroup import (
    AtomIdeal,
    GammaAlgebra,
    InternalInvariantViolation,
    LexIdeal,
    LGroupError,
    OutOfInterval,
    ShapeMismatch,
    add,
    join,
    laws,
    meet,
    radical,
    sub,
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


def test_a_kernel_disagreeing_with_check_element_raises_the_library_error(monkeypatch):
    # check_element rebound to accept anything: the kernel's verdict on a
    # malformed operand is then contradicted, which is a library fault
    import lgroup.mv

    monkeypatch.setattr(lgroup.mv, "check_element", lambda structure, value: None)
    for G, bad in ((A2, (1, "x")), (LEX, (0,)), (MIX, (1, (0, True)))):
        with pytest.raises(InternalInvariantViolation, match="disagree"):
            GammaAlgebra(G).validate(bad)


def test_chang_radical_is_the_infinitesimal_ideal():
    assert radical(LEX) == LexIdeal(AtomIdeal(True))
    assert laws.interval_algebra(LEX) == []


def test_clamp_and_odot_agree_with_a_walked_zero():
    # both read the stored zero; the references join with a zero built anew
    rng = random.Random(1414)
    for G in ORACLE_GROUPS:
        s, u, z = G.structure, G.unit, zero_by_walk(G.structure)
        alg = GammaAlgebra(G)
        for _ in range(10):
            x = random_element(rng, s, 3)
            assert alg.clamp(x) == join(s, z, meet(s, x, u))
            a, b = alg.clamp(x), alg.clamp(random_element(rng, s, 3))
            assert alg.odot(a, b) == join(s, z, sub(s, add(s, a, b), u))
