import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A2,
    C3,
    CHAIN3,
    LEX,
    MIX,
    ORACLE_GROUPS,
    operands,
    random_element,
    random_group,
    seeded_tree_group,
)
from oracles import (
    add_by_walk,
    clamp_by_composition,
    join_by_walk,
    mv_join_by_composition,
    odot_by_composition,
    oplus_by_composition,
    sub_by_walk,
    validate_by_four_walks,
    zero_by_walk,
)
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
from lgroup.core import CACHE_SIZE

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


def test_odot_is_the_truncated_sum_on_trees_with_lex_nodes():
    # x - (x ^ (u - y)) against 0 v (x + y - u) by the recursive walks, on
    # seeded trees that hold a lex node, where the meet decides by the top
    # unless it ties; operands on the interval's bounds and inside it.  In
    # many pairs the join is neither 0 nor x + y - u, but mixes them
    rng = random.Random(2323)
    trees = mixed = 0
    for seed in range(2300, 2360):
        G = seeded_tree_group(seed)
        s, u = G.structure, G.unit
        if "Lex" not in repr(s):
            continue
        trees += 1
        alg = GammaAlgebra(G)
        z = zero_by_walk(s)
        box = [z, u] + [alg.clamp(random_element(rng, s, 3)) for _ in range(8)]
        for x in box:
            for y in box:
                expected = join_by_walk(s, z, sub_by_walk(s, add_by_walk(s, x, y), u))
                assert alg.odot(x, y) == expected
                mixed += expected != z and expected != add_by_walk(s, x, sub_by_walk(s, y, u))
    assert trees > 20 and mixed > 500


def _bool_twins(x):
    """x with one integer 0 or 1 replaced by the bool equal to it, each way
    there is: equal to x and hashing alike, yet no element."""
    if type(x) is int:
        return [bool(x)] if x in (0, 1) else []
    return [x[:i] + (twin,) + x[i + 1:] for i, part in enumerate(x) for twin in _bool_twins(part)]


def _lex_trees(seeds):
    return [G for G in map(seeded_tree_group, seeds) if "Lex" in repr(G.structure)]


def test_a_recorded_operand_leaves_every_refusal_standing():
    # each refusal holds on a fresh algebra and again once its operands,
    # the unit among them, have passed and been recorded
    rng = random.Random(2424)
    for G in (A2, C3, LEX, MIX, CHAIN3):
        alg = GammaAlgebra(G)
        passed = [G.unit, G.zero()] + [alg.clamp(random_element(rng, G.structure, 4)) for _ in range(6)]
        twins = [t for x in passed for t in _bool_twins(x)]
        assert twins and all(t in passed and hash(t) in map(hash, passed) for t in twins)
        outside = [G.add(G.unit, G.unit), G.neg(G.unit)]
        for recorded in (False, True):
            assert (len(alg._seen) > 0) == recorded
            for _ in range(2):
                with pytest.raises(ShapeMismatch):
                    alg.validate(None)
                for t in twins:
                    with pytest.raises(ShapeMismatch):
                        alg.validate(t)
                for x in outside:
                    with pytest.raises(OutOfInterval):
                        alg.validate(x)
                    with pytest.raises(OutOfInterval):
                        alg.oplus(x, G.unit)
            for x in passed:
                assert alg.validate(x) is x


def test_the_record_is_not_part_of_the_value():
    used, fresh = GammaAlgebra(MIX), GammaAlgebra(MIX)
    assert used.oplus(MIX.unit, MIX.zero()) == MIX.unit
    assert len(used._seen) == 2 and fresh._seen == {}
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    for twin in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
        assert twin == used and twin._seen == {} and twin._seen is not used._seen
    assert GammaAlgebra(group=MIX)._seen == {}


def test_the_record_stays_bounded_and_agrees_with_the_four_walks():
    # more passing operands than the record keeps, so it is cleared on the
    # way; each operand is met twice, with the bool twins and the values
    # outside the interval among them
    rng = random.Random(2425)
    trees = _lex_trees(range(2400, 2420))[:4]
    assert len(trees) == 4
    for G in trees:
        s = G.structure
        alg = GammaAlgebra(G)
        inside = [alg.clamp(random_element(rng, s, 3)) for _ in range(200)]
        pool = inside + [random_element(rng, s, 3) for _ in range(40)] + [None]
        pool += [t for x in inside[:20] for t in _bool_twins(x)]
        stream = pool + rng.sample(pool, len(pool))
        cleared = 0
        for x in stream:
            before = len(alg._seen)
            expected = _raised(lambda: validate_by_four_walks(alg, x))
            assert _raised(lambda: alg.validate(x)) == expected
            assert len(alg._seen) <= CACHE_SIZE
            cleared += len(alg._seen) < before
        assert cleared >= 2


def test_a_reused_operand_is_walked_once():
    # the interval check of the tree's root is rebound to count itself;
    # only validate checks the upper bound (leq checks the cone alone)
    rng = random.Random(2426)
    for G in _lex_trees(range(2400, 2420))[:4]:
        s = G.structure
        alg = GammaAlgebra(G)
        # six distinct objects: a clamp that saturates returns the unit's
        # part or the stored zero, so two clamps can be one object
        box = {}
        while len(box) < 6:
            x = alg.clamp(random_element(rng, s, 3))
            box.setdefault(id(x), x)
        box = list(box.values())
        between, walks = s._between, []

        def counted(x, hi, low, high):
            walks.append(high)
            return between(x, hi, low, high)

        object.__setattr__(s, "_between", counted)
        try:
            for _ in range(100):
                name = rng.choice(["oplus", "odot", "mv_join", "mv_meet", "leq", "neg"])
                x, y = rng.choice(box), rng.choice(box)
                getattr(alg, name)(x) if name == "neg" else getattr(alg, name)(x, y)
        finally:
            object.__setattr__(s, "_between", between)
        assert walks.count(True) == len({id(x) for x in box}) == 6


# the element kernels but the interval check, which validation calls
COUNTED = ("_add", "_sub", "_meet", "_join", "_trunc", "_tops")
# each binary operation with the one kernel that it calls
ONE_CALL = [("oplus", "_trunc"), ("odot", "_trunc"), ("mv_join", "_join"), ("mv_meet", "_meet")]


def test_each_interval_operation_is_one_kernel_call():
    # the root's element kernels are rebound to count their calls, as the
    # interval check is above; a child's kernel is called through its
    # parent's, never through a slot
    rng = random.Random(2427)
    for G in ORACLE_GROUPS + _lex_trees(range(2420, 2440))[:4]:
        s = G.structure
        alg = GammaAlgebra(G)
        box = [G.unit, G.zero()] + [alg.clamp(random_element(rng, s, 3)) for _ in range(3)]
        kernels, calls = {name: getattr(s, name) for name in COUNTED}, []

        def counting(name, kernel):
            def counted(*args):
                calls.append(name)
                return kernel(*args)

            return counted

        for name, kernel in kernels.items():
            object.__setattr__(s, name, counting(name, kernel))
        try:
            for x in box:
                for y in box:
                    for op, kernel in ONE_CALL:
                        calls.clear()
                        getattr(alg, op)(x, y)
                        assert calls == [kernel], op
                calls.clear()
                alg.neg(x)
                assert calls == ["_sub"]
                calls.clear()
                alg.clamp(random_element(rng, s, 4))
                assert calls == ["_trunc"]
        finally:
            for name, kernel in kernels.items():
                object.__setattr__(s, name, kernel)


def test_operations_equal_the_compositions_they_replaced():
    # oplus, odot, mv_join and clamp against the sums, differences and
    # meets they were composed of, on operands inside the interval, on its
    # bounds, outside it and malformed: equal values, or the same error
    rng = random.Random(2428)
    groups = ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(2440, 2480)]
    for G in groups:
        s, u = G.structure, G.unit
        alg = GammaAlgebra(G)
        raw = [random_element(rng, s, 4) for _ in range(5)] + [G.add(u, u), G.neg(u), "x"]
        box = [u, G.zero()] + [alg.clamp(random_element(rng, s, 3)) for _ in range(5)]
        for x in raw + box:
            assert _outcome(lambda: alg.clamp(x)) == _outcome(lambda: clamp_by_composition(alg, x))
        for x in box + raw[-3:]:
            for y in box + raw[-3:]:
                for op, composed in (
                    (alg.oplus, oplus_by_composition),
                    (alg.odot, odot_by_composition),
                    (alg.mv_join, mv_join_by_composition),
                ):
                    assert _outcome(lambda: op(x, y)) == _outcome(lambda: composed(alg, x, y))


def _outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return call()
    except LGroupError as exc:
        return type(exc), str(exc)
