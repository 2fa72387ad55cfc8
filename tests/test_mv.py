import random

import pytest

from conftest import A2, C3, LEX, MIX, random_element
from lgroup import (
    AtomIdeal,
    GammaAlgebra,
    LexIdeal,
    OutOfInterval,
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


def test_chang_radical_is_the_infinitesimal_ideal():
    assert radical(LEX) == LexIdeal(AtomIdeal(True))
    assert laws.interval_algebra(LEX) == []
