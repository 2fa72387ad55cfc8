"""The ten kernels of product nodes: straight-line code compiled once per
arity up to ``core._STRAIGHT_ARITY`` children, loops beyond it and in a
``python -m lgroup`` process, each checked against the recursive walks of
``tests/oracles.py``; the loops at every arity from 2 to 17.  The patch
is also the congruence test, g = t mod I exactly when ``_patch(g, t, I)``
is g, and that verdict is checked against ``agree_by_walk``.  Every
kernel slot of a structure has its oracle in ``ORACLES``, which the
comparisons read, and a guard test fails on a slot that none compares."""

import operator
import random
import time
from types import SimpleNamespace

import pytest

import lgroup.core
from conftest import ORACLE_GROUPS, random_element, seeded_tree_group, some_ideals
from oracles import (
    add_by_walk,
    agree_by_walk,
    all_ideal_by_walk,
    between_by_walk,
    check_ideal_by_walk,
    join_by_walk,
    meet_by_walk,
    patch_by_walk,
    principal_by_walk,
    sub_by_walk,
    top_values_by_walk,
    trunc_by_walk,
    zero_by_walk,
)
from lgroup import AtomIdeal, LexIdeal, Prod, ProdIdeal, ShapeMismatch, UnitalGroup, Z, lex, prod
from lgroup.core import (
    _KERNELS,
    _STRAIGHT_ARITY,
    _Structure,
    _loop_kernels,
    _straight_factory,
    top_values,
)

# each kernel slot of a structure, with the oracle that the comparisons
# below read for it
ORACLES = {
    "_add": add_by_walk,
    "_sub": sub_by_walk,
    "_meet": meet_by_walk,
    "_join": join_by_walk,
    "_trunc": trunc_by_walk,
    "_between": between_by_walk,
    "_tops": top_values_by_walk,
    "_shape": check_ideal_by_walk,
    "_gen": principal_by_walk,
    "_patch": patch_by_walk,
    "_all": all_ideal_by_walk,
}
# the slots of a structure's stored facts that hold no kernel
FACTS = {
    "_zero", "_atoms", "_chain", "_ideal_count", "_spectrum", "_radical", "_zero_ideal", "_export",
}
# the four pairs of bounds of the truncated sum
FLAGS = [(low, high) for low in (False, True) for high in (False, True)]

# children of the mixed products: atoms, lex nodes and small products
POOL = [Z, lex(Z), prod(Z, Z), lex(prod(Z, lex(Z))), prod(lex(Z), Z, Z)]


def _strong(rng, s):
    """A seeded strong unit of s: tops in 1..3, anything below a lex top."""
    if s is Z:
        return rng.randint(1, 3)
    if type(s) is Prod:
        return tuple(_strong(rng, c) for c in s.children)
    return (rng.randint(1, 3), random_element(rng, s.bottom, 2))


def _products(rng, n):
    """A mixed product of n children, with an atom and a lex node among
    them, and the products of n atoms and of n copies of one lex node."""
    children = [Z, lex(Z)] + [rng.choice(POOL) for _ in range(n - 2)]
    rng.shuffle(children)
    return [prod(*children), prod(*[Z] * n), prod(*[lex(prod(Z, Z))] * n)]


def _cases():
    rng = random.Random(3000)
    products = [s for n in range(2, _STRAIGHT_ARITY + 2) for s in _products(rng, n)]
    groups = [UnitalGroup(s, _strong(rng, s)) for s in products]
    return ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(3000, 3020)] + groups


CASES = _cases()


def _malformed(rng, x):
    """x with one part swapped for a value of no shape, or cut short."""
    if not isinstance(x, tuple):
        return rng.choice([True, "1", None, (x,)])
    if rng.random() < 0.25:
        return x[:-1]
    i = rng.randrange(len(x))
    return (*x[:i], _malformed(rng, x[i]), *x[i + 1 :])


def _kernels(s, loops: bool):
    """s, whose slots hold its kernels; with ``loops``, a product's loop
    kernels built from its children's instead, as a one-shot process
    builds them at any arity, and its own whole ideal."""
    if not loops or type(s) is not Prod:
        return s
    *columns, _ = zip(*map(operator.attrgetter(*_KERNELS), s.children))
    kernels = _loop_kernels(len(s.children), *columns)
    assert len(kernels) == len(_KERNELS) - 1  # all but the whole ideal
    return SimpleNamespace(_all=s._all, **dict(zip(_KERNELS, kernels)))


def test_every_compiled_arity_is_covered():
    # by a mixed product and a one-tree one
    mixed, one_tree = set(), set()
    for G in CASES:
        if type(G.structure) is Prod:
            children = G.structure.children
            (one_tree if children.count(children[0]) == len(children) else mixed).add(len(children))
    assert set(range(2, _STRAIGHT_ARITY + 2)) <= mixed & one_tree


def _bounds(rng, s, box):
    """A bound u for the truncated sum with both flags, so 0 <= u: the
    zero, or an element of the box joined with 0 (a unit in the box is
    its own join with 0)."""
    return rng.choice([s._zero, join_by_walk(s, rng.choice(box), zero_by_walk(s))])


def _element_kernels_agree(loops: bool, cases=CASES):
    rng = random.Random(3001)
    for G in cases:
        s, u = G.structure, G.unit
        k = _kernels(s, loops)
        box = [u, s._zero] + [random_element(rng, s, 3) for _ in range(6)]
        for g in box:
            h = rng.choice(box)
            for name in ("_add", "_sub", "_meet", "_join"):
                assert getattr(k, name)(g, h) == ORACLES[name](s, g, h), name
            c = rng.choice(box)
            for low, high in FLAGS:
                top = _bounds(rng, s, box) if low and high else rng.choice(box)
                got = k._trunc(g, h, c, top, low, high)
                assert got == ORACLES["_trunc"](s, g, h, c, top, low, high), (low, high)
            tops = []
            k._tops(tops, g)
            assert tops == ORACLES["_tops"](s, g)
            for x in (g, _malformed(rng, g)):
                for low, high in FLAGS:
                    assert k._between(x, u, low, high) == ORACLES["_between"](s, x, u, low, high)


def test_element_kernels_agree_with_their_walks():
    _element_kernels_agree(loops=False)


def _raised(call, *args):
    try:
        call(*args)
    except ShapeMismatch:
        return True
    return False


def _wrong_part(rng, I):
    """I with one part of a product ideal swapped for one of another shape."""
    if not isinstance(I, ProdIdeal):
        return ProdIdeal((AtomIdeal(True), AtomIdeal(False)))
    i = rng.randrange(len(I.parts))
    other = LexIdeal(None) if isinstance(I.parts[i], AtomIdeal) else AtomIdeal(False)
    return ProdIdeal((*I.parts[:i], other, *I.parts[i + 1 :]))


def _ideal_kernels_agree(loops: bool, cases=CASES) -> set:
    """Compare the ideal kernels on ``cases``; return the (arity, verdict)
    pairs of the congruence tests made."""
    rng = random.Random(3002)
    verdicts = set()  # (arity, whether the congruence test held)
    for G in cases:
        s = G.structure
        k = _kernels(s, loops)
        arity = len(s.children) if type(s) is Prod else 0
        assert k._all is ORACLES["_all"](s)
        ideals = some_ideals(rng, G, count=4)
        ideals = ideals if len(ideals) <= 10 else rng.sample(ideals, 10)
        box = [G.unit, s._zero] + [random_element(rng, s, 1) for _ in range(4)]
        for g in box:
            assert k._gen(g) is ORACLES["_gen"](s, g)
        for I in ideals:
            assert k._shape(I) is True
            bad = _wrong_part(rng, I)
            assert k._shape(bad) is not _raised(ORACLES["_shape"], s, bad)
            for _ in range(3):
                g, t = rng.choice(box), rng.choice(box)
                patched = k._patch(g, t, I)
                assert patched == ORACLES["_patch"](s, g, t, I)
                # the patch is congruent to t, and g to it exactly when to t
                for x, y in ((g, t), (patched, t), (g, patched)):
                    verdict = k._patch(x, y, I) == x
                    assert verdict is agree_by_walk(s, I, x, y)
                    verdicts.add((arity, verdict))
    return verdicts


# every arity from 2 to one past the bound, with the congruence test both
# holding and failing
ARITY_VERDICTS = {(n, v) for n in range(2, _STRAIGHT_ARITY + 2) for v in (False, True)}


def test_ideal_kernels_agree_with_their_walks():
    assert ARITY_VERDICTS <= _ideal_kernels_agree(loops=False)


def test_loop_kernels_agree_with_their_walks_at_every_arity():
    # a python -m lgroup process builds every product with the loops
    _element_kernels_agree(loops=True)
    assert ARITY_VERDICTS <= _ideal_kernels_agree(loops=True)


@pytest.mark.parametrize("loops", [False, True], ids=["straight", "loops"])
def test_every_kernel_slot_is_compared_with_its_oracle(monkeypatch, loops):
    # a kernel slot that no comparison reads an oracle for fails here: a
    # new kernel needs an entry in ORACLES and a comparison that uses it
    kernels = set(_Structure.__slots__) - FACTS
    assert kernels == set(ORACLES) == set(_KERNELS)
    called = set()
    for name, oracle in list(ORACLES.items()):

        def counted(*args, name=name, oracle=oracle):
            called.add(name)
            return oracle(*args)

        monkeypatch.setitem(ORACLES, name, counted)
    # the first three products of the cases
    cases = [G for G in CASES if type(G.structure) is Prod][:3]
    _element_kernels_agree(loops, cases)
    _ideal_kernels_agree(loops, cases)
    assert called == kernels


def test_a_second_tree_of_a_seen_arity_compiles_nothing(monkeypatch):
    first = prod(Z, lex(Z), Z, prod(Z, Z), lex(lex(Z)))
    factory = _straight_factory(5)
    compiled = _straight_factory.cache_info()
    children = (lex(Z), prod(Z, lex(Z)), Z, lex(lex(lex(Z))), prod(Z, Z, Z))

    def refuse(*args, **kwargs):
        raise AssertionError("compiled again")

    monkeypatch.setattr(lgroup.core, "compile", refuse, raising=False)
    monkeypatch.setattr(lgroup.core, "exec", refuse, raising=False)
    second = prod(*children)
    assert second is not first and _straight_factory(5) is factory
    after = _straight_factory.cache_info()
    assert (after.hits, after.misses) == (compiled.hits + 2, compiled.misses)
    g = ((1, 2), (3, (4, 5)), 6, (7, (8, (9, 10))), (11, 12, 13))
    assert second._add(g, g) == add_by_walk(second, g, g)


def test_the_table_holds_only_arities_up_to_the_bound():
    rng = random.Random(3003)
    for n in range(2, 41):
        for s in _products(rng, n):
            tops = []
            s._tops(tops, s._zero)
            assert tops == top_values_by_walk(s, s._zero)
    # every arity from 2 to 40 was built, but only those up to the bound
    # reach the cache
    assert _straight_factory.cache_info().currsize == _STRAIGHT_ARITY - 1 == 15


def test_a_wide_product_builds_with_no_compile_and_answers():
    # a 1,000-child product, mixed or of one tree (Z^1000, and 1,000 copies
    # of lex(prod(Z, Z))): loops, so building it costs microseconds per
    # child where compiling its straight-line kernels would take most of a
    # second
    mixed = tuple([Z, lex(Z), prod(Z, Z), lex(prod(Z, Z))][i % 4] for i in range(999)) + (Z,)
    rng = random.Random(3004)
    for children in (mixed, (Z,) * 1000, (lex(prod(Z, Z)),) * 1000):
        compiled = _straight_factory.cache_info()
        started = time.perf_counter()
        s = prod(*children)
        assert time.perf_counter() - started < 0.05
        assert _straight_factory.cache_info() == compiled  # not even looked up
        g, h = random_element(rng, s, 3), random_element(rng, s, 3)
        assert s._add(g, h) == add_by_walk(s, g, h)
        assert s._sub(g, h) == sub_by_walk(s, g, h)
        assert s._meet(g, h) == meet_by_walk(s, g, h)
        assert s._join(g, h) == join_by_walk(s, g, h)
        for low, high in FLAGS:
            top = _bounds(rng, s, [h]) if low and high else h
            assert s._trunc(g, h, g, top, low, high) == trunc_by_walk(s, g, h, g, top, low, high)
        for x in (g, _malformed(rng, g)):
            for low in (False, True):
                for high in (False, True):
                    assert s._between(x, h, low, high) == between_by_walk(s, x, h, low, high)
        assert top_values(s, g) == top_values_by_walk(s, g)
        assert s._gen(g) is principal_by_walk(s, g)
        # zero, whole, and proper where g or h is 0
        for I in (s._gen(s._zero), s._all, s._gen(g), s._gen(h)):
            assert s._shape(I) is True
            assert s._patch(g, h, I) == patch_by_walk(s, g, h, I)
