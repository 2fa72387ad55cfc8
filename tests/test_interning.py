"""Interned tree nodes and the value records.

Equal structure and ideal trees are one object, whether built through the
API or by the parser; equality is identity and the hash, stored at
construction, is ``hash(<fields tuple>)``, so no comparison or hash walks a
tree.  The records compare, hash and print by their fields.
"""

import copy
import gc
import pickle
import random
import sys
import threading
import weakref

import pytest

from conftest import NODE_CLASSES, random_structure, random_unit, tower_instance
from oracles import (
    add_by_walk,
    contains_by_walk,
    primes_by_walk,
    principal_by_walk,
    radical_by_walk,
    split_by_walk,
    top_values_by_walk,
)
from lgroup import (
    Atom,
    AtomIdeal,
    CongruenceSystem,
    ElementEntry,
    GammaAlgebra,
    IdealLattice,
    Incompatible,
    IncompatibleOnZeroSets,
    Instance,
    Lex,
    LexIdeal,
    MaxHypothesisViolated,
    NotStronglySemisimple,
    PatchResult,
    PatchTask,
    Prod,
    ProdIdeal,
    QuotientResult,
    SpectrumSpace,
    UnitalGroup,
    Violation,
    Z,
    ZeroSetTask,
    add,
    all_ideal,
    compute_spectrum,
    contains,
    enumerate_ideals,
    ideal_from_json,
    lex,
    loads_instance,
    principal_ideal,
    prod,
    quotient,
    radical,
    riesz_split,
    scale,
    structure_from_json,
    validate_unital_group,
    yosida_table,
    zero_ideal,
)
from lgroup.core import random_element
from lgroup.yosida import top_values


def _nodes():
    """One node of each class, built through the API."""
    s = prod(Z, lex(prod(Z, Z)))
    return [
        Z,
        s,
        s.children[1],
        AtomIdeal(True),
        ProdIdeal((AtomIdeal(False), LexIdeal(None))),
        LexIdeal(ProdIdeal((AtomIdeal(True), AtomIdeal(False)))),
    ]


def _fields(node) -> tuple:
    return tuple(getattr(node, name) for name in type(node).__slots__)


def test_equal_trees_from_the_api_and_the_parser_are_one_object():
    s = prod(Z, lex(prod(Z, Z)))
    assert Atom() is Z
    assert prod(Z, lex(prod(Z, Z))) is s
    assert Prod(children=(Z, Lex(bottom=prod(Z, Z)))) is s
    parsed = structure_from_json({"prod": ["Z", {"lex": {"prod": ["Z", "Z"]}}]})
    assert parsed is s
    I = ProdIdeal((AtomIdeal(False), LexIdeal(ProdIdeal((AtomIdeal(True), AtomIdeal(False))))))
    assert ideal_from_json(s, {"prod": ["zero", {"bottom": {"prod": ["all", "zero"]}}]}) is I
    assert ideal_from_json(s, "all") is all_ideal(s)


def test_hash_is_the_hash_of_the_fields_tuple():
    # the value the generated dataclass hash gave, so set and dict orders
    # stay as they were
    for node in _nodes():
        assert hash(node) == hash(_fields(node)), node
    assert hash(Z) == hash(())
    assert hash(lex(Z)) == hash((Z,))


def test_copy_deepcopy_and_pickle_return_the_same_object():
    for node in _nodes():
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node


def test_assigning_a_node_field_raises_attribute_error():
    for node, name in zip(_nodes(), ("x", "children", "bottom", "full", "parts", "inner")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    assert Prod((Z, Z)).children == (Z, Z)
    with pytest.raises(ValueError, match="at least 2 children"):
        Prod((Z,))


def _tables() -> dict:
    return {cls.__name__: len(cls._table) for cls in NODE_CLASSES}


def test_intern_tables_hold_only_live_nodes():
    gc.collect()
    before = _tables()
    for i in range(10_000):
        # distinct trees: a product nest of i % 60 + 2 levels with a lex
        # level every i % 7 + 2 levels, and a matching ideal
        s, I = Z, AtomIdeal(i % 2 == 0)
        for level in range(i % 60 + 2):
            if level % (i % 7 + 2):
                s, I = Prod((s, Z)), ProdIdeal((I, AtomIdeal(False)))
            else:
                s, I = Lex(s), LexIdeal(I)
    del s, I
    gc.collect()
    assert _tables() == before


def test_filled_slots_leave_equality_hash_repr_copy_and_pickle():
    s = prod(Z, lex(prod(Z, lex(Z))), lex(Z), lex(lex(Z)), Z)
    G = UnitalGroup(s, (1, (1, (2, (1, 0))), (1, 0), (1, (0, 0)), 4))
    assert (s._spectrum, s._radical) == (None, None)
    seen = (hash(s), repr(s), pickle.dumps(s), s._values(), s.__reduce__())
    compute_spectrum(G)
    radical(G)
    assert s._spectrum is not None and s._radical is not None
    assert (hash(s), repr(s), pickle.dumps(s), s._values(), s.__reduce__()) == seen
    assert s == prod(Z, lex(prod(Z, lex(Z))), lex(Z), lex(lex(Z)), Z) and s != lex(s)
    assert copy.copy(s) is s and copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    assert copy.deepcopy(G) == G and pickle.loads(pickle.dumps(G)) == G


def test_a_filled_group_slot_leaves_equality_hash_repr_copy_and_pickle():
    # a group stores its unit's top integers outside its fields
    s = prod(Z, lex(prod(Z, lex(Z))), lex(Z))
    G = UnitalGroup(s, (1, (2, (1, (1, 0))), (3, 0)))
    assert G._tops is None
    seen = (hash(G), repr(G), pickle.dumps(G), G._values(), G.__reduce__())
    yosida_table(G, G.unit)
    assert G._tops == (1, 2, 3)
    assert (hash(G), repr(G), pickle.dumps(G), G._values(), G.__reduce__()) == seen
    fresh = UnitalGroup(s, (1, (2, (1, (1, 0))), (3, 0)))
    assert G == fresh and hash(G) == hash(fresh) and fresh._tops is None
    for twin in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert twin == G and twin._tops is None
    assert repr(G) == "UnitalGroup(structure=Prod(Z, Lex(Prod(Z, Lex(Z))), Lex(Z)), unit=(1, (2, (1, (1, 0))), (3, 0)))"


def test_ideal_facts_leave_equality_hash_repr_copy_and_pickle():
    # an ideal node stores whether it is zero, where it is proper and its
    # width at construction, outside its fields
    parts = (AtomIdeal(False), LexIdeal(ProdIdeal((AtomIdeal(True), AtomIdeal(False)))),
             LexIdeal(None))
    I = ProdIdeal(parts)
    assert (I._zero, I._mask, I._width) == (False, 0b011, 3)
    assert I._values() == (parts,) and I.__reduce__() == (ProdIdeal, (parts,))
    assert hash(I) == hash((parts,)) and repr(I) == "(zero,bottom((all,zero)),all)"
    assert I == ProdIdeal(parts) and I != LexIdeal(I)
    assert copy.copy(I) is I and copy.deepcopy(I) is I
    data = pickle.dumps(I)
    assert pickle.loads(data) is I
    # unpickled once the node has died, it is built again with its facts
    del I
    gc.collect()
    assert (parts,) not in ProdIdeal._table
    again = pickle.loads(data)
    assert again.parts == parts and (again._zero, again._mask, again._width) == (False, 0b011, 3)


def test_stored_facts_die_with_their_trees():
    # the spectra and radicals of 1,000 distinct trees keep no node alive
    # once the trees and the spectrum cache are dropped
    compute_spectrum.cache_clear()
    gc.collect()
    before = _tables()
    for i in range(1000):
        s, unit = Z, 1
        for bit in bin(i + 1024)[3:]:  # ten levels spelling i
            s, unit = (Lex(s), (1, unit)) if bit == "1" else (Prod((s, Z)), (unit, 2))
        G = UnitalGroup(s, unit)
        assert len(compute_spectrum(G)) and radical(G) is s._radical
    del s, G
    compute_spectrum.cache_clear()
    gc.collect()
    assert _tables() == before


def test_a_node_dying_after_the_module_globals_are_cleared(monkeypatch):
    # at interpreter shutdown the module globals can be None before the
    # last nodes die; their callbacks must not look anything up there
    import lgroup.core

    errors = []
    monkeypatch.setattr(sys, "unraisablehook", errors.append)
    monkeypatch.setattr(lgroup.core, "_remove_dead_weakref", None)
    node = Prod((Z,) * 37 + (lex(lex(Z)),))
    fields = _fields(node)
    assert Prod._table[fields]() is node
    del node
    gc.collect()
    assert errors == []
    assert fields not in Prod._table


def test_threads_building_the_same_trees_get_one_object():
    def build(k):
        s = Z
        for level in range(k % 9 + 1):
            s = Lex(s) if (k + level) % 3 == 0 else Prod((Z,) * (k % 3 + 1) + (s,))
        return s

    # in each round 4 threads build the same 200 trees, which the round
    # before dropped, so that two of them race to enter one node
    results, split = [None] * 4, []
    step = threading.Barrier(4)

    def run(t):
        for _ in range(50):
            step.wait()
            results[t] = [build(k) for k in range(200)]
            if step.wait() == 0:
                split.extend(k for k in range(200) if len({id(r[k]) for r in results}) > 1)
            step.wait()
            results[t] = None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert split == []


def test_threads_filling_one_slot_store_equal_values():
    # 4 threads ask at once for the spectra and radicals of the same 40
    # fresh trees, each with its own unit; a slot filled twice must hold
    # the walk's values either way
    def tree(k):
        s, unit = Z, 1
        for level in range(k % 5 + 2):
            s, unit = (Lex(s), (1, unit)) if (k + level) % 2 else (Prod((Z, s)), (2, unit))
        return s, unit

    results, errors = [None] * 4, []
    step = threading.Barrier(4)

    def run(t):
        try:
            for _ in range(20):
                step.wait()
                groups = [UnitalGroup(s, scale(s, t + 1, u)) for s, u in map(tree, range(40))]
                results[t] = [(compute_spectrum(G).primes, radical(G)) for G in groups]
                if step.wait() == 0:
                    walks = [(primes_by_walk(G.structure)[0], radical_by_walk(G.structure)) for G in groups]
                    errors.extend(r for r in results if r != walks)
                step.wait()
                results[t] = None
                compute_spectrum.cache_clear()
        except Exception as exc:  # a failing thread fails the test
            errors.append(exc)
            step.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        step.abort()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def _fresh_tree(seed: int):
    """A seeded random tree under lex and product levels over a product of
    Z with a seed-sized width, which no other test builds, so that every
    node above that product is new; a unit of it and an element."""
    rng = random.Random(seed)
    s = Prod((random_structure(rng, 4, 3),) + (Z,) * (seed % 1000 + 50))
    for level in range(4):
        s = Lex(s) if level % 2 else Prod((Z, s, lex(Z)))
    return s, random_unit(rng, s), random_element(rng, s, 1)


def _kernel_answers(s, u, e):
    """What the kernels of s say of u, e and the ideal I that e generates,
    and what the walks say."""
    I = principal_ideal(s, e)
    G = UnitalGroup(s, u)
    got = (add(s, u, e), top_values(s, e), I, contains(s, I, u), riesz_split(G, e, zero_ideal(s), I)[0])
    walked = (
        add_by_walk(s, u, e),
        top_values_by_walk(s, e),
        principal_by_walk(s, e),
        contains_by_walk(s, I, u),
        split_by_walk(s, e, zero_ideal(s), I),
    )
    return got, walked


def test_threads_racing_on_a_first_kernel_read_get_kernels_that_agree_with_the_walks():
    # in each round 4 threads read the kernels of the same 10 fresh trees
    # at once, so that two of them race to build one node's
    results, errors = [None] * 4, []
    step = threading.Barrier(4)

    def run(t):
        try:
            for r in range(20):
                trees = [_fresh_tree(10 * r + k) for k in range(10)]
                step.wait()
                results[t] = [_kernel_answers(*tree) for tree in trees]
                step.wait()
                errors.extend(got for got, walked in results[t] if got != walked)
        except Exception as exc:  # a failing thread fails the test
            errors.append(exc)
            step.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        step.abort()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_a_tree_with_built_kernels_dies_without_the_cyclic_gc():
    # the kernels hold their children's kernels, never their own node, so
    # reference counting alone frees a tree once its last user drops it
    s, u, e = _fresh_tree(999)
    _kernel_answers(s, u, e)
    nodes = [weakref.ref(s), weakref.ref(s.bottom), weakref.ref(s.bottom.children[1])]
    gc.collect()
    gc.disable()
    try:
        del s
        assert [node() for node in nodes] == [None] * 3
    finally:
        gc.enable()


def _tall(height: int, ideal: bool):
    # a tree alternating lex and prod levels, built through the API
    node = AtomIdeal(True) if ideal else Z
    for level in range(height):
        if level % 2:
            node = LexIdeal(node) if ideal else Lex(node)
        else:
            node = ProdIdeal((AtomIdeal(False), node)) if ideal else Prod((Z, node))
    return node


@pytest.mark.parametrize("ideal", [False, True], ids=["structure", "ideal"])
def test_nodes_3000_levels_tall_hash_and_compare(ideal):
    a, b = _tall(3000, ideal), _tall(3000, ideal)
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a == b and a != _tall(2999, ideal)
    assert len({a, b, _tall(2999, ideal)}) == 2
    assert a is b


@pytest.mark.parametrize("level", ["lex", "prod"])
def test_spectra_of_separately_parsed_tall_groups(level):
    # two parses of one 399-level tree give one structure, so the spectrum
    # cache answers the second from the first without a deep comparison
    first = loads_instance(tower_instance(399, level)).group
    second = loads_instance(tower_instance(399, level)).group
    space = compute_spectrum(first)
    hits = compute_spectrum.cache_info().hits
    assert compute_spectrum(second) is space
    assert compute_spectrum.cache_info().hits == hits + 1
    assert len(space) == 400
    assert first is not second and first.structure is second.structure


LEX = validate_unital_group(lex(Z), (1, 0))
B0, B1 = LexIdeal(AtomIdeal(False)), LexIdeal(AtomIdeal(True))
GROUP = "UnitalGroup(structure=Lex(Z), unit=(1, 0))"

# (build, field names, repr); each row builds a fresh record every call
RECORDS = [
    (lambda: Violation("not-a-strong-unit", ("top",), "top value 0"),
     ("kind", "path", "message"),
     "Violation(kind='not-a-strong-unit', path=('top',), message='top value 0')"),
    (lambda: UnitalGroup(lex(Z), (1, 0)), ("structure", "unit"), GROUP),
    (lambda: IdealLattice(LEX, (B0, B1), (True, True), ((0, 0), (0, 1))),
     ("group", "ideals", "principal", "generators"),
     f"IdealLattice(group={GROUP}, ideals=(bottom(zero), bottom(all)), "
     "principal=(True, True), generators=((0, 0), (0, 1)))"),
    (lambda: QuotientResult(None, lex(Z), LexIdeal(None)),
     ("group", "structure", "divisor"),
     "QuotientResult(group=None, structure=Lex(Z), divisor=all)"),
    (lambda: SpectrumSpace(LEX, (B0, B1), (1, None)), ("group", "primes", "cover"),
     f"SpectrumSpace(group={GROUP}, primes=(bottom(zero), bottom(all)), cover=(1, None))"),
    (lambda: CongruenceSystem.of([(B0, (1, 2)), (B1, (0, 0))]), ("constraints",),
     "CongruenceSystem(constraints=((bottom(zero), (1, 2)), (bottom(all), (0, 0))))"),
    (lambda: Incompatible(0, 1, (0, 3), B0), ("i", "j", "difference", "join_ideal"),
     "Incompatible(i=0, j=1, difference=(0, 3), join_ideal=bottom(zero))"),
    (lambda: MaxHypothesisViolated(0, 1, B1), ("i", "j", "maximal"),
     "MaxHypothesisViolated(i=0, j=1, maximal=bottom(all))"),
    (lambda: NotStronglySemisimple(B0, False),
     ("witness", "keimel_hypothesis_holds", "incompatible_pair"),
     "NotStronglySemisimple(witness=bottom(zero), keimel_hypothesis_holds=False, "
     "incompatible_pair=None)"),
    (lambda: IncompatibleOnZeroSets(1, 2, B1), ("i", "j", "maximal"),
     "IncompatibleOnZeroSets(i=1, j=2, maximal=bottom(all))"),
    (lambda: PatchResult(), ("solution", "unique", "certificate"),
     "PatchResult(solution=None, unique=False, certificate=None)"),
    (lambda: GammaAlgebra(LEX), ("group",), f"GammaAlgebra(group={GROUP})"),
    (lambda: ElementEntry((1, 0), mv=True), ("value", "mv"),
     "ElementEntry(value=(1, 0), mv=True)"),
    (lambda: PatchTask("strong", (B0,), ((1, 2),)), ("mode", "ideals", "targets"),
     "PatchTask(mode='strong', ideals=(bottom(zero),), targets=((1, 2),))"),
    (lambda: ZeroSetTask(((0, 1),), ((1, 2),)), ("generators", "targets"),
     "ZeroSetTask(generators=((0, 1),), targets=((1, 2),))"),
    (lambda: Instance(LEX), ("group", "ideals", "elements", "task"),
     f"Instance(group={GROUP}, ideals={{}}, elements={{}}, task=None)"),
]


@pytest.mark.parametrize(
    "build, names, text", RECORDS, ids=[text.partition("(")[0] for *_, text in RECORDS]
)
def test_records_compare_hash_and_print_by_their_fields(build, names, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    fields = tuple(getattr(a, name) for name in names)
    assert type(a)(*fields) == a
    assert type(a)(**dict(zip(names, fields))) == a
    if type(a) is Instance:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)
        with pytest.raises(AttributeError):
            setattr(a, names[0], None)


def test_records_with_equal_fields_of_other_classes_differ():
    assert MaxHypothesisViolated(0, 1, B1) != IncompatibleOnZeroSets(0, 1, B1)
    assert UnitalGroup(lex(Z), (1, 0)) != UnitalGroup(lex(Z), (2, 0))


def test_record_defaults_and_fresh_instance_dicts():
    assert PatchResult() == PatchResult(None, False, None)
    assert PatchResult(unique=True).unique is True
    assert ElementEntry((1, 0)).mv is False
    assert NotStronglySemisimple(B0, True).incompatible_pair is None
    first, second = Instance(LEX), Instance(LEX)
    assert first.ideals == {} and first.elements == {} and first.task is None
    first.ideals["p"] = B0
    first.task = ZeroSetTask((), ())
    assert second.ideals == {} and second.task is None
    assert first.ideals is not second.ideals and first.elements is not second.elements
    with pytest.raises(TypeError):
        PatchResult(None, False, None, None)
    with pytest.raises(TypeError):
        Violation("kind", ())
    with pytest.raises(TypeError):
        ElementEntry((1, 0), colour=1)
    with pytest.raises(TypeError):
        PatchResult(None, solution=None)


def test_quotient_and_lattice_records_from_the_library():
    # the records the library builds equal those built by hand
    assert quotient(LEX, LexIdeal(None)) == QuotientResult(None, lex(Z), LexIdeal(None))
    assert compute_spectrum(LEX) == SpectrumSpace(LEX, (B0, B1), (1, None))
    lattice = enumerate_ideals(LEX)
    assert lattice == IdealLattice(
        LEX, (B0, B1, LexIdeal(None)), (True, True, True), ((0, 0), (0, 1), (1, 0))
    )
