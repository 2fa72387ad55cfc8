"""Earlier definitions that closed forms of the library replaced, kept as
test oracles; the tests check the closed forms against them.

Most are the quotient and ideal-comparison forms that the top-position
walks of ``lgroup.yosida`` replaced, written with ``quotient``,
``contains`` and ``ideal_leq`` over the spectrum.  Then come the
compositions that ``GammaAlgebra.validate`` and ``core.sub`` replaced by
one walk each, with those that the join and truncated-sum kernels
replaced in ``oplus``, ``odot``, ``mv_join``, ``clamp`` and ``core.join``,
and the three patch solvers as they were before the fold
became their compatibility test: a sweep over all pairs first, then the
old forward merge, which splits the difference between the running
solution and the next target across the meet of the processed ideals and
the next ideal, through ``split_by_walk`` and ``ideal_meet``, and
subtracts the processed-side part; it shares no kernel with the fold of
``lgroup.crt``, which calls the patch ``_patch``, also as its congruence
test.  Last come the walks over a tree whose results its node now
stores: its zero, primes and radical, its atom count and chain flag, and
the recursive element operations that its stored kernels replaced,
dispatching on the node class at every node.  Then the walks over an ideal whose results its node
now stores (whether it is zero or whole, and where it is proper), and
those that read them: the canonical JSON, the top position of a maximal
ideal, the strong solver's hypothesis check and the zero-set solver's
uniqueness; and the walks that a structure's stored zero, ideal count
and whole ideal replaced.  The radical and whole-ideal walks are those
that ``core._max_meet``, the meet of the maximal ideals at a mask of
top positions, replaced.  The order walk is what ``core.leq`` replaced
by the positive cone, the join walk what the stored join replaced, and
the truncated-sum walk composes the sum, difference, join and meet walks
as the kernel ``_trunc`` does in one; the
containment walk what ``ideal_leq`` replaced by the meet.  Last, the
walks that a structure's stored kernels replaced: the shape check of
``check_ideal``, membership, generation, the Riesz split (the three-way
split that a projection, and then the patch ``_patch``, replaced), the
patch and the congruence test as the compositions that the fold once
made of a difference, that split and a sum, and of a difference and
membership, and the top integers of ``yosida.top_values``.  Last, the
renderers that ``serialize`` replaced by one walk over the values: an
element's JSON by a walk of its structure, and a certificate's JSON by a
branch per certificate class naming its fields.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import lgroup.spectrum
from lgroup import (
    Atom,
    AtomIdeal,
    Incompatible,
    IncompatibleOnZeroSets,
    Lex,
    LexIdeal,
    LGroupError,
    MaxHypothesisViolated,
    NotMaximal,
    NotStronglySemisimple,
    OutOfInterval,
    PatchResult,
    Prod,
    ProdIdeal,
    ShapeMismatch,
    add,
    canonical_generator,
    check_element,
    check_ideal,
    compute_spectrum,
    contains,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_strongly_semisimple,
    is_zero_ideal,
    neg,
    principal_ideal,
    quotient,
    radical,
    zero,
)


def holder_eval_by_quotient(G, g, m) -> Fraction:
    """The value of g at m read off the quotient G/m, which must be a
    single integer coordinate."""
    check_element(G.structure, g)
    check_ideal(G.structure, m)
    q = quotient(G, m)
    if q.trivial or not isinstance(q.group.structure, Atom):
        raise NotMaximal(m)
    return Fraction(q.project(g), q.group.unit)


def zero_set_by_membership(G, g, space=None) -> frozenset:
    """The maximal ideals that contain g."""
    space = space or compute_spectrum(G)
    return frozenset(m for m in space.max_ideals() if contains(G.structure, m, g))


def max_hypothesis_failure(G, system):
    """The first (i, j, m) with m a maximal ideal above the join of the
    ideals of constraints i < j that does not hold their difference."""
    maxes = compute_spectrum(G).max_ideals()
    for (i, (Ii, gi)), (j, (Ij, gj)) in itertools.combinations(enumerate(system), 2):
        joined, diff = ideal_join(Ii, Ij), G.sub(gi, gj)
        for m in maxes:
            if ideal_leq(joined, m) and not contains(G.structure, m, diff):
                return i, j, m
    return None


def zero_set_overlap_failure(G, generators, targets):
    """The first (i, j, m) with m in the zero sets of generators i < j
    where the targets take different values, by quotient evaluation."""
    space = compute_spectrum(G)
    zsets = [zero_set_by_membership(G, h, space) for h in generators]
    for i, j in itertools.combinations(range(len(zsets)), 2):
        for m in sorted(zsets[i] & zsets[j], key=space.index):
            ti = holder_eval_by_quotient(G, targets[i], m)
            if ti != holder_eval_by_quotient(G, targets[j], m):
                return i, j, m
    return None


def primes_agree(G, system, g) -> bool:
    """g matches each target at every prime above the target's ideal."""
    primes = compute_spectrum(G).primes
    return all(
        contains(G.structure, p, G.sub(g, gi))
        for I, gi in system
        for p in primes
        if ideal_leq(I, p)
    )


def zero_sets_agree(G, generators, targets, g) -> bool:
    """g takes each target's value on the zero set of its generator."""
    return all(
        holder_eval_by_quotient(G, g, m) == holder_eval_by_quotient(G, t, m)
        for h, t in zip(generators, targets)
        for m in zero_set_by_membership(G, h)
    )


def unique_by_cover(G, generators) -> bool:
    """The zero sets cover the maximal spectrum; a covering solution is
    unique only because the radical is trivial, which is checked too."""
    zsets = [zero_set_by_membership(G, h) for h in generators]
    covered = frozenset().union(*zsets) if zsets else frozenset()
    unique = covered == frozenset(compute_spectrum(G).max_ideals())
    assert not unique or is_zero_ideal(radical(G))
    return unique


def validate_by_four_walks(alg, x):
    """``alg.validate(x)`` as the shape walk, a fresh zero and two
    comparisons."""
    s = alg.group.structure
    check_element_by_walk(s, x)
    if not (leq_by_walk(s, zero_by_walk(s), x) and leq_by_walk(s, x, alg.group.unit)):
        raise OutOfInterval(f"{x!r} is not between 0 and the unit")
    return x


def sub_by_negation(structure, g, h):
    """g - h as g plus the negation of h."""
    return add(structure, g, neg(structure, h))


def oplus_by_composition(alg, x, y):
    """``alg.oplus`` as the validation, a sum and a meet with u."""
    x, y = alg.validate(x), alg.validate(y)
    s = alg.group.structure
    return s._meet(alg.group.unit, s._add(x, y))


def odot_by_composition(alg, x, y):
    """``alg.odot``, 0 v (x + y - u), as x - (x ^ (u - y)) by a - (b ^ c)
    = (a - b) v (a - c): the validation and three walks."""
    x, y = alg.validate(x), alg.validate(y)
    s = alg.group.structure
    return s._sub(x, s._meet(x, s._sub(alg.group.unit, y)))


def mv_join_by_composition(alg, x, y):
    """``alg.mv_join`` as the validation and x + y - (x ^ y)."""
    x, y = alg.validate(x), alg.validate(y)
    s = alg.group.structure
    return join_by_sum(s, x, y)


def clamp_by_composition(alg, x):
    """``alg.clamp`` as the shape walk and 0 v m for m = x ^ u, which is
    m - (m ^ 0)."""
    s = alg.group.structure
    check_element(s, x)
    m = s._meet(x, alg.group.unit)
    return s._sub(m, s._meet(m, s._zero))


def join_by_sum(structure, g, h):
    """g v h = g + h - (g ^ h), three walks of the stored kernels."""
    return structure._sub(structure._add(g, h), structure._meet(g, h))


def patch_by_sweep(G, system) -> PatchResult:
    """``keimel_patch``: the first pair i < j whose targets differ outside
    the join of their ideals, else the forward merge through
    ``split_by_walk``, which gets stuck on no compatible system."""
    system = list(system)
    for (i, (Ii, gi)), (j, (Ij, gj)) in itertools.combinations(enumerate(system), 2):
        joined, diff = ideal_join(Ii, Ij), G.sub(gi, gj)
        if not contains(G.structure, joined, diff):
            return PatchResult(certificate=Incompatible(i, j, diff, joined))
    if not system:
        return PatchResult(solution=zero(G.structure))
    processed, g = system[0]
    for I, t in system[1:]:
        a = split_by_walk(G.structure, G.sub(g, t), processed, I)
        assert a is not None, "the merge got stuck on a compatible system"
        g = G.sub(g, a)
        processed = ideal_meet(processed, I)
    return PatchResult(solution=g)


def strong_patch_by_sweep(G, system) -> PatchResult:
    """``strong_patch``: the maximal-ideal hypothesis by comparing ideals,
    then ``patch_by_sweep``, whose sweep also gives the diagnostic of a
    group that is not strongly semisimple."""
    system = list(system)
    failure = max_hypothesis_failure(G, system)
    if failure is not None:
        return PatchResult(certificate=MaxHypothesisViolated(*failure))
    result = patch_by_sweep(G, system)
    ok, witness = is_strongly_semisimple(G)
    if ok:
        assert result.solved
        return result
    cert = result.certificate
    pair = None if cert is None else (cert.i, cert.j)
    return PatchResult(certificate=NotStronglySemisimple(witness, cert is None, pair))


def zero_set_patch_by_sweep(G, generators, targets) -> PatchResult:
    """``zero_set_patch``: ``strong_patch_by_sweep`` on the principal
    ideals of the generators, unique when their zero sets cover."""
    system = [(principal_ideal(G.structure, h), t) for h, t in zip(generators, targets)]
    result = strong_patch_by_sweep(G, system)
    cert = result.certificate
    if isinstance(cert, MaxHypothesisViolated):
        return PatchResult(certificate=IncompatibleOnZeroSets(cert.i, cert.j, cert.maximal))
    if cert is not None:
        return result
    return PatchResult(solution=result.solution, unique=unique_by_cover(G, generators))


def zero_by_walk(structure):
    """The zero element, built by recursion on the tree."""
    if isinstance(structure, Atom):
        return 0
    if isinstance(structure, Prod):
        return tuple(map(zero_by_walk, structure.children))
    return (0, zero_by_walk(structure.bottom))


def primes_by_walk(structure) -> tuple:
    """(primes, covers) from a fresh walk of the tree, past its stored ones."""
    found = lgroup.spectrum._primes(structure)
    return tuple(p for p, _ in found), tuple(c for _, c in found)


def radical_by_walk(structure):
    """The radical from a fresh walk of the tree, past its stored one: an
    atom's zero, a product of its children's radicals, and a lex node's
    bottom(all)."""
    if isinstance(structure, Atom):
        return AtomIdeal(False)
    if isinstance(structure, Prod):
        return ProdIdeal(tuple(map(radical_by_walk, structure.children)))
    return LexIdeal(all_ideal_by_walk(structure.bottom))


def all_ideal_by_walk(structure):
    """The whole ideal, built by recursion on the tree."""
    if isinstance(structure, Atom):
        return AtomIdeal(True)
    if isinstance(structure, Prod):
        return ProdIdeal(tuple(map(all_ideal_by_walk, structure.children)))
    return LexIdeal(None)


def atom_count_by_walk(structure) -> int:
    if isinstance(structure, Atom):
        return 1
    if isinstance(structure, Prod):
        return sum(map(atom_count_by_walk, structure.children))
    return 1 + atom_count_by_walk(structure.bottom)


def is_chain_by_walk(structure) -> bool:
    if isinstance(structure, Atom):
        return True
    if isinstance(structure, Lex):
        return is_chain_by_walk(structure.bottom)
    return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_element_by_walk(structure, value, path=()) -> None:
    """``check_element``: raise ShapeMismatch at the first bad position in
    pre-order."""
    if isinstance(structure, Atom):
        if not _is_int(value):
            raise ShapeMismatch(path, f"expected an integer, got {value!r}")
    elif isinstance(structure, Prod):
        n = len(structure.children)
        if not isinstance(value, tuple) or len(value) != n:
            raise ShapeMismatch(path, f"expected a {n}-tuple, got {value!r}")
        for i, (child, part) in enumerate(zip(structure.children, value)):
            check_element_by_walk(child, part, path + (i,))
    else:
        if not isinstance(value, tuple) or len(value) != 2:
            raise ShapeMismatch(path, f"expected a (top, bottom) pair, got {value!r}")
        if not _is_int(value[0]):
            raise ShapeMismatch(path + ("top",), f"expected an integer, got {value[0]!r}")
        check_element_by_walk(structure.bottom, value[1], path + ("bottom",))


def between_by_walk(structure, x, u, low, high):
    """The interval kernel ``_between``: None when x is malformed, else
    whether 0 <= x (if ``low``) and x <= u (if ``high``); after a failed
    bound only the shape is checked."""
    if isinstance(structure, Atom):
        if not _is_int(x):
            return None
        return (not low or 0 <= x) and (not high or x <= u)
    if isinstance(structure, Prod):
        if not isinstance(x, tuple) or len(x) != len(structure.children):
            return None
        verdict = True
        for child, part, top in zip(structure.children, x, u):
            inside = between_by_walk(child, part, top, low, high)
            if inside is None:
                return None
            if not inside:
                verdict = low = high = False
        return verdict
    if not isinstance(x, tuple) or len(x) != 2 or not _is_int(x[0]):
        return None
    top = x[0]
    verdict = (not low or 0 <= top) and (not high or top <= u[0])
    low, high = verdict and low and top == 0, verdict and high and top == u[0]
    inside = between_by_walk(structure.bottom, x[1], u[1], low, high)
    return inside if inside is None else verdict and inside


def add_by_walk(structure, g, h):
    if isinstance(structure, Atom):
        return g + h
    if isinstance(structure, Prod):
        return tuple(map(add_by_walk, structure.children, g, h))
    return (g[0] + h[0], add_by_walk(structure.bottom, g[1], h[1]))


def neg_by_walk(structure, g):
    if isinstance(structure, Atom):
        return -g
    if isinstance(structure, Prod):
        return tuple(map(neg_by_walk, structure.children, g))
    return (-g[0], neg_by_walk(structure.bottom, g[1]))


def sub_by_walk(structure, g, h):
    if isinstance(structure, Atom):
        return g - h
    if isinstance(structure, Prod):
        return tuple(map(sub_by_walk, structure.children, g, h))
    return (g[0] - h[0], sub_by_walk(structure.bottom, g[1], h[1]))


def leq_by_walk(structure, g, h) -> bool:
    if isinstance(structure, Atom):
        return g <= h
    if isinstance(structure, Prod):
        return all(map(leq_by_walk, structure.children, g, h))
    if g[0] != h[0]:
        return g[0] < h[0]
    return leq_by_walk(structure.bottom, g[1], h[1])


def meet_by_walk(structure, g, h):
    if isinstance(structure, Atom):
        return min(g, h)
    if isinstance(structure, Prod):
        return tuple(map(meet_by_walk, structure.children, g, h))
    if g[0] < h[0]:
        return g
    if h[0] < g[0]:
        return h
    return (g[0], meet_by_walk(structure.bottom, g[1], h[1]))


def join_by_walk(structure, g, h):
    if isinstance(structure, Atom):
        return max(g, h)
    if isinstance(structure, Prod):
        return tuple(map(join_by_walk, structure.children, g, h))
    if g[0] < h[0]:
        return h
    if h[0] < g[0]:
        return g
    return (g[0], join_by_walk(structure.bottom, g[1], h[1]))


def trunc_by_walk(structure, x, y, c, u, low, high):
    """The truncated sum ``_trunc``: x + y - c, then v 0 if ``low``, then
    ^ u if ``high``, each a walk of its own."""
    t = sub_by_walk(structure, add_by_walk(structure, x, y), c)
    if low:
        t = join_by_walk(structure, t, zero_by_walk(structure))
    if high:
        t = meet_by_walk(structure, t, u)
    return t


def ideal_leq_by_walk(I, J) -> bool:
    """Containment I subseteq J, decided part by part."""
    if isinstance(I, AtomIdeal):
        return J.full or not I.full
    if isinstance(I, ProdIdeal):
        return all(map(ideal_leq_by_walk, I.parts, J.parts))
    if J.inner is None:
        return True
    if I.inner is None:
        return False
    return ideal_leq_by_walk(I.inner, J.inner)


def is_zero_ideal_by_walk(I) -> bool:
    if isinstance(I, AtomIdeal):
        return not I.full
    if isinstance(I, ProdIdeal):
        return all(map(is_zero_ideal_by_walk, I.parts))
    return I.inner is not None and is_zero_ideal_by_walk(I.inner)


def is_all_ideal_by_walk(I) -> bool:
    if isinstance(I, AtomIdeal):
        return I.full
    if isinstance(I, ProdIdeal):
        return all(map(is_all_ideal_by_walk, I.parts))
    return I.inner is None


def proper_tops_by_generator(structure, I) -> list:
    """Whether I is proper at each top position: where its canonical
    generator is 0."""
    return [v == 0 for v in top_values_by_walk(structure, canonical_generator(structure, I))]


def ideal_to_json_by_walk(I):
    """``ideal_to_json``: the zero and improper ideals compacted to their
    shorthands at every level, by testing zero and whole again at each
    level with the walks, not the stored flags."""
    if is_zero_ideal_by_walk(I):
        return "zero"
    if is_all_ideal_by_walk(I):
        return "all"
    if isinstance(I, ProdIdeal):
        return {"prod": [ideal_to_json_by_walk(p) for p in I.parts]}
    return {"bottom": ideal_to_json_by_walk(I.inner)}


def top_index_by_walk(structure, m):
    """``yosida.top_index``: m is maximal exactly when it is proper at one
    top position only and is there as large as a proper ideal gets, zero at
    an atom and bottom(all) at a lex node."""
    found = None
    k = 0
    stack = [(structure, m)]
    while stack:
        s, I = stack.pop()
        if isinstance(s, Prod):
            stack += zip(reversed(s.children), reversed(I.parts))
            continue
        proper = (not I.full) if isinstance(s, Atom) else I.inner is not None
        if proper:
            if found is not None or (isinstance(s, Lex) and not is_all_ideal_by_walk(I.inner)):
                return None
            found = k
        k += 1
    return found


def max_failure_by_generators(G, system):
    """``crt._max_failure``: the first (i, j, k) with both ideals proper at
    top position k, where their canonical generators are 0, and the
    targets' integers there different."""
    s = G.structure
    rows = [
        [
            v if c == 0 else None
            for c, v in zip(top_values_by_walk(s, canonical_generator(s, I)), top_values_by_walk(s, g))
        ]
        for I, g in system
    ]
    for (i, a), (j, b) in itertools.combinations(enumerate(rows), 2):
        for k, (x, y) in enumerate(zip(a, b)):
            if x is not None and y is not None and x != y:
                return i, j, k
    return None


def unique_by_top_values(G, generators) -> bool:
    """``zero_set_patch``'s uniqueness: some generator is 0 at every top
    position."""
    columns = zip(*(top_values_by_walk(G.structure, h) for h in generators))
    return bool(generators) and all(0 in column for column in columns)


def zero_ideal_by_walk(structure):
    if isinstance(structure, Atom):
        return AtomIdeal(False)
    if isinstance(structure, Prod):
        return ProdIdeal(tuple(map(zero_ideal_by_walk, structure.children)))
    return LexIdeal(zero_ideal_by_walk(structure.bottom))


def full_generator_by_walk(structure):
    if isinstance(structure, Atom):
        return 1
    if isinstance(structure, Prod):
        return tuple(map(full_generator_by_walk, structure.children))
    return (1, zero(structure.bottom))


def ideal_count_by_walk(structure) -> int:
    if isinstance(structure, Atom):
        return 2
    if isinstance(structure, Prod):
        return math.prod(map(ideal_count_by_walk, structure.children))
    return ideal_count_by_walk(structure.bottom) + 1


def check_ideal_by_walk(structure, I, path=()) -> None:
    """``check_ideal``: raise ShapeMismatch at the first bad position in
    pre-order."""
    if isinstance(structure, Atom):
        if not isinstance(I, AtomIdeal):
            raise ShapeMismatch(path, f"expected an atom ideal, got {I!r}")
    elif isinstance(structure, Prod):
        n = len(structure.children)
        if not isinstance(I, ProdIdeal) or len(I.parts) != n:
            raise ShapeMismatch(path, f"expected a {n}-part product ideal, got {I!r}")
        for i, (child, part) in enumerate(zip(structure.children, I.parts)):
            check_ideal_by_walk(child, part, path + (i,))
    else:
        if not isinstance(I, LexIdeal):
            raise ShapeMismatch(path, f"expected a lex ideal, got {I!r}")
        if I.inner is not None:
            check_ideal_by_walk(structure.bottom, I.inner, path + ("bottom",))


def contains_by_walk(structure, I, g) -> bool:
    """Membership g in I, part by part."""
    if isinstance(structure, Atom):
        return I.full or g == 0
    if isinstance(structure, Prod):
        return all(map(contains_by_walk, structure.children, I.parts, g))
    if I.inner is None:
        return True
    return g[0] == 0 and contains_by_walk(structure.bottom, I.inner, g[1])


def principal_by_walk(structure, g):
    """The ideal that g generates."""
    if isinstance(structure, Atom):
        return AtomIdeal(g != 0)
    if isinstance(structure, Prod):
        return ProdIdeal(tuple(map(principal_by_walk, structure.children, g)))
    if g[0] != 0:
        return LexIdeal(None)
    return LexIdeal(principal_by_walk(structure.bottom, g[1]))


def split_by_walk(structure, d, I, J):
    """The part a in I of d = a + b with b = d - a in J, or None when d is
    not in I v J; a coordinate that both ideals can take goes to I."""
    if isinstance(I, AtomIdeal):
        return d if I.full else (0 if J.full or d == 0 else None)
    if isinstance(I, ProdIdeal):
        parts = tuple(map(split_by_walk, structure.children, d, I.parts, J.parts))
        return None if None in parts else parts
    if I.inner is None:
        return d
    if J.inner is None:
        bottom = structure.bottom
        return 0, split_by_walk(bottom, d[1], I.inner, all_ideal_by_walk(bottom))
    a = None if d[0] else split_by_walk(structure.bottom, d[1], I.inner, J.inner)
    return None if a is None else (0, a)


def patch_by_walk(structure, g, t, I):
    """The patch kernel ``_patch``: t plus the part in I of g - t, split
    against the whole ideal, which is t where I pins and g elsewhere."""
    d = sub_by_walk(structure, g, t)
    return add_by_walk(structure, t, split_by_walk(structure, d, I, all_ideal_by_walk(structure)))


def agree_by_walk(structure, I, g, t) -> bool:
    """The congruence test ``_patch(g, t, I) == g``: whether g - t lies
    in I."""
    return contains_by_walk(structure, I, sub_by_walk(structure, g, t))


def top_values_by_walk(structure, g) -> list:
    """g's integers at the top positions, by a walk with an explicit stack."""
    out = []
    stack = [(structure, g)]
    while stack:
        s, x = stack.pop()
        if isinstance(s, Prod):
            stack += zip(reversed(s.children), reversed(x))
        else:
            out.append(x[0] if isinstance(s, Lex) else x)
    return out


def element_to_json_by_walk(structure, e):
    """``element_to_json`` as a walk of the structure, turning each tuple
    into a list; it checks nothing."""
    if isinstance(structure, Atom):
        return e
    if isinstance(structure, Prod):
        return [element_to_json_by_walk(c, p) for c, p in zip(structure.children, e)]
    return [e[0], element_to_json_by_walk(structure.bottom, e[1])]


def certificate_to_json_by_kind(structure, cert) -> dict:
    """``certificate_to_json`` as a branch per certificate class, each
    naming its kind and its fields; ideals render by their walk."""
    if isinstance(cert, Incompatible):
        return {
            "kind": "incompatible",
            "i": cert.i,
            "j": cert.j,
            "difference": element_to_json_by_walk(structure, cert.difference),
            "join_ideal": ideal_to_json_by_walk(cert.join_ideal),
        }
    if isinstance(cert, MaxHypothesisViolated):
        return {
            "kind": "max-hypothesis-violated",
            "i": cert.i,
            "j": cert.j,
            "maximal": ideal_to_json_by_walk(cert.maximal),
        }
    if isinstance(cert, NotStronglySemisimple):
        out = {
            "kind": "not-strongly-semisimple",
            "witness": ideal_to_json_by_walk(cert.witness),
            "keimel_hypothesis_holds": cert.keimel_hypothesis_holds,
            "solution_exists": cert.solution_exists,
        }
        if cert.incompatible_pair is not None:
            out["incompatible_pair"] = list(cert.incompatible_pair)
        return out
    if isinstance(cert, IncompatibleOnZeroSets):
        return {
            "kind": "incompatible-on-zero-sets",
            "i": cert.i,
            "j": cert.j,
            "maximal": ideal_to_json_by_walk(cert.maximal),
        }
    raise LGroupError(f"unknown certificate {cert!r}")
