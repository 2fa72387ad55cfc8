"""Exhaustive law checks, the one home of every law the library is
checked against by enumeration.

Each check takes a group and returns the list of laws it finds broken,
empty when all hold; the two fixed regression suites take nothing.  The
checks walk whole ideal lattices, every set of primes and boxes of
elements, so they are meant for small groups: ``lgroup selftest`` runs
``LAWS`` on each gallery instance and then ``SUITES``, in table order,
and the tests run ``LAWS`` on small random groups too.

The code that only the checks and the tests call lives here as well, so
that no command compiles it: the element generators ``random_element``
and ``elements_in_box``, and the Archimedean search ``archimedean_falsify``
with its exact test ``dominated``, the cross-check of the radical.  The
generators treat every integer alike, so they read the element's shape
off the tree's stored zero, with no case per node kind: a draw per
integer, in order, and the product over the parts of the zero, each
integer over the box.  ``dominated`` is two order tests (see there).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Tuple

from .core import (
    Atom,
    Element,
    LGroupError,
    Prod,
    Structure,
    TooLarge,
    UnitalGroup,
    _check_elements,
    _group_structure,
    _is_int,
    _leq,
    _scale,
    all_ideal,
    atom_count,
    ideal_count,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_proper,
    principal_ideal,
    scale,
    zero,
)
from .crt import (
    CongruenceSystem,
    NotStronglySemisimple,
    keimel_patch,
    riesz_split,
    strong_patch,
    zero_set_patch,
)
from .gallery import GALLERY_NAMES, gallery_instance, gallery_json
from .ideals import enumerate_ideals, quotient
from .mv import GammaAlgebra
from .semisimple import is_semisimple, is_strongly_semisimple, radical
from .serialize import dumps_canonical, instance_to_json, loads_instance
from .spectrum import closure, compute_spectrum, ideal_of_locus, vanishing_locus

# interval slices with more points than this are sampled, not swept
_BOX_LIMIT = 50000
# the sweeps that would take more than about a second are refused before
# they start, with TooLarge: spectral_axioms over the pairs of sets of
# primes (Z^8 has 4^8 and took 0.55 s, Z^10 24 s); interval_algebra over
# an ideal and two points of its slice (about a microsecond each), and
# ideal_lattice over triples of ideals and pairs of an ideal and a point
# of the box (Z^6 has 2^18 + 2^6 * 3^6 and took about 2 s, Z^7 over 13 s;
# a lex tower has few ideals but one atom per level, lex^8 has
# 10^3 + 10 * 3^9 and took 0.25 s, lex^10 2.6 s, and the box of lex^25
# alone outgrows memory); riesz_splitting over the pairs of an ideal and a
# point of the box it filters once, and the at most 3 x 3 splits it makes
# per pair of ideals (Z^7 has 2^7 * 3^7 + 9 * 2^14 and took 0.9 s, Z^8
# 4.0 s; lex^9 has 11 * 3^10 + 9 * 11^2 and took 0.4 s, lex^10 1.5 s); and
# quotient_spectra over an ideal and two primes, which it compares above
# each ideal and projects with one walk each (lex^57 has 59 * 58^2 and
# took about 0.85 s, lex^100 7.8 s, lex^200 145 s; Z^n costs less per
# triple, since fewer primes lie above each ideal)
_SUBSET_PAIR_LIMIT = 1 << 16
_TRIPLE_LIMIT = 1 << 20
_PRIME_PAIR_LIMIT = 200_000


def _refuse_over(count: int, limit: int, items: str) -> None:
    if count > limit:
        raise TooLarge(count, limit, items)


def _check_bound(bound) -> None:
    if not _is_int(bound):
        raise LGroupError(f"expected an integer bound, got {bound!r}")


def random_element(rng, structure: Structure, bound: int) -> Element:
    """A seeded random element with integer coordinates in [-bound, bound],
    drawn for each integer of the zero element in turn."""
    _check_bound(bound)

    def draw(z):
        return tuple(map(draw, z)) if isinstance(z, tuple) else rng.randint(-bound, bound)

    return draw(zero(structure))


def elements_in_box(structure: Structure, bound: int) -> Iterator[Element]:
    """Every element whose integer coordinates lie in [-bound, bound]: the
    product over the parts of the zero element, each integer over the box.

    The count is (2*bound+1)**atom_count(structure); callers are expected
    to keep that small.
    """
    _check_bound(bound)
    box = range(-bound, bound + 1)

    def walk(z):
        return itertools.product(*map(walk, z)) if isinstance(z, tuple) else box

    return iter(walk(zero(structure)))


def dominated(structure: Structure, g: Element, h: Element) -> bool:
    """Decide exactly whether n*g <= h for every integer n >= 1.

    Two multiples decide: n = 1, and n = N, one more than the largest
    |integer| of h.  Take a top position, an atom or a lex node's dominant
    component, where g has the integer a and h has b.  When a > 0, no
    multiple n > b/a passes there, and b/a <= |b| < N.  When a = 0, every
    multiple passes or none does, unless b = 0 at a lex node, which leaves
    them all to the bottoms, where the same holds.  When a < 0 and n = 1
    passes, a <= b, so n*a < b for every n > 1, and those pass whatever
    the bottoms.  A product holds a multiple when each part does.  So once
    n = 1 passes, the multiples that pass are all of them or an initial
    segment that ends below N, and N tells which.  A property test in
    ``tests/test_semisimple.py`` compares this with every multiple up to
    the coordinate bound.  Each operand is checked once, at the boundary,
    and ``_dominated`` trusts them.
    """
    _check_elements(structure, g, h)
    return _dominated(structure, g, h)


def _dominated(structure, g, h):
    return _leq(structure, g, h) and _leq(structure, _scale(_max_coordinate(h) + 1, g), h)


def _first_positive(z: Element) -> Element:
    """The zero element z with its first integer set to 1: a minimal
    positive element touching only the first coordinate."""
    return (_first_positive(z[0]), *z[1:]) if isinstance(z, tuple) else 1


def _lex_witnesses(structure: Structure) -> Iterator[Tuple[Element, Element]]:
    """Yield (g, h) candidates, one per lex position, outermost first.

    At a lex node the infinitesimal pair is g = (0, positive) against
    h = (1, 0); in surrounding positions both members are zero, spliced
    into a product's stored zero.
    """
    if isinstance(structure, Atom):
        return
    if isinstance(structure, Prod):
        z = zero(structure)
        for i, child in enumerate(structure.children):
            for g, h in _lex_witnesses(child):
                yield (*z[:i], g, *z[i + 1 :]), (*z[:i], h, *z[i + 1 :])
        return
    yield (0, _first_positive(zero(structure.bottom))), (1, zero(structure.bottom))
    for g, h in _lex_witnesses(structure.bottom):
        yield (0, g), (0, h)


def archimedean_falsify(G: UnitalGroup) -> Optional[Tuple[Element, Element]]:
    """Search for 0 < g with n*g <= h for every n.

    Candidate pairs are generated structurally, one per lexicographic
    position (the only places a violation can live in this class), with
    coordinate magnitudes at most 1; each candidate is verified exactly
    before being returned.  Returns the first surviving witness, or None
    when there is none.
    """
    s = _group_structure(G)
    z = zero(s)
    for g, h in _lex_witnesses(s):
        if g != z and _leq(s, z, g) and _dominated(s, g, h):
            return g, h
    return None


def _subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if mask >> i & 1)


def spectral_axioms(G):
    """The hull-kernel topology laws, over every ideal R and every set S of
    primes: the Galois adjunction, the closure-operator laws with the
    closure equal to the vanishing locus of the kernel, both
    fixed-point characterisations, that closed sets are specialization
    up-sets, T0 and sobriety, the principal-ideal description of compact
    opens, and that the maximal spectrum is a discrete antichain.  Over
    ``_SUBSET_PAIR_LIMIT`` pairs of sets of primes it raises ``TooLarge``
    before any law is checked."""
    space = compute_spectrum(G)
    _refuse_over(4 ** len(space.primes), _SUBSET_PAIR_LIMIT, "pairs of sets of primes")
    lattice = enumerate_ideals(G)
    ideals = lattice.ideals
    primes = list(space.primes)
    subsets = list(_subsets(primes))
    V = {I: vanishing_locus(space, I) for I in ideals}
    closed_family = set(V.values())
    cl = {S: closure(space, S) for S in subsets}

    def sober():
        for C in closed_family:
            irreducible = C and not any(
                A | B == C
                for A in closed_family
                for B in closed_family
                if A < C and B < C
            )
            if irreducible and sum(cl[frozenset([p])] == C for p in C) != 1:
                return False
        return True

    # In this class every ideal is principal, so the compact opens are
    # exactly the complements of the closed sets, and the complement map
    # must be an order isomorphism from the ideal lattice.
    principal = [I for I, flag in zip(ideals, lattice.principal) if flag]
    all_primes = frozenset(primes)
    opens = {all_primes - C for C in closed_family}
    maxes = space.max_ideals()
    laws = {
        "galois-adjunction": all(
            ideal_leq(I, ideal_of_locus(space, S)) == (S <= V[I])
            for I in ideals
            for S in subsets
        ),
        "closure-operator": (
            all(S <= cl[S] for S in subsets)
            and all(cl[S] <= cl[T] for S in subsets for T in subsets if S <= T)
            and all(cl[cl[S]] == cl[S] for S in subsets)
            and all(cl[S | T] == cl[S] | cl[T] for S in subsets for T in subsets)
            and cl[frozenset()] == frozenset()
            and all(
                cl[S] == vanishing_locus(space, ideal_of_locus(space, S))
                for S in subsets
            )
        ),
        "ideal-fixed-points": all(ideal_of_locus(space, V[I]) == I for I in ideals),
        "locus-fixed-points": all(
            (cl[S] == S) == (S in closed_family) for S in subsets
        ),
        "closed-up-sets": all(
            q in C for C in closed_family for p in C for q in primes if ideal_leq(p, q)
        ),
        "t0-sober": sober()
        and all(
            cl[frozenset([p])] != cl[frozenset([q])]
            for p in primes
            for q in primes
            if p != q
        ),
        "compact-open-basis": (
            {all_primes - V[P] for P in principal} == opens
            and all(
                (all_primes - V[P]) & (all_primes - V[Q]) in opens
                for P in principal
                for Q in principal
            )
            and all(
                ideal_leq(P, Q) == ((all_primes - V[P]) <= (all_primes - V[Q]))
                for P in principal
                for Q in principal
            )
            and all(
                ideal_leq(P, Q) == (V[P] >= V[Q]) for P in principal for Q in principal
            )
        ),
        "max-hausdorff": not any(
            p != q and ideal_leq(p, q) for p in maxes for q in maxes
        )
        and all(
            frozenset([m]) == vanishing_locus(space, m) & frozenset(maxes)
            for m in maxes
        ),
    }
    return [f"law {name} failed" for name, ok in laws.items() if not ok]


def quotient_spectra(G):
    """For every ideal I, J -> J/I is an order isomorphism from the primes
    above I onto the spectrum of G/I, preserving maximality.  Over
    ``_PRIME_PAIR_LIMIT`` triples of an ideal and two primes it raises
    ``TooLarge`` before any check."""
    space = compute_spectrum(G)
    count = ideal_count(G.structure) * len(space) ** 2
    _refuse_over(count, _PRIME_PAIR_LIMIT, "(ideal, prime, prime) triples")
    errors = []
    for I in enumerate_ideals(G).ideals:
        above = [p for p in space.primes if ideal_leq(I, p)]
        q = quotient(G, I)
        if q.trivial:
            ok = not above
        else:
            qspace = compute_spectrum(q.group)
            mapped = [q.project_ideal(p) for p in above]
            pairs = list(zip(above, mapped))
            ok = (
                len(set(mapped)) == len(mapped)
                and set(mapped) == set(qspace.primes)
                and all(
                    ideal_leq(p1, p2) == ideal_leq(m1, m2)
                    for p1, m1 in pairs
                    for p2, m2 in pairs
                )
                and all(space.is_maximal(p) == qspace.is_maximal(m) for p, m in pairs)
            )
        if not ok:
            errors.append(f"quotient spectrum mismatch at {I!r}")
    return errors


def ideal_lattice(G):
    """Distributivity of the ideal lattice, a principal generator for every
    ideal, and <g> as the least ideal containing g.  Over ``_TRIPLE_LIMIT``
    triples of ideals and pairs of an ideal and a point of the box it
    raises ``TooLarge`` before any check."""
    s = _group_structure(G)
    count = ideal_count(s) ** 3 + ideal_count(s) * 3 ** atom_count(s)
    _refuse_over(count, _TRIPLE_LIMIT, "ideal triples and (ideal, point) pairs")
    errors = []
    lattice = enumerate_ideals(G)
    ideals = lattice.ideals
    for I in ideals:
        for J in ideals:
            for K in ideals:
                lhs = ideal_meet(I, ideal_join(J, K))
                rhs = ideal_join(ideal_meet(I, J), ideal_meet(I, K))
                if lhs != rhs:
                    errors.append("distributivity failed")
    if not all(lattice.principal):
        errors.append("an enumerated ideal has no principal witness")
    for g in elements_in_box(s, 1):
        P = principal_ideal(s, g)
        for I in ideals:
            if (s._patch(g, s._zero, I) == g) != ideal_leq(P, I):
                errors.append(f"principal ideal of {g!r} is not least")
    return errors


def semisimplicity(G):
    """Semisimplicity against a dense maximal spectrum and the Archimedean
    search; strong semisimplicity against the co-compact density test."""
    errors = []
    space = compute_spectrum(G)
    dense = closure(space, space.max_ideals()) == frozenset(space.primes)
    if is_semisimple(G) != dense:
        errors.append("semisimple <-> dense maximal spectrum failed")
    strong, _ = is_strongly_semisimple(G)
    maxset = frozenset(space.max_ideals())
    cocompact = all(
        vanishing_locus(space, P) == closure(space, vanishing_locus(space, P) & maxset)
        for P in enumerate_ideals(G).ideals
    )
    if strong != cocompact:
        errors.append("strong semisimplicity disagrees with the co-compact density test")
    if strong and not is_semisimple(G):
        errors.append("strongly semisimple but not semisimple")
    witness = archimedean_falsify(G)
    if (witness is None) != is_semisimple(G):
        errors.append("archimedean search disagrees with the radical")
    return errors


def riesz_splitting(G):
    """Sums of members of I and J lie in I v J and split back into them.
    Over ``_TRIPLE_LIMIT`` pairs of an ideal and a point of the box, which
    it filters once per ideal, and splits, at most 3 x 3 per pair of
    ideals, it raises ``TooLarge`` before any check."""
    s = _group_structure(G)
    count = ideal_count(s) * 3 ** atom_count(s) + 9 * ideal_count(s) ** 2
    _refuse_over(count, _TRIPLE_LIMIT, "(ideal, point) pairs and splits")
    errors = []
    ideals = enumerate_ideals(G).ideals
    box = list(elements_in_box(s, 1))
    # the first three members of the box in each ideal
    members = {I: [a for a in box if s._patch(a, s._zero, I) == a][:3] for I in ideals}
    for I in ideals:
        for J in ideals:
            for a in members[I]:
                for b in members[J]:
                    d = s._add(a, b)
                    if s._patch(d, s._zero, ideal_join(I, J)) != d:
                        errors.append("sum escaped the join")
                        continue
                    x, y = riesz_split(G, d, I, J)
                    if s._add(x, y) != d:
                        errors.append("riesz split does not re-sum")
    return errors


def _max_coordinate(e) -> int:
    return max(map(_max_coordinate, e)) if isinstance(e, tuple) else abs(e)


def _interval_box(G, bound):
    """All interval members with coordinates in [-bound, bound], canonically
    ordered; a seeded clamped sample when the box is too large."""
    s = G.structure
    if (2 * bound + 1) ** atom_count(s) <= _BOX_LIMIT:
        return [x for x in elements_in_box(s, bound) if s._between(x, G.unit, True, True)]
    alg = GammaAlgebra(G)
    rng = random.Random(20480)
    out = {alg.clamp(g) for g in (random_element(rng, s, bound) for _ in range(2000))}
    return sorted(out, key=repr)


def interval_algebra(G):
    """The interval [0, u] as a many-valued algebra, and its ideals.

    The algebra's identities are checked on seeded samples, with the
    composed join (x' + y)' + y against the group's join and the meet
    against the De Morgan dual of the join.
    Every group ideal is then cut down to its trace on a slice of the
    interval: distinct ideals keep distinct traces, each trace is an
    interval ideal on the slice (contains 0, closed under truncated
    addition, downward closed), primality and maximality found by search
    on the interval side match the group side, and the radical's trace is
    the meet of the maximal traces.  Over ``_TRIPLE_LIMIT`` triples of
    an ideal and two points of the slice, it raises ``TooLarge`` before
    any check.
    """
    errors = []
    alg = GammaAlgebra(G)
    s = G.structure
    u = G.unit
    top = _max_coordinate(u)
    box = _interval_box(G, max(3, top + 1))
    _refuse_over(ideal_count(s) * len(box) ** 2, _TRIPLE_LIMIT, "(ideal, point, point) triples")
    rng = random.Random(4257)
    for _ in range(200):
        x = alg.clamp(random_element(rng, s, 4))
        y = alg.clamp(random_element(rng, s, 4))
        z = alg.clamp(random_element(rng, s, 4))
        if alg.oplus(x, y) != alg.oplus(y, x):
            errors.append("oplus not commutative")
        if alg.oplus(alg.oplus(x, y), z) != alg.oplus(x, alg.oplus(y, z)):
            errors.append("oplus not associative")
        if alg.neg(alg.neg(x)) != x:
            errors.append("involution failed")
        if alg.oplus(x, u) != u:
            errors.append("unit not absorbing")
        lhs = alg.oplus(alg.neg(alg.oplus(alg.neg(x), y)), y)
        rhs = alg.oplus(alg.neg(alg.oplus(alg.neg(y), x)), x)
        if lhs != rhs:
            errors.append("characteristic identity failed")
        if lhs != s._join(x, y):
            errors.append("interval order disagrees with the group order")
        if alg.mv_meet(x, y) != alg.neg(alg.mv_join(alg.neg(x), alg.neg(y))):
            errors.append("interval meet is not the De Morgan dual of the join")

    boxset = frozenset(box)
    ideals = enumerate_ideals(G).ideals
    traces = {I: frozenset(x for x in box if s._patch(x, s._zero, I) == x) for I in ideals}
    if len(set(traces.values())) != len(ideals):
        errors.append("two ideals share an interval trace")
    for T in traces.values():
        if not (
            zero(s) in T
            and all(
                z in T or z not in boxset
                for z in (alg._oplus(x, y) for x in T for y in T)
            )
            and all(y in T for x in T for y in box if _leq(s, y, x))
        ):
            errors.append("a trace is not an interval ideal")

    space = compute_spectrum(G)
    primes = frozenset(space.primes)
    maxes = space.max_ideals()
    for I in filter(is_proper, ideals):
        T = traces[I]
        prime = not any(
            s._meet(x, y) in T and x not in T and y not in T for x in box for y in box
        )
        # the witness lies in [0, u] but may leave the slice, so it is
        # tested against I itself, whose meet with [0, u] is the interval
        # ideal that the trace samples
        outside = [x for x in box if x not in T]
        maximal = bool(outside) and all(
            any(
                s._patch(y, s._zero, I) == y
                for y in (alg._neg(alg.clamp(scale(s, n, x))) for n in range(1, max(2, top) + 1))
            )
            for x in outside
        )
        if prime != (I in primes):
            errors.append(f"interval primality disagrees at {I!r}")
        if maximal != (I in maxes):
            errors.append(f"interval maximality disagrees at {I!r}")

    expected = boxset
    for m in maxes:
        expected &= traces[m]
    if traces[radical(G)] != expected:
        errors.append("the radical's trace is not the meet of the maximal traces")
    return errors


def patching_regressions():
    """The gallery tasks keep their answers, the lex pair stays refused by
    both solvers and unsolvable by search, and seeded compatible systems
    on a2 and c3 are solved."""
    errors = []
    lexg = gallery_instance("lex").group
    task = gallery_instance("lex").task
    res = strong_patch(lexg, CongruenceSystem.of(zip(task.ideals, task.targets)))
    if res.solved or not isinstance(res.certificate, NotStronglySemisimple):
        errors.append("the impossible pair was not refused")
    elif res.certificate.keimel_hypothesis_holds:
        errors.append("refusal diagnostic claims the classical hypothesis holds")
    kres = keimel_patch(lexg, CongruenceSystem.of(zip(task.ideals, task.targets)))
    if kres.solved:
        errors.append("classical solver accepted the impossible pair")
    for g in elements_in_box(lexg.structure, 2):
        if all(
            lexg.structure._patch(g, t, I) == g
            for I, t in zip(task.ideals, task.targets)
        ):
            errors.append("an element satisfied the impossible pair")
    a2 = gallery_instance("a2")
    res = keimel_patch(a2.group, CongruenceSystem.of(zip(a2.task.ideals, a2.task.targets)))
    if res.solution != (5, 4):
        errors.append("classical task solution drifted")
    c3 = gallery_instance("c3")
    res = zero_set_patch(c3.group, c3.task.generators, c3.task.targets)
    if res.solution != (2, 4, 1) or not res.unique:
        errors.append("zero-set task solution drifted")
    mix = gallery_instance("mix")
    res = keimel_patch(mix.group, CongruenceSystem.of(zip(mix.task.ideals, mix.task.targets)))
    if not res.solved:
        errors.append("mix task became unsolvable")
    rng = random.Random(90125)
    for name in ("a2", "c3"):
        G = gallery_instance(name).group
        ideals = enumerate_ideals(G).ideals
        everything = all_ideal(G.structure)
        for _ in range(30):
            base = random_element(rng, G.structure, 3)
            system = []
            for _ in range(rng.randint(1, 3)):
                I = rng.choice(ideals)
                noise = random_element(rng, G.structure, 3)
                # the first half of a split against the improper ideal is
                # the I-portion of the noise, so the target stays congruent
                shifted = G.add(base, riesz_split(G, noise, I, everything)[0])
                system.append((I, base if rng.random() < 0.5 else shifted))
            result = keimel_patch(G, system)
            if result.solution is None:
                errors.append("a compatible random system was refused")
                continue
            for I, t in system:
                if G.structure._patch(result.solution, t, I) != result.solution:
                    errors.append("random system solution fails a congruence")
    return errors


def round_trips():
    """Every gallery instance parses and prints back byte for byte."""
    errors = []
    for name in GALLERY_NAMES:
        text = gallery_json(name)
        again = dumps_canonical(instance_to_json(loads_instance(text)))
        if again != text:
            errors.append(f"gallery {name} does not round-trip byte-stably")
    return errors


LAWS = (
    ("spectral axioms", spectral_axioms),
    ("quotient spectra", quotient_spectra),
    ("ideal lattice", ideal_lattice),
    ("semisimplicity", semisimplicity),
    ("riesz splitting", riesz_splitting),
    ("interval algebra", interval_algebra),
)

SUITES = (
    ("patching regressions", patching_regressions),
    ("serialization round trips", round_trips),
)
