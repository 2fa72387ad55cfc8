"""Exhaustive law checks, the one home of every law the library is
checked against by enumeration.

Each check takes a group and returns the list of laws it finds broken,
empty when all hold; the two fixed regression suites take nothing.  The
checks walk whole ideal lattices, every set of primes and boxes of
elements, so they are meant for small groups: ``lgroup selftest`` runs
``LAWS`` on each gallery instance and then ``SUITES``, in table order,
and the tests run ``LAWS`` on small random groups too.
"""

from __future__ import annotations

import random

from .core import (
    atom_count,
    elements_in_box,
    leq,
    meet,
    random_element,
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
from .ideals import (
    all_ideal,
    enumerate_ideals,
    ideal_join,
    ideal_leq,
    ideal_meet,
    is_proper,
    principal_ideal,
    quotient,
)
from .mv import GammaAlgebra
from .semisimple import (
    archimedean_falsify,
    is_semisimple,
    is_strongly_semisimple,
    radical,
)
from .serialize import dumps_canonical, instance_to_json, loads_instance
from .spectrum import closure, compute_spectrum, ideal_of_locus, vanishing_locus

# interval slices with more points than this are sampled, not swept
_BOX_LIMIT = 50000


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
    opens, and that the maximal spectrum is a discrete antichain."""
    space = compute_spectrum(G)
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
    above I onto the spectrum of G/I, preserving maximality."""
    space = compute_spectrum(G)
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
    ideal, and <g> as the least ideal containing g."""
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
    for g in elements_in_box(G.structure, 1):
        P = principal_ideal(G.structure, g)
        for I in ideals:
            if G.structure._has(I, g) != ideal_leq(P, I):
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
    """Sums of members of I and J lie in I v J and split back into them."""
    errors = []
    ideals = enumerate_ideals(G).ideals
    box = list(elements_in_box(G.structure, 1))
    for I in ideals:
        for J in ideals:
            members_i = [a for a in box if G.structure._has(I, a)]
            members_j = [b for b in box if G.structure._has(J, b)]
            for a in members_i[:3]:
                for b in members_j[:3]:
                    d = G.add(a, b)
                    if not G.structure._has(ideal_join(I, J), d):
                        errors.append("sum escaped the join")
                        continue
                    x, y = riesz_split(G, d, I, J)
                    if G.add(x, y) != d:
                        errors.append("riesz split does not re-sum")
    return errors


def _max_coordinate(e) -> int:
    if isinstance(e, int):
        return abs(e)
    return max(_max_coordinate(p) for p in e)


def _interval_box(G, bound):
    """All interval members with coordinates in [-bound, bound], canonically
    ordered; a seeded clamped sample when the box is too large."""
    s = G.structure
    if (2 * bound + 1) ** atom_count(s) <= _BOX_LIMIT:
        z = zero(s)
        return [
            x for x in elements_in_box(s, bound) if leq(s, z, x) and leq(s, x, G.unit)
        ]
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
    the meet of the maximal traces.
    """
    errors = []
    alg = GammaAlgebra(G)
    s = G.structure
    u = G.unit
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
        if lhs != G.join(x, y):
            errors.append("interval order disagrees with the group order")
        if alg.mv_meet(x, y) != alg.neg(alg.mv_join(alg.neg(x), alg.neg(y))):
            errors.append("interval meet is not the De Morgan dual of the join")

    top = _max_coordinate(u)
    box = _interval_box(G, max(3, top + 1))
    boxset = frozenset(box)
    ideals = enumerate_ideals(G).ideals
    traces = {I: frozenset(x for x in box if s._has(I, x)) for I in ideals}
    if len(set(traces.values())) != len(ideals):
        errors.append("two ideals share an interval trace")
    for T in traces.values():
        if not (
            zero(s) in T
            and all(
                z in T or z not in boxset
                for z in (alg._oplus(x, y) for x in T for y in T)
            )
            and all(y in T for x in T for y in box if leq(s, y, x))
        ):
            errors.append("a trace is not an interval ideal")

    space = compute_spectrum(G)
    primes = frozenset(space.primes)
    maxes = space.max_ideals()
    for I in filter(is_proper, ideals):
        T = traces[I]
        prime = not any(
            meet(s, x, y) in T and x not in T and y not in T for x in box for y in box
        )
        # the witness lies in [0, u] but may leave the slice, so it is
        # tested against I itself, whose meet with [0, u] is the interval
        # ideal that the trace samples
        outside = [x for x in box if x not in T]
        maximal = bool(outside) and all(
            any(
                s._has(I, alg._neg(alg.clamp(scale(s, n, x))))
                for n in range(1, max(2, top) + 1)
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
            lexg.structure._has(I, lexg.sub(g, t))
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
                if not G.structure._has(I, G.sub(result.solution, t)):
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
