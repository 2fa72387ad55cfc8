"""The quotient and ideal-comparison forms that the top-position walks of
``lgroup.yosida`` replaced, kept as test oracles.

Each is the library's earlier definition, written with ``quotient``,
``contains`` and ``ideal_leq`` over the spectrum; the tests check the
closed forms against them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lgroup import (
    Atom,
    NotMaximal,
    check_element,
    check_ideal,
    compute_spectrum,
    contains,
    ideal_join,
    ideal_leq,
    is_zero_ideal,
    quotient,
    radical,
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
