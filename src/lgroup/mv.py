"""The many-valued view of a unit interval.

The interval [0, u] of a unital group carries truncated addition, an
involution, and a truncated product; that algebra determines the group and
its congruences, so its ideals are exactly the traces I cap [0, u] of the
group's ideals.  The correspondence report below checks that bijection on
bounded representatives and profiles primality and maximality on the
many-valued side independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .core import (
    Element,
    LGroupError,
    UnitalGroup,
    add,
    atom_count,
    check_element,
    elements_in_box,
    join,
    leq,
    meet,
    random_element,
    scale,
    sub,
    zero,
)
from .ideals import (
    Ideal,
    contains,
    enumerate_ideals,
    is_proper,
)
from .semisimple import radical
from .spectrum import compute_spectrum


class OutOfInterval(LGroupError):
    """An operand lies outside [0, u]."""


@dataclass(frozen=True)
class GammaAlgebra:
    """Operations of the interval [0, u] of a unital group.

    Elements are plain group elements validated into the interval;
    ``oplus`` is addition truncated at the unit, ``neg`` the reflection
    u - x, and ``odot`` the dual truncated product.
    """

    group: UnitalGroup

    @property
    def unit(self) -> Element:
        return self.group.unit

    def validate(self, x: Element) -> Element:
        check_element(self.group.structure, x)
        s = self.group.structure
        if not (leq(s, zero(s), x) and leq(s, x, self.group.unit)):
            raise OutOfInterval(f"{x!r} is not between 0 and the unit")
        return x

    def clamp(self, x: Element) -> Element:
        """Project an arbitrary group element into the interval."""
        s = self.group.structure
        return join(s, zero(s), meet(s, x, self.group.unit))

    def oplus(self, x: Element, y: Element) -> Element:
        s = self.group.structure
        return meet(s, self.group.unit, add(s, self.validate(x), self.validate(y)))

    def neg(self, x: Element) -> Element:
        return sub(self.group.structure, self.group.unit, self.validate(x))

    def odot(self, x: Element, y: Element) -> Element:
        s = self.group.structure
        total = sub(s, add(s, self.validate(x), self.validate(y)), self.group.unit)
        return join(s, zero(s), total)

    def mv_join(self, x: Element, y: Element) -> Element:
        return self.oplus(self.neg(self.oplus(self.neg(x), y)), y)

    def mv_meet(self, x: Element, y: Element) -> Element:
        return self.neg(self.mv_join(self.neg(x), self.neg(y)))

    def leq(self, x: Element, y: Element) -> bool:
        return leq(self.group.structure, self.validate(x), self.validate(y))


def interval_box(G: UnitalGroup, bound: int, limit: int = 50000) -> List[Element]:
    """All interval members with coordinates in [-bound, bound], canonically
    ordered; falls back to a seeded clamped sample when the box is large."""
    alg = GammaAlgebra(G)
    s = G.structure
    if (2 * bound + 1) ** atom_count(s) <= limit:
        z = zero(s)
        return [
            x
            for x in elements_in_box(s, bound)
            if leq(s, z, x) and leq(s, x, G.unit)
        ]
    rng = random.Random(20480)
    out = {alg.clamp(g) for g in (random_element(rng, s, bound) for _ in range(2000))}
    return sorted(out, key=repr)


@dataclass
class TraceCorrespondence:
    """How one group ideal shows up inside the interval."""

    ideal: Ideal
    prime: bool
    maximal: bool
    mv_prime_on_box: Optional[bool] = None
    mv_maximal_on_box: Optional[bool] = None


@dataclass
class MVCorrespondenceReport:
    group: UnitalGroup
    ideal_count: int = 0
    distinct_traces: bool = False
    closure_ok: bool = False
    primality_ok: bool = False
    maximality_ok: bool = False
    radical_trace_ok: bool = False
    radical: Optional[Ideal] = None
    entries: List[TraceCorrespondence] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.distinct_traces
            and self.closure_ok
            and self.primality_ok
            and self.maximality_ok
            and self.radical_trace_ok
        )


def mv_ideal_correspondence(G: UnitalGroup, bound: int = 0) -> MVCorrespondenceReport:
    """Check the ideal bijection between the group and its unit interval.

    Every group ideal is cut down to its trace on a bounded slice of the
    interval; the report verifies that distinct ideals stay distinct, that
    each trace behaves like an interval ideal on the slice (contains 0,
    closed under truncated addition, downward closed), that the primality
    and maximality profiles found by bounded search on the interval side
    match the group side, and that the radical's trace is the intersection
    of the maximal traces.
    """
    if bound <= 0:
        bound = max(3, _max_coordinate(G.unit) + 1)
    lattice = enumerate_ideals(G)
    space = compute_spectrum(G)
    alg = GammaAlgebra(G)
    box = interval_box(G, bound)
    s = G.structure
    report = MVCorrespondenceReport(G, ideal_count=len(lattice.ideals))

    traces: Dict[Ideal, frozenset] = {
        I: frozenset(x for x in box if contains(s, I, x)) for I in lattice.ideals
    }
    report.distinct_traces = len(set(traces.values())) == len(lattice.ideals)

    boxset = frozenset(box)
    closure_ok = True
    for I, T in traces.items():
        if zero(s) not in T:
            closure_ok = False
        for x in T:
            for y in T:
                z = alg.oplus(x, y)
                if z in boxset and z not in T:
                    closure_ok = False
        for x in T:
            for y in box:
                if leq(s, y, x) and y not in T:
                    closure_ok = False
    report.closure_ok = closure_ok

    primes = set(space.primes)
    maxes = set(space.max_ideals())
    primality_ok = True
    maximality_ok = True
    nmax = max(2, _max_coordinate(G.unit))
    for I in lattice.ideals:
        if not is_proper(I):
            continue
        T = traces[I]
        entry = TraceCorrespondence(I, I in primes, I in maxes)
        entry.mv_prime_on_box = not any(
            meet(s, x, y) in T and x not in T and y not in T
            for x in box
            for y in box
        )
        outside = [x for x in box if x not in T]
        entry.mv_maximal_on_box = bool(outside) and all(
            any(
                alg.neg(alg.clamp(scale(s, n, x))) in T
                for n in range(1, nmax + 1)
            )
            for x in outside
        )
        if entry.mv_prime_on_box != entry.prime:
            primality_ok = False
        if entry.mv_maximal_on_box != entry.maximal:
            maximality_ok = False
        report.entries.append(entry)
    report.primality_ok = primality_ok
    report.maximality_ok = maximality_ok

    rad = radical(G)
    report.radical = rad
    expected = frozenset(boxset)
    for m in space.max_ideals():
        expected &= traces[m]
    report.radical_trace_ok = traces[rad] == expected
    return report


def _max_coordinate(e: Element) -> int:
    if isinstance(e, int):
        return abs(e)
    return max(_max_coordinate(p) for p in e)
