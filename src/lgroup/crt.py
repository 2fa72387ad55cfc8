"""Congruence patching: the classical, strong, and zero-set solvers.

The classical solver accepts any finite system of (ideal, target)
constraints, checks pairwise compatibility modulo the join of each pair of
ideals, and merges targets left to right: at each step the difference
between the running solution and the next target is split across the meet
of the processed ideals and the next ideal, and the processed-side part is
subtracted off.  Distributivity of the ideal lattice guarantees the
difference lies in the join that is being split, so the merge never gets
stuck once the compatibility check has passed.

The strong solver demands agreement only at maximal ideals above each
pairwise join.  Every maximal ideal here sits at a top position (see
``lgroup.yosida``), so the hypothesis reads: two targets have equal
integers at every top position where both ideals are proper.  On strongly
semisimple groups that weaker hypothesis upgrades to full compatibility
and the classical merge finishes the job.  When strong semisimplicity
fails the solver refuses with a certificate that also reports whether the
stronger classical hypothesis happened to hold anyway (on these groups,
that is exactly when a solution exists).

The zero-set solver is the functional form of the strong one: constraints
are given by generator elements, whose zero sets say where each target
must be matched.  It hands the principal ideals of the generators to the
strong solver, whose hypothesis is then agreement on the overlap of each
two zero sets, so the check lives in one place.

Hypotheses are always checked, never assumed; every failure carries a
structured certificate naming the violated condition.  ``_normalize`` (and,
in ``zero_set_patch``, the generator check) is the solvers' only validation:
the merge, both hypothesis checks and ``_verify`` run on trusted walks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence, Tuple, Union

from .core import (
    Element,
    InternalInvariantViolation,
    LGroupError,
    UnitalGroup,
    _Record,
    check_element,
    sub,
    zero,
)
from .ideals import (
    AtomIdeal,
    Ideal,
    ProdIdeal,
    _contains,
    all_ideal,
    canonical_generator,
    check_ideal,
    ideal_join,
    ideal_meet,
    principal_ideal,
)
from .semisimple import is_strongly_semisimple
from .spectrum import compute_spectrum
from .yosida import top_values


class NotInJoin(LGroupError):
    """The element to split does not belong to the join of the two ideals."""


class LengthMismatch(LGroupError):
    """Generator and target lists have different lengths."""


class CongruenceSystem(_Record):
    """An ordered list of (ideal, target) constraints; duplicates allowed."""

    __slots__ = ("constraints",)

    @classmethod
    def of(cls, pairs) -> "CongruenceSystem":
        return cls(tuple((I, g) for I, g in pairs))

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


SystemLike = Union[CongruenceSystem, Iterable[Tuple[Ideal, Element]]]


class Incompatible(_Record):
    """Targets i and j disagree modulo the join of their ideals."""

    __slots__ = ("i", "j", "difference", "join_ideal")


class MaxHypothesisViolated(_Record):
    """Targets i and j disagree at a maximal ideal above their join."""

    __slots__ = ("i", "j", "maximal")


class NotStronglySemisimple(_Record):
    """The group fails the strong-semisimplicity hypothesis.

    ``witness`` is the least ideal with a non-semisimple quotient, which
    in this class is always the zero ideal (the group itself fails).
    ``keimel_hypothesis_holds`` reports whether the system happened to
    satisfy the unconditional pairwise hypothesis anyway; on these groups
    a solution exists exactly in that case, so it doubles as a
    solvability diagnostic.  ``incompatible_pair`` names the first pair
    breaking the pairwise hypothesis when there is one.
    """

    __slots__ = ("witness", "keimel_hypothesis_holds", "incompatible_pair")
    _defaults = {"incompatible_pair": None}

    @property
    def solution_exists(self) -> bool:
        return self.keimel_hypothesis_holds


class IncompatibleOnZeroSets(_Record):
    """Targets i and j take different values on a shared zero-set point."""

    __slots__ = ("i", "j", "maximal")


Certificate = Union[
    Incompatible, MaxHypothesisViolated, NotStronglySemisimple, IncompatibleOnZeroSets
]


class PatchResult(_Record):
    """Outcome of a patching run.

    When ``solution`` is present it has been re-verified against every
    constraint; otherwise ``certificate`` names the violated hypothesis.
    ``unique`` is meaningful for the zero-set solver only, where it means
    the zero sets covered the whole maximal spectrum.
    """

    __slots__ = ("solution", "unique", "certificate")
    _defaults = {"solution": None, "unique": False, "certificate": None}

    @property
    def solved(self) -> bool:
        return self.solution is not None


def _normalize(G: UnitalGroup, system: SystemLike) -> CongruenceSystem:
    constraints = []
    for k, constraint in enumerate(system):
        try:
            I, g = constraint
        except (TypeError, ValueError):
            raise LGroupError(f"constraint {k}: expected an (ideal, target) pair") from None
        check_ideal(G.structure, I)
        check_element(G.structure, g)
        constraints.append((I, g))
    return CongruenceSystem(tuple(constraints))


def riesz_split(
    G: UnitalGroup, d: Element, I: Ideal, J: Ideal
) -> Tuple[Element, Element]:
    """Write d (which must lie in the join of I and J) as a + b with a in I
    and b in J.

    Deterministic: a coordinate claimable by both ideals goes to the first
    one.  Raises NotInJoin otherwise.
    """
    check_element(G.structure, d)
    check_ideal(G.structure, I)
    check_ideal(G.structure, J)
    return _riesz(G, d, I, J)


def _riesz(G: UnitalGroup, d: Element, I: Ideal, J: Ideal):
    if not _contains(G.structure, ideal_join(I, J), d):
        raise NotInJoin(f"{d!r} is not in {I!r} v {J!r}")
    a, b = _split(G.structure, d, I, J)
    if not (
        _contains(G.structure, I, a)
        and _contains(G.structure, J, b)
        and G.add(a, b) == d
    ):
        raise InternalInvariantViolation("riesz split postcondition failed")
    return a, b


def _split(structure, d, I: Ideal, J: Ideal):
    if isinstance(I, AtomIdeal):
        if I.full:
            return d, 0
        if J.full:
            return 0, d
        return 0, 0  # d == 0 here, guaranteed by the join membership check
    if isinstance(I, ProdIdeal):
        pairs = [
            _split(c, x, p, q)
            for c, x, p, q in zip(structure.children, d, I.parts, J.parts)
        ]
        return tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    if I.inner is None:
        return d, (0, zero(structure.bottom))
    if J.inner is None:
        # give the first ideal its maximal share of the bottom component
        ta, tb = _split(
            structure.bottom, d[1], I.inner, all_ideal(structure.bottom)
        )
        return (0, ta), (d[0], tb)
    ta, tb = _split(structure.bottom, d[1], I.inner, J.inner)
    return (0, ta), (0, tb)


def _pairwise_failure(G: UnitalGroup, system: CongruenceSystem):
    """The first pair i < j whose targets differ outside the join of their
    ideals, as (i, j, difference, join), or None."""
    cons = enumerate(system.constraints)
    for (i, (Ii, gi)), (j, (Ij, gj)) in itertools.combinations(cons, 2):
        joined, diff = ideal_join(Ii, Ij), sub(G.structure, gi, gj)
        if not _contains(G.structure, joined, diff):
            return i, j, diff, joined
    return None


def _max_failure(G: UnitalGroup, system: CongruenceSystem):
    """The first pair i < j and top position k where both ideals are
    proper and the targets differ, as (i, j, k), or None.

    The maximal ideal at top position k lies above I v J exactly when it
    lies above I and J, that is, when both canonical generators are 0 at
    k, and it holds the difference exactly when the targets agree there.
    So each constraint becomes its target's integers at the tops where its
    ideal is proper, None elsewhere.
    """
    s = G.structure
    rows = [
        [
            v if c == 0 else None
            for c, v in zip(top_values(s, canonical_generator(s, I)), top_values(s, g))
        ]
        for I, g in system
    ]
    for (i, a), (j, b) in itertools.combinations(enumerate(rows), 2):
        for k, (x, y) in enumerate(zip(a, b)):
            if x is not None and y is not None and x != y:
                return i, j, k
    return None


def _verify(G: UnitalGroup, system: CongruenceSystem, g: Element) -> None:
    for I, gi in system:
        if not _contains(G.structure, I, sub(G.structure, g, gi)):
            raise InternalInvariantViolation(
                f"patch result fails its congruence modulo {I!r}"
            )


def keimel_patch(G: UnitalGroup, system: SystemLike) -> PatchResult:
    """Solve a congruence system under the pairwise-compatibility hypothesis.

    Checks that every two targets agree modulo the join of their ideals
    (returning an Incompatible certificate with 0-based constraint indices
    on failure), then merges targets sequentially.  The loop keeps the
    invariant that the running element is congruent to every processed
    target; the empty system solves to zero.
    """
    return _merge(G, _normalize(G, system))


def _merge(G: UnitalGroup, system: CongruenceSystem) -> PatchResult:
    # keimel_patch on a system that has been validated already
    bad = _pairwise_failure(G, system)
    if bad is not None:
        i, j, diff, joined = bad
        return PatchResult(certificate=Incompatible(i, j, diff, joined))
    cons = system.constraints
    if not cons:
        return PatchResult(solution=zero(G.structure))
    g = cons[0][1]
    processed = cons[0][0]
    for Ik, gk in cons[1:]:
        d = sub(G.structure, g, gk)
        a, _ = _riesz(G, d, processed, Ik)
        g = sub(G.structure, g, a)
        processed = ideal_meet(processed, Ik)
    _verify(G, system, g)
    return PatchResult(solution=g)


def strong_patch(G: UnitalGroup, system: SystemLike) -> PatchResult:
    """Solve a system whose targets agree at maximal ideals above each join.

    The system's ideals must be principal, which is a representation
    invariant of this class (every enumerable ideal carries a generator).
    Three phases: check the maximal-ideal hypothesis for every pair, which
    asks that the two targets have equal integers at every top position
    where both ideals are proper (see ``lgroup.yosida``; the diagonal is
    vacuous); gate on strong semisimplicity, refusing with a diagnostic
    certificate otherwise; then hand over to the classical merge, whose
    stronger hypothesis is now guaranteed to hold and whose result is
    verified against every constraint.
    """
    return _strong(G, _normalize(G, system))


def _strong(G: UnitalGroup, system: CongruenceSystem) -> PatchResult:
    bad = _max_failure(G, system)
    if bad is not None:
        i, j, k = bad
        maximal = compute_spectrum(G).max_ideals()[k]
        return PatchResult(certificate=MaxHypothesisViolated(i, j, maximal))
    ok, witness = is_strongly_semisimple(G)
    if not ok:
        bad = _pairwise_failure(G, system)
        return PatchResult(
            certificate=NotStronglySemisimple(
                witness=witness,
                keimel_hypothesis_holds=bad is None,
                incompatible_pair=None if bad is None else (bad[0], bad[1]),
            )
        )
    result = _merge(G, system)
    if result.solution is None:
        raise InternalInvariantViolation(
            "maximal agreement failed to upgrade on a strongly semisimple group"
        )
    return result


def zero_set_patch(
    G: UnitalGroup,
    generators: Sequence[Element],
    targets: Sequence[Element],
) -> PatchResult:
    """Match targets on the zero sets of the generators.

    Each generator h carries the constraint "agree with the corresponding
    target wherever h vanishes", which is the constraint (<h>, target) of
    the strong solver: a maximal ideal lies above <h_i> v <h_j> exactly
    when it is in both zero sets.  So the strong solver checks the one
    hypothesis, agreement on each overlap, and its MaxHypothesisViolated
    is reported as IncompatibleOnZeroSets for the same pair and maximal
    ideal; it also checks that the group is strongly semisimple and
    produces the element.  The result is unique exactly when the zero sets
    cover the whole maximal spectrum: two solutions then agree everywhere,
    and the trivial radical forces them equal.
    """
    if len(generators) != len(targets):
        raise LengthMismatch(
            f"{len(generators)} generators against {len(targets)} targets"
        )
    ideals = [principal_ideal(G.structure, h) for h in generators]
    for g in targets:
        check_element(G.structure, g)
    result = _strong(G, CongruenceSystem(tuple(zip(ideals, targets))))
    cert = result.certificate
    if isinstance(cert, MaxHypothesisViolated):
        return PatchResult(certificate=IncompatibleOnZeroSets(cert.i, cert.j, cert.maximal))
    if cert is not None:
        return result
    # a top position is covered when some generator is 0 there
    columns = zip(*(top_values(G.structure, h) for h in generators))
    unique = bool(generators) and all(0 in column for column in columns)
    return PatchResult(solution=result.solution, unique=unique)
