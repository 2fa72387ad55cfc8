"""Congruence patching: the classical, strong, and zero-set solvers.

The classical solver accepts any finite system of (ideal, target)
constraints and merges targets left to right: at each step the difference
between the running solution and the next target is split across the meet
of the processed ideals and the next ideal, and the processed-side part is
subtracted off.  The merge is its own compatibility test, by the merge
lemma: the running element agrees with each earlier target t_i modulo
I_i, and the ideal lattice is distributive, so the difference at step k
lies in the join being split exactly when t_i - t_k lies in I_i v I_k for
every i < k.  A merge that finishes proves every pair compatible.  A stuck
step proves some pair is not, but not which one comes first in the order
(0, 1), (0, 2), ..., (1, 2), ... that certificates use (with (1, 2) and
(0, 3) incompatible, the merge gets stuck at step 2), so only then are
the pairs swept, to name it.

The strong solver demands agreement only at maximal ideals above each
pairwise join.  Every maximal ideal here sits at a top position (see
``lgroup.yosida``), so the hypothesis reads: two targets have equal
integers at every top position where both ideals are proper (a certificate
builds the maximal ideal there with ``ideals._max_meet``).  On strongly
semisimple groups that weaker hypothesis upgrades to full compatibility
and the classical merge finishes the job.  When strong semisimplicity
fails the solver refuses with a certificate that also reports whether the
stronger classical hypothesis happened to hold anyway (on these groups,
that is exactly when a solution exists), read off the same merge.

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
    _max_meet,
    _proper_mask,
    _top_width,
    all_ideal,
    check_ideal,
    ideal_join,
    ideal_meet,
    principal_ideal,
)
from .semisimple import is_strongly_semisimple
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
    one.  Raises NotInJoin otherwise.  The merge runs the same walk on
    operands it made itself, where the merge lemma (module docstring)
    makes a stuck step a proof of incompatibility; here the operands and
    the split are checked.
    """
    s = G.structure
    check_element(s, d)
    check_ideal(s, I)
    check_ideal(s, J)
    a = _split(s, d, I, J)
    if a is None:
        raise NotInJoin(f"{d!r} is not in {I!r} v {J!r}")
    b = sub(s, d, a)
    if not (_contains(s, I, a) and _contains(s, J, b)):
        raise InternalInvariantViolation("riesz split postcondition failed")
    return a, b


def _split(structure, d, I: Ideal, J: Ideal):
    """The part a in I of d = a + b with b = d - a in J, or None when d is
    not in I v J."""
    if isinstance(I, AtomIdeal):
        return d if I.full else (0 if J.full or d == 0 else None)
    if isinstance(I, ProdIdeal):
        parts = tuple(map(_split, structure.children, d, I.parts, J.parts))
        return None if None in parts else parts
    if I.inner is None:
        return d
    if J.inner is None:
        # give the first ideal its maximal share of the bottom component
        return 0, _split(structure.bottom, d[1], I.inner, all_ideal(structure.bottom))
    a = None if d[0] else _split(structure.bottom, d[1], I.inner, J.inner)
    return None if a is None else (0, a)


def _solution(G: UnitalGroup, system: CongruenceSystem):
    """The merged solution, verified against every constraint, or None
    when a step gets stuck."""
    s = G.structure
    cons = system.constraints
    if not cons:
        return zero(s)
    processed, g = cons[0]
    for I, t in cons[1:]:
        a = _split(s, sub(s, g, t), processed, I)
        if a is None:
            return None
        g = sub(s, g, a)
        processed = ideal_meet(processed, I)
    _verify(G, system, g)
    return g


def _pairwise_failure(G: UnitalGroup, system: CongruenceSystem):
    """The first pair i < j whose targets differ outside the join of their
    ideals, as (i, j, difference, join).  Run only once the merge has got
    stuck, so there is one."""
    cons = enumerate(system.constraints)
    for (i, (Ii, gi)), (j, (Ij, gj)) in itertools.combinations(cons, 2):
        joined, diff = ideal_join(Ii, Ij), sub(G.structure, gi, gj)
        if not _contains(G.structure, joined, diff):
            return i, j, diff, joined
    raise InternalInvariantViolation("the merge got stuck on a compatible system")


def _max_failure(G: UnitalGroup, system: CongruenceSystem):
    """The first pair i < j and top position k where both ideals are
    proper and the targets differ, as (i, j, k), or None.

    The maximal ideal at top position k lies above I v J exactly when it
    lies above I and J, that is, when both ideals are proper at k (bit k
    of their stored masks), and it holds the difference exactly when the
    targets agree there.
    """
    s = G.structure
    rows = [(_proper_mask(I), top_values(s, g)) for I, g in system]
    for (i, (mi, a)), (j, (mj, b)) in itertools.combinations(enumerate(rows), 2):
        both = mi & mj
        for k, (x, y) in enumerate(zip(a, b)):
            if both >> k & 1 and x != y:
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

    Merges targets sequentially, keeping the invariant that the running
    element is congruent to every processed target; the empty system
    solves to zero, and every solution is verified against each
    constraint.  By the merge lemma (module docstring) a stuck step proves
    that some two targets disagree modulo the join of their ideals; only
    then are the pairs swept, to name the first such pair in an
    Incompatible certificate with 0-based constraint indices.
    """
    system = _normalize(G, system)
    g = _solution(G, system)
    if g is not None:
        return PatchResult(solution=g)
    return PatchResult(certificate=Incompatible(*_pairwise_failure(G, system)))


def strong_patch(G: UnitalGroup, system: SystemLike) -> PatchResult:
    """Solve a system whose targets agree at maximal ideals above each join.

    The system's ideals must be principal, which is a representation
    invariant of this class (every enumerable ideal carries a generator).
    Three phases: check the maximal-ideal hypothesis for every pair, which
    asks that the two targets have equal integers at every top position
    where both ideals are proper (see ``lgroup.yosida``; the diagonal is
    vacuous); gate on strong semisimplicity; run the classical merge once.
    On a strongly semisimple group the pairwise hypothesis now holds, so
    the merge finishes and its result is verified.  Otherwise the solver
    refuses with a diagnostic certificate whose keimel_hypothesis_holds
    says whether the merge finished (by the merge lemma of the module
    docstring, whether every pair is compatible); only a stuck merge
    sweeps the pairs, to name incompatible_pair.
    """
    return _strong(G, _normalize(G, system))


def _strong(G: UnitalGroup, system: CongruenceSystem) -> PatchResult:
    bad = _max_failure(G, system)
    if bad is not None:
        i, j, k = bad
        maximal = _max_meet(G.structure, 1 << k)
        return PatchResult(certificate=MaxHypothesisViolated(i, j, maximal))
    ok, witness = is_strongly_semisimple(G)
    g = _solution(G, system)
    if not ok:
        pair = None if g is not None else _pairwise_failure(G, system)[:2]
        return PatchResult(certificate=NotStronglySemisimple(witness, g is not None, pair))
    if g is None:
        raise InternalInvariantViolation(
            "maximal agreement failed to upgrade on a strongly semisimple group"
        )
    return PatchResult(solution=g)


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
    # a top position is covered when some generator is 0 there, that is,
    # when its principal ideal is proper there
    covered = 0
    for I in ideals:
        covered |= _proper_mask(I)
    unique = bool(ideals) and covered == (1 << _top_width(ideals[0])) - 1
    return PatchResult(solution=result.solution, unique=unique)
