"""Congruence patching: the classical, strong, and zero-set solvers.

Every ideal here is a coordinate subgroup.  An element's coordinates are
its integers (an atom's value, a lex node's top); an ideal I pins the
coordinates at which all its members are 0, and it holds exactly the
elements that are 0 there.  So a constraint (I, t) pins t's values at the
coordinates of I and says nothing about the others, and the classical
solver writes its solution in closed form: each coordinate takes the
value of the first target whose ideal pins it, and the last target's
value where none does.  ``_solution`` folds that from the last constraint
back with the patch kernel ``_patch(g, t, I)``, which is t on the
coordinates of I and g elsewhere: g = t_last, then g = _patch(g, t_k, I_k)
for k descending, so an earlier target overwrites what it pins.

The fold is its own compatibility test.  A system is solvable exactly
when every two targets agree where both ideals pin (Keimel's condition:
t_i - t_j lies in I_i v I_j).  Then at each coordinate that I_k pins,
the closed form takes the value of the first target that pins it, which
agrees with t_k there, so g = t_k mod I_k for every k; and when no
solution exists, g fails some constraint.  So checking g against every
constraint decides compatibility, and every solution returned has passed
that check.  A failed check proves some pair incompatible, but not which
one comes first in the order (0, 1), (0, 2), ..., (1, 2), ... that
certificates use, so only then are the pairs swept, to name it.

The strong solver demands agreement only at maximal ideals above each
pairwise join.  Every maximal ideal here sits at a top position (see
``lgroup.yosida``), so the hypothesis reads: two targets have equal
integers at every top position where both ideals are proper (a certificate
builds the maximal ideal there with ``core._max_meet``).  On strongly
semisimple groups that weaker hypothesis upgrades to full compatibility
and the classical fold solves the system.  When strong semisimplicity
fails the solver refuses with a certificate that also reports whether the
stronger classical hypothesis happened to hold anyway (on these groups,
that is exactly when a solution exists), read off the same fold.

The zero-set solver is the functional form of the strong one: constraints
are given by generator elements, whose zero sets say where each target
must be matched.  It hands the principal ideals of the generators to the
strong solver, whose hypothesis is then agreement on the overlap of each
two zero sets, so the check lives in one place.

Hypotheses are always checked, never assumed; every failure carries a
structured certificate naming the violated condition.  ``_normalize`` (and,
in ``zero_set_patch``, the generator check) is the solvers' only validation:
the fold, its check and both hypothesis checks trust their operands and
call the structure's stored kernels (see ``core._Structure``): the patch
``_patch(g, t, I)``, which is also the congruence test (g = t mod I exactly
when the patch returns g), one walk each per constraint, and the top
integers of ``core.top_values``.  The ideal closed forms come
from ``lgroup.core`` too, so a solver call loads neither ``lgroup.ideals``
nor ``lgroup.yosida`` nor ``lgroup.spectrum``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence, Tuple, Union

from .core import (
    Element,
    Ideal,
    InternalInvariantViolation,
    LGroupError,
    UnitalGroup,
    _group_structure,
    _max_meet,
    _Record,
    check_element,
    check_ideal,
    ideal_join,
    principal_ideal,
    top_values,
)
from .semisimple import is_strongly_semisimple


class NotInJoin(LGroupError):
    """The element to split does not belong to the join of the two ideals."""


class LengthMismatch(LGroupError):
    """Generator and target lists have different lengths."""


class CongruenceSystem(_Record):
    """An ordered list of (ideal, target) constraints; duplicates allowed."""

    __slots__ = ("constraints",)

    @classmethod
    def of(cls, pairs) -> "CongruenceSystem":
        """The system of ``pairs``, any iterable of two-item iterables."""
        try:
            pairs = iter(pairs)
        except TypeError:
            raise LGroupError("system: expected an iterable of (ideal, target) pairs") from None
        constraints = []
        for k, constraint in enumerate(pairs):
            try:
                I, g = constraint
            except (TypeError, ValueError):
                raise LGroupError(f"constraint {k}: expected an (ideal, target) pair") from None
            constraints.append((I, g))
        return cls(tuple(constraints))

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)


SystemLike = Union[CongruenceSystem, Iterable[Tuple[Ideal, Element]]]


class Incompatible(_Record):
    """Targets i and j disagree modulo the join of their ideals."""

    kind = "incompatible"
    __slots__ = ("i", "j", "difference", "join_ideal")


class MaxHypothesisViolated(_Record):
    """Targets i and j disagree at a maximal ideal above their join."""

    kind = "max-hypothesis-violated"
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

    kind = "not-strongly-semisimple"
    __slots__ = ("witness", "keimel_hypothesis_holds", "incompatible_pair")
    _defaults = {"incompatible_pair": None}

    @property
    def solution_exists(self) -> bool:
        return self.keimel_hypothesis_holds


class IncompatibleOnZeroSets(_Record):
    """Targets i and j take different values on a shared zero-set point."""

    kind = "incompatible-on-zero-sets"
    __slots__ = ("i", "j", "maximal")


# each certificate's JSON is its ``kind`` and its record's fields
# (``serialize.certificate_to_json``)
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

    # the solvers pass all three fields by position: a keyword call goes
    # through ``_Frozen._arguments``, a dict merge about three times slower
    __slots__ = ("solution", "unique", "certificate")
    _defaults = {"solution": None, "unique": False, "certificate": None}

    @property
    def solved(self) -> bool:
        return self.solution is not None


def _normalize(G: UnitalGroup, system: SystemLike) -> CongruenceSystem:
    s = _group_structure(G)
    system = CongruenceSystem.of(system)
    for I, g in system:
        check_ideal(s, I)
        check_element(s, g)
    return system


def riesz_split(
    G: UnitalGroup, d: Element, I: Ideal, J: Ideal
) -> Tuple[Element, Element]:
    """Write d (which must lie in the join of I and J) as a + b with a in I
    and b in J.

    Deterministic: a is the patch ``_patch(d, 0, I)`` of the structure,
    d off the coordinates I pins and 0 on them, so a coordinate claimable
    by both ideals goes to the first one; b = d - a is d on those
    coordinates, and it lies in J exactly when d lies in I v J.  Raises
    NotInJoin otherwise.  The operands are checked, and so is a in I.
    """
    s = _group_structure(G)
    check_element(s, d)
    check_ideal(s, I)
    check_ideal(s, J)
    a = s._patch(d, s._zero, I)
    if s._patch(d, a, J) != d:
        raise NotInJoin(f"{d!r} is not in {I!r} v {J!r}")
    if s._patch(a, s._zero, I) != a:
        raise InternalInvariantViolation("riesz split postcondition failed")
    return a, s._sub(d, a)


def _solution(G: UnitalGroup, system: CongruenceSystem):
    """The closed form folded from the last constraint back (module
    docstring), if it satisfies every constraint, else None."""
    s = G.structure
    cons = system.constraints
    if not cons:
        return s._zero
    g = cons[-1][1]
    for I, t in reversed(cons[:-1]):
        g = s._patch(g, t, I)
    for I, t in cons:
        if s._patch(g, t, I) != g:
            return None
    return g


def _pairwise_failure(G: UnitalGroup, system: CongruenceSystem):
    """The first pair i < j whose targets differ outside the join of their
    ideals, as (i, j, difference, join).  Run only once the fold has
    failed its check, so there is one."""
    cons = enumerate(system.constraints)
    for (i, (Ii, gi)), (j, (Ij, gj)) in itertools.combinations(cons, 2):
        joined = ideal_join(Ii, Ij)
        if G.structure._patch(gi, gj, joined) != gi:
            return i, j, G.structure._sub(gi, gj), joined
    raise InternalInvariantViolation("the patch fold failed on a compatible system")


def _max_failure(G: UnitalGroup, system: CongruenceSystem):
    """The first pair i < j and top position k where both ideals are
    proper and the targets differ, as (i, j, k), or None.

    The maximal ideal at top position k lies above I v J exactly when both
    ideals are proper at k (bit k of their stored masks), and it holds the
    difference exactly when the targets agree there.  One pass keeps, at
    each top position, the first such target's integer; only a later one
    that differs sweeps the pairs, to name the first in certificate order.
    """
    s = G.structure
    rows = [(I._mask, top_values(s, g)) for I, g in system]
    first = {}
    if all(first.setdefault(k, x) == x for m, a in rows for k, x in enumerate(a) if m >> k & 1):
        return None
    for (i, (mi, a)), (j, (mj, b)) in itertools.combinations(enumerate(rows), 2):
        both = mi & mj
        for k, (x, y) in enumerate(zip(a, b)):
            if both >> k & 1 and x != y:
                return i, j, k
    raise InternalInvariantViolation("a top position disagrees, but no pair does")


def keimel_patch(G: UnitalGroup, system: SystemLike) -> PatchResult:
    """Solve a congruence system under the pairwise-compatibility hypothesis.

    Folds the closed form from the last constraint back (module
    docstring); the empty system solves to zero, and the result is checked
    against every constraint.  A failed check proves that some two targets
    disagree modulo the join of their ideals; only then are the pairs
    swept, to name the first such pair in an Incompatible certificate with
    0-based constraint indices.
    """
    system = _normalize(G, system)
    g = _solution(G, system)
    if g is not None:
        return PatchResult(g, False, None)
    return PatchResult(None, False, Incompatible(*_pairwise_failure(G, system)))


def strong_patch(G: UnitalGroup, system: SystemLike) -> PatchResult:
    """Solve a system whose targets agree at maximal ideals above each join.

    The system's ideals must be principal, which is a representation
    invariant of this class (every enumerable ideal carries a generator).
    Three phases: check the maximal-ideal hypothesis, equal integers at
    every top position where two ideals are proper (see ``lgroup.yosida``),
    in one pass; gate on strong semisimplicity; run the classical fold
    once.  On a strongly semisimple group the pairwise hypothesis now
    holds, so the fold passes its check against every constraint.
    Otherwise the solver refuses with a diagnostic certificate whose
    keimel_hypothesis_holds says whether the fold passed its check (by the
    module docstring, whether every pair is compatible); only a failed
    check sweeps the pairs, to name incompatible_pair.
    """
    return _strong(G, _normalize(G, system))


def _strong(G: UnitalGroup, system: CongruenceSystem) -> PatchResult:
    bad = _max_failure(G, system)
    if bad is not None:
        i, j, k = bad
        maximal = _max_meet(G.structure, 1 << k)
        return PatchResult(None, False, MaxHypothesisViolated(i, j, maximal))
    ok, witness = is_strongly_semisimple(G)
    g = _solution(G, system)
    if not ok:
        pair = None if g is not None else _pairwise_failure(G, system)[:2]
        return PatchResult(None, False, NotStronglySemisimple(witness, g is not None, pair))
    if g is None:
        raise InternalInvariantViolation(
            "maximal agreement failed to upgrade on a strongly semisimple group"
        )
    return PatchResult(g, False, None)


def _length(items, name: str) -> int:
    try:
        return len(items)
    except TypeError:
        raise LGroupError(f"{name}: expected a sequence of elements") from None


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
    s = _group_structure(G)
    n, m = _length(generators, "generators"), _length(targets, "targets")
    if n != m:
        raise LengthMismatch(f"{n} generators against {m} targets")
    ideals = [principal_ideal(s, h) for h in generators]
    for g in targets:
        check_element(s, g)
    result = _strong(G, CongruenceSystem(tuple(zip(ideals, targets))))
    cert = result.certificate
    if isinstance(cert, MaxHypothesisViolated):
        return PatchResult(None, False, IncompatibleOnZeroSets(cert.i, cert.j, cert.maximal))
    if cert is not None:
        return result
    # a top position is covered when some generator is 0 there, that is,
    # when its principal ideal is proper there
    covered = 0
    for I in ideals:
        covered |= I._mask
    unique = bool(ideals) and covered == (1 << ideals[0]._width) - 1
    return PatchResult(result.solution, unique, None)
