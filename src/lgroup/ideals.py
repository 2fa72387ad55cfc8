"""Ideal lattices, quotients, and congruence tests.

An ideal here is always an order-convex sublattice subgroup, represented
structurally: ``AtomIdeal(full)`` ({0} or all of Z), ``ProdIdeal(parts)``
(a componentwise product of child ideals) and ``LexIdeal(inner)`` (the
whole lexicographic extension, ``inner is None``, or {0} x inner).  The
node classes, their stored facts and kernels, and the closed forms that
read those facts (the zero and whole ideals, meet, join, containment,
``principal_ideal``, ``ideal_count`` and ``check_ideal``) live in
``lgroup.core``, which every command loads.  No command of the CLI but
``selftest`` loads this module.

What stays here walks the lattice or the quotient.  Because the class
only has finitely many ideals per structure, the whole lattice is
enumerable and every ideal turns out to be principal; the enumeration
order is fixed (zero first, whole group last) and all outputs respect
it.  ``enumerate_ideals`` refuses a lattice of more than ``MAX_IDEALS``
ideals with ``TooLarge``, from the count that the tree stores, before it
lists any.  Membership and congruence are one call of the stored patch
kernel (g = h mod I exactly when ``_patch(g, h, I)`` is g), and generators
one walk.  A quotient is one walk over the
structure and the divisor, which yields the shape of the quotient and the
image of an element together.
"""

from __future__ import annotations

import itertools
from functools import _CacheInfo
from typing import Optional

from .core import (
    Atom,
    Element,
    Ideal,
    Lex,
    LexIdeal,
    Prod,
    ProdIdeal,
    TooLarge,
    UnitalGroup,
    _ATOM_IDEALS,
    _Record,
    _group_structure,
    _structure_of,
    _trusted_group,
    check_element,
    check_ideal,
    zero,
)

# the most ideals ``enumerate_ideals`` lists: Z^16 has this many
MAX_IDEALS = 1 << 16


def contains(structure, I: Ideal, g: Element) -> bool:
    """Decide membership g in I: g = 0 mod I, so the stored patch of g
    by 0 on I is g.

    Atom: zero holds only 0; Prod: componentwise; Lex: the whole group
    holds everything, while {0} x J holds (a, t) iff a = 0 and t in J.
    """
    structure = _structure_of(structure)
    check_ideal(structure, I)
    check_element(structure, g)
    return structure._patch(g, structure._zero, I) == g


def full_generator(structure) -> Element:
    """A canonical single generator of the improper ideal."""
    structure = _structure_of(structure)
    return _generator(structure, structure._all)


def canonical_generator(structure, I: Ideal) -> Element:
    """A witness g with <g> = I (in this class every ideal is principal)."""
    structure = _structure_of(structure)
    check_ideal(structure, I)
    return _generator(structure, I)


def _generator(structure, I: Ideal) -> Element:
    if isinstance(structure, Atom):
        return 1 if I.full else 0
    if isinstance(structure, Prod):
        return tuple(map(_generator, structure.children, I.parts))
    if I.inner is None:
        return (1, zero(structure.bottom))
    return (0, _generator(structure.bottom, I.inner))


class IdealLattice(_Record):
    """The complete (finite, distributive) lattice of ideals of a group."""

    __slots__ = ("group", "ideals", "principal", "generators")

    def __len__(self) -> int:
        return len(self.ideals)

    @property
    def bottom(self) -> Ideal:
        return self.ideals[0]

    @property
    def top(self) -> Ideal:
        return self.ideals[-1]


def _enumerate(structure) -> tuple:
    if isinstance(structure, Atom):
        return (_ATOM_IDEALS[False], _ATOM_IDEALS[True])
    if isinstance(structure, Prod):
        pools = [_enumerate(c) for c in structure.children]
        return tuple(ProdIdeal(combo) for combo in itertools.product(*pools))
    inner = tuple(LexIdeal(i) for i in _enumerate(structure.bottom))
    return inner + (LexIdeal(None),)


# the walks of ``enumerate_ideals``, read by its ``cache_info()`` as misses
_walks = [0]


def enumerate_ideals(G: UnitalGroup) -> IdealLattice:
    """Enumerate all ideals in canonical order (zero first, whole group last).

    Principality flags are computed honestly: each ideal gets a canonical
    generator candidate and the flag records whether that candidate
    actually generates it.  A lattice of more than ``MAX_IDEALS`` ideals
    is refused with ``TooLarge``, in O(1), before any is listed.  Every
    call walks and nothing stores the lattice: it has 2^atoms ideals on a
    product of atoms, and only the law checks and the tests list it.
    """
    s = _group_structure(G)
    if s._ideal_count > MAX_IDEALS:
        raise TooLarge(s._ideal_count, MAX_IDEALS)
    _walks[0] += 1
    ideals = _enumerate(s)
    generators = tuple(_generator(s, I) for I in ideals)
    principal = tuple(s._gen(g) == I for g, I in zip(generators, ideals))
    return IdealLattice(G, ideals, principal, generators)


enumerate_ideals.cache_info = lambda: _CacheInfo(0, *_walks, 0, 0)


def _quotient(structure, I, g):
    """Walk ``structure`` and the divisor ``I`` together, projecting ``g``.

    Returns (shape of the quotient, image of g), or None when the quotient
    is trivial.  Trivial factors are dropped eagerly: a product keeping a
    single child collapses to it, and a lex extension whose bottom
    collapses becomes an Atom carrying the dominant component.
    """
    if isinstance(structure, Atom):
        return None if I.full else (structure, g)
    if isinstance(structure, Prod):
        kept = [
            q for q in map(_quotient, structure.children, I.parts, g) if q is not None
        ]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return Prod(tuple(s for s, _ in kept)), tuple(e for _, e in kept)
    # Lex: quotient by the whole group is trivial; by {0} x J it is the
    # lex extension of bottom/J
    if I.inner is None:
        return None
    below = _quotient(structure.bottom, I.inner, g[1])
    if below is None:
        return Atom(), g[0]
    return Lex(below[0]), (g[0], below[1])


class QuotientResult(_Record):
    """The quotient of a group by an ideal, kept as data.

    ``structure`` and ``divisor`` are the source structure and the ideal
    divided out; ``group`` is the quotient, or None exactly when it
    collapsed to the trivial group (quotient by the improper ideal).  Both
    projections return None on a trivial quotient, and ``project_ideal``
    is only meaningful on ideals containing the divisor.
    """

    __slots__ = ("group", "structure", "divisor")

    @property
    def trivial(self) -> bool:
        return self.group is None

    def project(self, e: Element) -> Optional[Element]:
        """The image of e in the quotient."""
        check_element(self.structure, e)
        res = _quotient(self.structure, self.divisor, e)
        return None if res is None else res[1]

    def project_ideal(self, J: Ideal) -> Optional[Ideal]:
        """The image of J: every ideal is principal, so project a generator."""
        check_ideal(self.structure, J)
        if self.group is None:
            return None
        _, g = _quotient(self.structure, self.divisor, _generator(self.structure, J))
        return self.group.structure._gen(g)


def quotient(G: UnitalGroup, I: Ideal) -> QuotientResult:
    """Quotient of G by I, staying inside the class.

    Trivial factors are dropped eagerly, so the result is again a valid
    structure; one walk gives it together with its unit, the image of
    G's unit.
    """
    s = _group_structure(G)
    check_ideal(s, I)
    res = _quotient(s, I, G.unit)
    return QuotientResult(None if res is None else _trusted_group(*res), s, I)


def congruent(G: UnitalGroup, g: Element, h: Element, I: Ideal) -> bool:
    """True iff g and h fall in the same congruence class modulo I: they
    agree where I pins, so the stored patch of g by h on I is g."""
    s = _group_structure(G)
    check_element(s, g)
    check_element(s, h)
    check_ideal(s, I)
    return s._patch(g, h, I) == g
