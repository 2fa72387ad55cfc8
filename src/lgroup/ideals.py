"""Ideal lattices, quotients, and congruence tests.

An ideal here is always an order-convex sublattice subgroup, represented
structurally so that membership, meet, and join are decided by shape
recursion, and containment is a meet:

* ``AtomIdeal(full)``   -- {0} or all of Z;
* ``ProdIdeal(parts)``  -- a componentwise product of child ideals (every
  ideal of a finite product decomposes this way, by convexity);
* ``LexIdeal(inner)``   -- either the whole lexicographic extension
  (``inner is None``) or {0} x inner: any member with a nonzero dominant
  component generates everything, so proper ideals live in the bottom.

The node classes live in ``lgroup.core``, which a structure node's
ideal kernels need, and are imported here.  Each ideal node stores its
own facts from construction (see ``core._Ideal``): the zero and whole
tests, the canonical JSON, ``yosida.top_index`` and the strong solver's
hypothesis check read them instead of walking.  The constructors refuse
what is not an ideal, naming its position.  What depends on the
structure as well is a set of kernels that each structure node stores
from construction, like the element kernels (see ``core._Structure``):
the shape check of ``check_ideal``, congruence (and so membership),
generation, the patch solvers' patch, and the whole ideal.  Each is one
call, with no dispatch on the node class; ``check_ideal`` descends only
after the shape check fails, to name the position.  The meet of the
maximal ideals at any set of top positions has one closed form,
``_max_meet``: the whole group, the radical and a certificate's maximal
ideal are the meets of none, all and one.

Because the class only has finitely many ideals per structure, the whole
lattice is enumerable and every ideal turns out to be principal; the
enumeration order is fixed (zero first, whole group last) and all outputs
respect it.  A quotient is one walk over the structure and the divisor,
which yields the shape of the quotient and the image of an element
together.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .core import (
    Atom,
    AtomIdeal,
    Element,
    Ideal,
    Lex,
    LexIdeal,
    Path,
    Prod,
    ProdIdeal,
    ShapeMismatch,
    Structure,
    UnitalGroup,
    _ATOM_IDEALS,
    _WHOLE_LEX,
    _Record,
    _store,
    _trusted_group,
    check_element,
    zero,
)

# entries kept by each of the per-group caches (``enumerate_ideals``,
# ``spectrum.compute_spectrum``), so a long-running process holds a bounded
# number of lattices and spectra
CACHE_SIZE = 128


def _structure_of(g) -> Structure:
    return g.structure if isinstance(g, UnitalGroup) else g


def zero_ideal(structure) -> Ideal:
    """The ideal generated by the stored zero element, which the node
    stores at its first use (see ``lgroup.core``)."""
    s = _structure_of(structure)
    return s._zero_ideal or _store(s, "_zero_ideal", s._gen(s._zero))


def all_ideal(structure) -> Ideal:
    """The whole group, the meet of no maximal ideal: a stored kernel."""
    return _structure_of(structure)._all


def _max_meet(structure, mask: int) -> Ideal:
    """The meet of the maximal ideals at the top positions (see
    ``lgroup.yosida``) whose bits are set in ``mask``: zero at such an atom,
    bottom(all) at such a lex node, whole elsewhere.  A product's children
    are taken in a loop, with one frame, past each part's positions."""
    if not mask:
        return structure._all
    if isinstance(structure, Atom):
        return _ATOM_IDEALS[not mask & 1]
    if isinstance(structure, Prod):
        parts = []
        for child in structure.children:
            part = _max_meet(child, mask)
            parts.append(part)
            mask >>= part._width
        return ProdIdeal(tuple(parts))
    return LexIdeal(structure.bottom._all) if mask & 1 else _WHOLE_LEX


def is_zero_ideal(I: Ideal) -> bool:
    return I._zero


def is_all_ideal(I: Ideal) -> bool:
    return not I._mask


def is_proper(I: Ideal) -> bool:
    return I._mask != 0


def check_ideal(structure, I: Ideal, path: Path = ()) -> None:
    """Validate that ``I`` matches the shape of ``structure``: one call of
    its stored shape check.  Only a failure descends, into the first
    malformed part, to name the first bad position in pre-order."""
    s = _structure_of(structure)
    while not s._shape(I):
        if type(s) is Atom:
            raise ShapeMismatch(path, f"expected an atom ideal, got {I!r}")
        if type(s) is Prod:
            n = len(s.children)
            if not isinstance(I, ProdIdeal) or len(I.parts) != n:
                raise ShapeMismatch(path, f"expected a {n}-part product ideal, got {I!r}")
            bad = [not c._shape(part) for c, part in zip(s.children, I.parts)]
            i = bad.index(True)
            s, I, path = s.children[i], I.parts[i], path + (i,)
            continue
        if not isinstance(I, LexIdeal):
            raise ShapeMismatch(path, f"expected a lex ideal, got {I!r}")
        s, I, path = s.bottom, I.inner, path + ("bottom",)


def contains(structure, I: Ideal, g: Element) -> bool:
    """Decide membership g in I: the stored kernel ``_agree`` against 0.

    Atom: zero holds only 0; Prod: componentwise; Lex: the whole group
    holds everything, while {0} x J holds (a, t) iff a = 0 and t in J.
    """
    structure = _structure_of(structure)
    check_ideal(structure, I)
    check_element(structure, g)
    return structure._agree(I, g, structure._zero)


def ideal_leq(I: Ideal, J: Ideal) -> bool:
    """Containment I subseteq J: I is proper at every top position where J
    is (a test of the stored masks, which builds nothing), and their meet
    is I, one object, as ideal nodes are interned."""
    return (J._mask & ~I._mask) == 0 and ideal_meet(I, J) is I


def ideal_meet(I: Ideal, J: Ideal) -> Ideal:
    # equal ideals are one object, and the whole ideal (mask 0) is the meet's unit
    if I is J or not J._mask:
        return I
    if not I._mask:
        return J
    if isinstance(I, ProdIdeal):
        return ProdIdeal(tuple(map(ideal_meet, I.parts, J.parts)))
    # both proper: {0} x inner at a lex node (proper atom ideals are zero, one object)
    return LexIdeal(ideal_meet(I.inner, J.inner))


def ideal_join(I: Ideal, J: Ideal) -> Ideal:
    if I is J:
        return I
    if isinstance(I, AtomIdeal):
        return _ATOM_IDEALS[I.full or J.full]
    if isinstance(I, ProdIdeal):
        return ProdIdeal(tuple(map(ideal_join, I.parts, J.parts)))
    if I.inner is None or J.inner is None:
        return LexIdeal(None)
    return LexIdeal(ideal_join(I.inner, J.inner))


def principal_ideal(structure, g: Element) -> Ideal:
    """The smallest ideal containing g.

    A nonzero dominant component in a lex extension forces the whole
    group; otherwise generation happens inside the bottom.
    """
    structure = _structure_of(structure)
    check_element(structure, g)
    return structure._gen(g)


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


def ideal_count(structure) -> int:
    """Size of the ideal lattice, stored on the node at construction."""
    return _structure_of(structure)._ideal_count


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_ideals(G: UnitalGroup) -> IdealLattice:
    """Enumerate all ideals in canonical order (zero first, whole group last).

    Principality flags are computed honestly: each ideal gets a canonical
    generator candidate and the flag records whether that candidate
    actually generates it.
    """
    s = G.structure
    ideals = _enumerate(s)
    generators = tuple(_generator(s, I) for I in ideals)
    principal = tuple(s._gen(g) == I for g, I in zip(generators, ideals))
    return IdealLattice(G, ideals, principal, generators)


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
    check_ideal(G.structure, I)
    res = _quotient(G.structure, I, G.unit)
    return QuotientResult(None if res is None else _trusted_group(*res), G.structure, I)


def congruent(G: UnitalGroup, g: Element, h: Element, I: Ideal) -> bool:
    """True iff g and h fall in the same congruence class modulo I."""
    check_element(G.structure, g)
    check_element(G.structure, h)
    check_ideal(G.structure, I)
    return G.structure._agree(I, g, h)
