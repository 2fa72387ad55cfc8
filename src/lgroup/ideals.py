"""Ideal lattices, quotients, and congruence tests.

An ideal here is always an order-convex sublattice subgroup, represented
structurally so that membership, containment, meet, and join are all
decided by shape recursion:

* ``AtomIdeal(full)``   -- {0} or all of Z;
* ``ProdIdeal(parts)``  -- a componentwise product of child ideals (every
  ideal of a finite product decomposes this way, by convexity);
* ``LexIdeal(inner)``   -- either the whole lexicographic extension
  (``inner is None``) or {0} x inner: any member with a nonzero dominant
  component generates everything, so proper ideals live in the bottom.

Each ideal node stores its own facts from construction (see ``_Ideal``):
the zero and whole tests, the canonical JSON, ``yosida.top_index`` and the
strong solver's hypothesis check read them instead of walking.

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
from typing import Optional, Union

from .core import (
    Atom,
    Element,
    Lex,
    Path,
    Prod,
    ShapeMismatch,
    Structure,
    UnitalGroup,
    _intern,
    _Node,
    _Record,
    _trusted_group,
    check_element,
    render_tree,
    sub,
    zero,
)


class _Ideal(_Node):
    """An ideal node, with three facts stored at construction from its
    parts' in O(parts): ``_zero``, whether it is the zero ideal; ``_mask``,
    an int whose bit k is set when the ideal is proper at top position k
    (see ``lgroup.yosida``), 0 exactly when it is the whole group; and
    ``_width``, its number of top positions."""

    __slots__ = _facts = ("_zero", "_mask", "_width")


class AtomIdeal(_Ideal):
    __slots__ = ("full",)

    def __new__(cls, full: bool):
        entry = cls._table.get(fields := (full,))
        return entry and entry() or _intern(cls, fields, (not full, int(not full), 1))

    def __repr__(self) -> str:
        return "all" if self.full else "zero"


def _prod_ideal_facts(parts: tuple) -> tuple:
    # the parts' top positions, in order, are the product's
    zero, mask, width = True, 0, 0
    for part in parts:
        zero = zero and part._zero
        mask |= part._mask << width
        width += part._width
    return zero, mask, width


class ProdIdeal(_Ideal):
    __slots__ = ("parts",)

    def __new__(cls, parts: tuple):
        entry = cls._table.get(fields := (parts,))
        return entry and entry() or _intern(cls, fields, _prod_ideal_facts(parts))

    def __repr__(self) -> str:
        return render_tree(self, _spell_ideal)


class LexIdeal(_Ideal):
    __slots__ = ("inner",)  # None means the whole group

    def __new__(cls, inner: Optional["Ideal"]):
        entry = cls._table.get(fields := (inner,))
        # one top position, the dominant component: proper unless whole
        facts = (False, 0, 1) if inner is None else (inner._zero, 1, 1)
        return entry and entry() or _intern(cls, fields, facts)

    def __repr__(self) -> str:
        return render_tree(self, _spell_ideal)


Ideal = Union[AtomIdeal, ProdIdeal, LexIdeal]

# entries kept by each of the per-structure and per-group caches
# (``_enumerate``, ``enumerate_ideals``, ``spectrum.compute_spectrum``), so
# a long-running process holds a bounded number of lattices and spectra
CACHE_SIZE = 128


def _spell_ideal(I):
    if type(I) is ProdIdeal:
        return "(", I.parts, ",", ")"
    if type(I) is LexIdeal:
        return "all" if I.inner is None else ("bottom(", (I.inner,), "", ")")
    return "all" if I.full else "zero"


def _structure_of(g) -> Structure:
    return g.structure if isinstance(g, UnitalGroup) else g


def zero_ideal(structure) -> Ideal:
    """The ideal generated by the stored zero element."""
    structure = _structure_of(structure)
    return _principal(structure, structure._zero)


def all_ideal(structure) -> Ideal:
    structure = _structure_of(structure)
    if isinstance(structure, Atom):
        return AtomIdeal(True)
    if isinstance(structure, Prod):
        return ProdIdeal(tuple(map(all_ideal, structure.children)))
    return LexIdeal(None)


def is_zero_ideal(I: Ideal) -> bool:
    return I._zero


def is_all_ideal(I: Ideal) -> bool:
    return not I._mask


def is_proper(I: Ideal) -> bool:
    return I._mask != 0


def _proper_mask(I: Ideal) -> int:  # the readers of two of I's stored facts
    return I._mask


def _top_width(I: Ideal) -> int:
    return I._width


def check_ideal(structure, I: Ideal, path: Path = ()) -> None:
    """Validate that ``I`` matches the shape of ``structure``."""
    structure = _structure_of(structure)
    if isinstance(structure, Atom):
        if not isinstance(I, AtomIdeal):
            raise ShapeMismatch(path, f"expected an atom ideal, got {I!r}")
    elif isinstance(structure, Prod):
        n = len(structure.children)
        if not isinstance(I, ProdIdeal) or len(I.parts) != n:
            raise ShapeMismatch(path, f"expected a {n}-part product ideal, got {I!r}")
        for i, (child, part) in enumerate(zip(structure.children, I.parts)):
            check_ideal(child, part, path + (i,))
    else:
        if not isinstance(I, LexIdeal):
            raise ShapeMismatch(path, f"expected a lex ideal, got {I!r}")
        if I.inner is not None:
            check_ideal(structure.bottom, I.inner, path + ("bottom",))


def contains(structure, I: Ideal, g: Element) -> bool:
    """Decide membership g in I.

    Atom: zero holds only 0; Prod: componentwise; Lex: the whole group
    holds everything, while {0} x J holds (a, t) iff a = 0 and t in J.
    """
    structure = _structure_of(structure)
    check_ideal(structure, I)
    check_element(structure, g)
    return _contains(structure, I, g)


def _contains(structure, I, g) -> bool:
    if isinstance(structure, Atom):
        return I.full or g == 0
    if isinstance(structure, Prod):
        return all(map(_contains, structure.children, I.parts, g))
    if I.inner is None:
        return True
    return g[0] == 0 and _contains(structure.bottom, I.inner, g[1])


def ideal_leq(I: Ideal, J: Ideal) -> bool:
    """Containment I subseteq J, decided structurally."""
    if isinstance(I, AtomIdeal):
        return J.full or not I.full
    if isinstance(I, ProdIdeal):
        return all(map(ideal_leq, I.parts, J.parts))
    if J.inner is None:
        return True
    if I.inner is None:
        return False
    return ideal_leq(I.inner, J.inner)


def ideal_meet(I: Ideal, J: Ideal) -> Ideal:
    if I is J:  # equal ideals are one object
        return I
    if isinstance(I, AtomIdeal):
        return AtomIdeal(I.full and J.full)
    if isinstance(I, ProdIdeal):
        return ProdIdeal(tuple(map(ideal_meet, I.parts, J.parts)))
    if I.inner is None:
        return J
    if J.inner is None:
        return I
    return LexIdeal(ideal_meet(I.inner, J.inner))


def ideal_join(I: Ideal, J: Ideal) -> Ideal:
    if I is J:
        return I
    if isinstance(I, AtomIdeal):
        return AtomIdeal(I.full or J.full)
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
    return _principal(structure, g)


def _principal(structure, g) -> Ideal:
    if isinstance(structure, Atom):
        return AtomIdeal(g != 0)
    if isinstance(structure, Prod):
        return ProdIdeal(tuple(map(_principal, structure.children, g)))
    if g[0] != 0:
        return LexIdeal(None)
    return LexIdeal(_principal(structure.bottom, g[1]))


def full_generator(structure) -> Element:
    """A canonical single generator of the improper ideal."""
    structure = _structure_of(structure)
    return canonical_generator(structure, all_ideal(structure))


def canonical_generator(structure, I: Ideal) -> Element:
    """A witness g with <g> = I (in this class every ideal is principal)."""
    structure = _structure_of(structure)
    if isinstance(structure, Atom):
        return 1 if I.full else 0
    if isinstance(structure, Prod):
        return tuple(map(canonical_generator, structure.children, I.parts))
    if I.inner is None:
        return (1, zero(structure.bottom))
    return (0, canonical_generator(structure.bottom, I.inner))


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


@lru_cache(maxsize=CACHE_SIZE)
def _enumerate(structure) -> tuple:
    if isinstance(structure, Atom):
        return (AtomIdeal(False), AtomIdeal(True))
    if isinstance(structure, Prod):
        pools = [_enumerate(c) for c in structure.children]
        return tuple(ProdIdeal(combo) for combo in itertools.product(*pools))
    inner = tuple(LexIdeal(i) for i in _enumerate(structure.bottom))
    return inner + (LexIdeal(None),)


def ideal_count(structure) -> int:
    """Size of the ideal lattice, stored on the node at construction."""
    return structure._ideal_count


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_ideals(G: UnitalGroup) -> IdealLattice:
    """Enumerate all ideals in canonical order (zero first, whole group last).

    Principality flags are computed honestly: each ideal gets a canonical
    generator candidate and the flag records whether that candidate
    actually generates it.
    """
    ideals = _enumerate(G.structure)
    generators = tuple(canonical_generator(G.structure, I) for I in ideals)
    principal = tuple(
        _principal(G.structure, g) == I for g, I in zip(generators, ideals)
    )
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
        _, g = _quotient(self.structure, self.divisor, canonical_generator(self.structure, J))
        return _principal(self.group.structure, g)


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
    return _contains(G.structure, I, sub(G.structure, g, h))
