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

Each ideal node stores its own facts from construction (see ``_Ideal``):
the zero and whole tests, the canonical JSON, ``yosida.top_index`` and the
strong solver's hypothesis check read them instead of walking.  The
constructors refuse what is not an ideal, naming its position.  What
depends on the structure as well is a family of kernels on the structure
node, built on its first read like the element kernels (see
``lgroup.core``) by ``_ideal_kernels``: the shape check of
``check_ideal``, membership, generation, the Riesz split of the patch
solvers, and the whole ideal.  Each is one call, with no dispatch on the
node class; ``check_ideal`` descends only after the shape check fails,
to name the position.  The meet of the maximal ideals at any set of top
positions has one closed form, ``_max_meet``: the whole group, the
radical and a certificate's maximal ideal are the meets of none, all and
one.

Because the class only has finitely many ideals per structure, the whole
lattice is enumerable and every ideal turns out to be principal; the
enumeration order is fixed (zero first, whole group last) and all outputs
respect it.  A quotient is one walk over the structure and the divisor,
which yields the shape of the quotient and the image of an element
together.
"""

from __future__ import annotations

import itertools
import operator
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
    _family,
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
        try:
            return _ATOM_IDEALS[full]
        except (KeyError, TypeError):
            raise ShapeMismatch((), f"expected True or False, got {full!r}") from None

    def __repr__(self) -> str:
        return "all" if self.full else "zero"


# zero and whole, held for good, so a field equal to a bool finds its node
_ATOM_IDEALS = {b: _intern(AtomIdeal, (b,), (not b, int(not b), 1)) for b in (False, True)}


def _prod_ideal_facts(parts: tuple) -> tuple:
    # the parts' top positions, in order, are the product's
    if parts.__class__ is not tuple:
        raise ShapeMismatch((), f"expected a tuple of ideals, got {parts!r}")
    if len(parts) < 2:
        raise ValueError("ProdIdeal requires at least 2 parts")
    zero, mask, width = True, 0, 0
    for part in parts:
        if not isinstance(part, _Ideal):
            i = next(i for i, p in enumerate(parts) if not isinstance(p, _Ideal))
            raise ShapeMismatch((i,), f"expected an ideal, got {part!r}")
        zero = zero and part._zero
        mask |= part._mask << width
        width += part._width
    return zero, mask, width


class ProdIdeal(_Ideal):
    __slots__ = ("parts",)

    def __new__(cls, parts: tuple):
        try:
            entry = cls._table.get(fields := (parts,))
        except TypeError:  # unhashable parts, which _prod_ideal_facts refuses
            entry = None
        return entry and entry() or _intern(cls, fields, _prod_ideal_facts(parts))

    def __repr__(self) -> str:
        return render_tree(self, _spell_ideal)


class LexIdeal(_Ideal):
    __slots__ = ("inner",)  # None means the whole group

    def __new__(cls, inner: Optional["Ideal"]):
        try:
            entry = cls._table.get(fields := (inner,))
        except TypeError:  # unhashable, so refused below
            entry = None
        if entry and (node := entry()):
            return node
        if inner is None:  # one top position, the dominant component
            return _intern(cls, fields, (False, 0, 1))
        if not isinstance(inner, _Ideal):
            raise ShapeMismatch(("bottom",), f"expected an ideal, got {inner!r}")
        return _intern(cls, fields, (inner._zero, 1, 1))

    def __repr__(self) -> str:
        return render_tree(self, _spell_ideal)


Ideal = Union[AtomIdeal, ProdIdeal, LexIdeal]

_WHOLE_LEX = LexIdeal(None)


def _atom_split(d, I, J):
    return d if I.full else (0 if J.full or d == 0 else None)


# an atom's ideal kernels: the shape check is isinstance(I, AtomIdeal), in C
_ATOM_IDEAL_KERNELS = (
    AtomIdeal.__instancecheck__,
    lambda I, g: I.full or g == 0,
    lambda g: _ATOM_IDEALS[g != 0],
    _atom_split,
    _ATOM_IDEALS[True],
)
# the ideal kernels a product reads from each child
_IDEAL_KERNELS = operator.attrgetter("_shape", "_has", "_gen", "_split", "_all")


def _ideal_kernels(s) -> tuple:
    """A structure node's ideal kernels from its children's: ``_shape(I)``,
    whether I has the shape of an ideal of s (``check_ideal``);
    ``_has(I, g)``, membership (``contains``); ``_gen(g)``, the ideal g
    generates (``principal_ideal``); ``_split(d, I, J)``, the part a in I
    of d = a + b with b in J, or None when d is not in I v J
    (``riesz_split``); and ``_all``, the whole ideal.  All but the first
    trust their operands.  A product calls its children's in a loop, with
    one frame per level; a lex node reads the top and calls its bottom's."""
    if type(s) is Atom:
        return _ATOM_IDEAL_KERNELS
    if type(s) is Prod:
        return _prod_kernels(s.children)
    shape, has, gen, split, whole = _IDEAL_KERNELS(s.bottom)

    def lex_shape(I):
        return isinstance(I, LexIdeal) and (I.inner is None or shape(I.inner))

    def lex_has(I, g):
        return I.inner is None or g[0] == 0 and has(I.inner, g[1])

    def lex_gen(g):
        return _WHOLE_LEX if g[0] else LexIdeal(gen(g[1]))

    def lex_split(d, I, J):
        if I.inner is None:
            return d
        if J.inner is None:  # the first ideal takes its largest share of the bottom
            return 0, split(d[1], I.inner, whole)
        a = None if d[0] else split(d[1], I.inner, J.inner)
        return None if a is None else (0, a)

    return lex_shape, lex_has, lex_gen, lex_split, _WHOLE_LEX


def _prod_kernels(children: tuple) -> tuple:
    shapes, hass, gens, splits, wholes = zip(*map(_IDEAL_KERNELS, children))
    zeros = [c._zero for c in children]
    n = len(children)

    def shape(I):
        if not isinstance(I, ProdIdeal) or len(I.parts) != n:
            return False
        for f, part in zip(shapes, I.parts):
            if not f(part):
                return False
        return True

    def has(I, g):
        # a whole part holds every x, and the zero part only the zero
        for f, zero, part, x in zip(hass, zeros, I.parts, g):
            if part._mask and (x != zero if part._zero else not f(part, x)):
                return False
        return True

    def gen(g):
        parts = []
        for f, x in zip(gens, g):
            parts.append(f(x))
        return ProdIdeal(tuple(parts))

    def split(d, I, J):
        if not I._mask:  # the whole ideal takes everything
            return d
        out = []
        for f, x, p, q in zip(splits, d, I.parts, J.parts):
            a = f(x, p, q)
            if a is None:
                return None
            out.append(a)
        return tuple(out)

    return shape, has, gen, split, ProdIdeal(wholes)


_family(("_shape", "_has", "_gen", "_split", "_all"), _ideal_kernels)

# entries kept by each of the per-group caches (``enumerate_ideals``,
# ``spectrum.compute_spectrum``), so a long-running process holds a bounded
# number of lattices and spectra
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
    return structure._gen(structure._zero)


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
        return AtomIdeal(not mask & 1)
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


def _proper_mask(I: Ideal) -> int:  # the readers of two of I's stored facts
    return I._mask


def _top_width(I: Ideal) -> int:
    return I._width


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
    """Decide membership g in I: the stored kernel ``_has``.

    Atom: zero holds only 0; Prod: componentwise; Lex: the whole group
    holds everything, while {0} x J holds (a, t) iff a = 0 and t in J.
    """
    structure = _structure_of(structure)
    check_ideal(structure, I)
    check_element(structure, g)
    return structure._has(I, g)


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
        return (AtomIdeal(False), AtomIdeal(True))
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
    return G.structure._has(I, sub(G.structure, g, h))
