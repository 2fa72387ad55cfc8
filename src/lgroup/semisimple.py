"""Radicals, semisimplicity, and strong semisimplicity.

Semisimplicity is decided through the radical, the intersection of all
maximal ideals, which ``ideals._max_meet`` builds in closed form.  Strong
semisimplicity needs no further work in this class, since it coincides
with semisimplicity (see ``is_strongly_semisimple``).  The Archimedean
search below is deliberately kept as an independent cross-check, not a
decision procedure.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .core import Atom, Element, Prod, Structure, UnitalGroup, _store, leq, zero
from .ideals import Ideal, _max_meet, is_zero_ideal, zero_ideal


def radical(G: UnitalGroup) -> Ideal:
    """Intersection of all maximal ideals.

    Every maximal ideal sits at one top position (see ``lgroup.yosida``),
    so this is their meet at every position: zero at each atom and
    bottom(all) at each lex node reached through products alone.  Like
    the ideals, it depends on the tree alone, which stores it on first use
    (see ``lgroup.core``).
    """
    s = G.structure
    return s._radical or _store(s, "_radical", _max_meet(s, -1))


def is_semisimple(G: UnitalGroup) -> bool:
    return is_zero_ideal(radical(G))


def is_strongly_semisimple(G: UnitalGroup) -> Tuple[bool, Optional[Ideal]]:
    """Check that every quotient by a principal ideal is semisimple.

    A group here is semisimple exactly when its tree has no lex node, a
    quotient of such a tree again has none, and every ideal is principal;
    the quotient by the zero ideal is G itself.  So this holds exactly
    when G is semisimple, and on failure the witness, the least failing
    ideal, is always the zero ideal.
    """
    if is_semisimple(G):
        return True, None
    return False, zero_ideal(G)


def dominated(structure: Structure, g: Element, h: Element) -> bool:
    """Decide exactly whether n*g <= h for every integer n >= 1.

    The only way a positive g can stay below all of its multiples' bound
    is through a lex extension: a zero dominant component against a
    positive one.  The recursion mirrors that.  A negative dominant
    component a makes n*a fall as n grows, so the first multiple decides:
    a < b, or a == b with the bottoms compared once.  A property test in
    ``tests/test_semisimple.py`` compares this with every multiple up to
    the coordinate bound.
    """
    if isinstance(structure, Atom):
        if g > 0:
            return False
        if g == 0:
            return h >= 0
        return g <= h
    if isinstance(structure, Prod):
        return all(
            dominated(c, a, b) for c, a, b in zip(structure.children, g, h)
        )
    a, t = g
    b, s = h
    if a > 0:
        return False
    if a == 0:
        if b > 0:
            return True
        if b < 0:
            return False
        return dominated(structure.bottom, t, s)
    return a < b or (a == b and leq(structure.bottom, t, s))


def _first_positive(structure: Structure) -> Element:
    """A minimal positive element touching only the first coordinate."""
    if isinstance(structure, Atom):
        return 1
    if isinstance(structure, Prod):
        parts = [zero(c) for c in structure.children]
        parts[0] = _first_positive(structure.children[0])
        return tuple(parts)
    return (1, zero(structure.bottom))


def _embed_at(structure: Prod, i: int, value: Element) -> Element:
    return tuple(
        value if j == i else zero(c) for j, c in enumerate(structure.children)
    )


def _lex_witnesses(structure: Structure) -> Iterator[Tuple[Element, Element]]:
    """Yield (g, h) candidates, one per lex position, outermost first.

    At a lex node the infinitesimal pair is g = (0, positive) against
    h = (1, 0); in surrounding positions both members are zero.
    """
    if isinstance(structure, Atom):
        return
    if isinstance(structure, Prod):
        for i, child in enumerate(structure.children):
            for g, h in _lex_witnesses(child):
                yield _embed_at(structure, i, g), _embed_at(structure, i, h)
        return
    yield (0, _first_positive(structure.bottom)), (1, zero(structure.bottom))
    for g, h in _lex_witnesses(structure.bottom):
        yield (0, g), (0, h)


def archimedean_falsify(G: UnitalGroup) -> Optional[Tuple[Element, Element]]:
    """Search for 0 < g with n*g <= h for every n.

    Candidate pairs are generated structurally, one per lexicographic
    position (the only places a violation can live in this class), with
    coordinate magnitudes at most 1; each candidate is verified exactly
    before being returned.  Returns the first surviving witness, or None
    when there is none.
    """
    z = zero(G.structure)
    for g, h in _lex_witnesses(G.structure):
        if g != z and leq(G.structure, z, g) and dominated(G.structure, g, h):
            return g, h
    return None
