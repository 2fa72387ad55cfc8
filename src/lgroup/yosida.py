"""Evaluation at maximal ideals and principal zero sets, read off top
positions.

A *top position* is a path through ``prod`` nodes that ends at an atom or
at a ``lex`` node's dominant integer component; every maximal ideal of a
group in this class is the ideal of elements whose integer at one top
position is 0, and the maximal spectrum lists them in the order of their
positions.  The value of g at the maximal ideal of position k, under the
unique unital embedding of the quotient into the reals, is g's integer
there over the unit's, ``g[k]/u[k]``.  So an element's table over the
maximal spectrum is a list of its top integers, and its zero set is where
they are 0.  ``top_values`` reads them with one call of the structure's
stored kernel ``_tops``; it lives in ``lgroup.core``, and this module
imports it for its own tables.  The patch solvers import it from there
without this module, and so does ``lgroup analyze``, which prints
g[k]/u[k] in lowest terms from the two integers and never loads this
module or ``fractions``.  A group stores its unit's at construction.
On [0, u] the integer at k runs over 0..u[k], so values repeat: the
tables and ``holder_eval`` share one ``lru_cache`` of the (immutable)
Fractions, keyed by (integer, unit integer), of at most
``core.CACHE_SIZE`` entries, which drops the least recently used entry
when full.  An ``int`` subclass gets the plain Fraction, equal to its
own, as ``Fraction`` makes ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Optional

from .core import (
    CACHE_SIZE,
    Element,
    Ideal,
    LGroupError,
    Structure,
    UnitalGroup,
    _group_structure,
    _max_meet,
    check_element,
    check_ideal,
    top_values,
)
from .spectrum import SpectrumSpace, _space_of, compute_spectrum


class NotMaximal(LGroupError):
    """The ideal handed to an evaluation is not a maximal ideal."""

    def __init__(self, I: Ideal):
        self.ideal = I
        super().__init__(f"{I!r} is not a maximal ideal")


class ForeignSpectrum(LGroupError):
    """The spectrum handed to an evaluation is one of another tree, or its
    maximal ideals are not those of its tree."""

    def __init__(self, structure: Structure, space: SpectrumSpace):
        self.structure = structure
        self.space = space
        if space.group.structure is structure:
            message = f"a space on {structure!r} whose maximal ideals are not the tree's"
        else:
            message = f"a spectrum of {space.group.structure!r} was given for a group on "
            message += repr(structure)
        super().__init__(message)


def _max_ideals(G: UnitalGroup, space) -> tuple:
    """The maximal ideals of G, from ``space`` when given, a spectrum or a
    group (``spectrum._space_of``).  A spectrum depends on the tree alone,
    so one of any group on G's tree will do, and a space whose maximal
    ideals are not the tree's stored ones (an identity test, as ideal
    nodes are interned) is refused."""
    if space is None:
        return compute_spectrum(G).max_ideals()
    space = _space_of(space)
    s = G.structure
    if space.group.structure is not s or space._max_ideals != (
        s._spectrum[2] if s._spectrum else compute_spectrum(G).max_ideals()
    ):
        raise ForeignSpectrum(s, space)
    return space._max_ideals


# g/u, made once per (integer, unit integer) while it stays cached
_fraction = lru_cache(maxsize=CACHE_SIZE)(Fraction)


def top_index(structure: Structure, m: Ideal) -> Optional[int]:
    """The top position of the maximal ideal m, or None if m is not maximal.

    m is maximal exactly when its stored mask has one bit k and m is the
    maximal ideal there, the meet of those at k alone (``core._max_meet``).
    """
    mask = m._mask
    if not mask or mask & (mask - 1):  # whole, or proper at two positions
        return None
    return mask.bit_length() - 1 if m is _max_meet(structure, mask) else None


def holder_eval(G: UnitalGroup, g: Element, m: Ideal) -> Fraction:
    """Value of g under the unique unital embedding of G/m into the reals:
    g's integer at m's top position over the unit's."""
    s = _group_structure(G)
    check_element(s, g)
    check_ideal(s, m)
    k = top_index(s, m)
    if k is None:
        raise NotMaximal(m)
    return _fraction(top_values(s, g)[k], G._tops[k])


def yosida_table(
    G: UnitalGroup, g: Element, space=None
) -> Dict[Ideal, Fraction]:
    """Map each maximal ideal to the value of g there.

    The domain is exactly the maximal spectrum, in enumeration order; the
    unit's table is constantly 1.  A given ``space``, a spectrum or a group
    whose spectrum is read, must be one of G's tree with the tree's
    maximal ideals, else ``ForeignSpectrum`` is raised, and anything else
    ``ShapeMismatch``: its maximal ideals are paired with the top
    positions in order.
    """
    s = _group_structure(G)
    check_element(s, g)
    values = map(_fraction, top_values(s, g), G._tops)
    return dict(zip(_max_ideals(G, space), values))


def principal_zero_set(
    G: UnitalGroup, g: Element, space=None
) -> FrozenSet[Ideal]:
    """Maximal ideals containing g: those at the top positions where g is 0.
    A given ``space`` is checked as in ``yosida_table``."""
    s = _group_structure(G)
    check_element(s, g)
    return frozenset(m for m, v in zip(_max_ideals(G, space), top_values(s, g)) if v == 0)
