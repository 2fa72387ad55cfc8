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
stored kernel ``_tops`` (see ``lgroup.core``), built on its first read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional

from .core import (
    Element,
    LGroupError,
    Structure,
    UnitalGroup,
    _store,
    check_element,
)
from .ideals import Ideal, _max_meet, _proper_mask, check_ideal
from .spectrum import SpectrumSpace, compute_spectrum

if TYPE_CHECKING:
    from fractions import Fraction


class NotMaximal(LGroupError):
    """The ideal handed to an evaluation is not a maximal ideal."""

    def __init__(self, I: Ideal):
        self.ideal = I
        super().__init__(f"{I!r} is not a maximal ideal")


class ForeignSpectrum(LGroupError):
    """The spectrum handed to an evaluation is one of another tree."""

    def __init__(self, structure: Structure, space: SpectrumSpace):
        self.structure = structure
        self.space = space
        super().__init__(
            f"a spectrum of {space.group.structure!r} was given for a group on {structure!r}"
        )


def _max_ideals(G: UnitalGroup, space: Optional[SpectrumSpace]) -> tuple:
    """The maximal ideals of G, from ``space`` when given.  A spectrum
    depends on the tree alone, so one of any group on G's tree will do."""
    if space is None:
        return compute_spectrum(G).max_ideals()
    if space.group.structure is not G.structure:
        raise ForeignSpectrum(G.structure, space)
    return space.max_ideals()


def top_values(structure: Structure, g: Element) -> list:
    """g's integers at the top positions, in the order of ``max_ideals()``:
    an atom's value, a product's children in order, a lex node's dominant
    component.  One call of the structure's stored kernel ``_tops``."""
    out = []
    structure._tops(out, g)
    return out


def _unit_tops(G: UnitalGroup) -> tuple:
    """The unit's ``top_values``, stored on G at their first use."""
    return G._tops or _store(G, "_tops", tuple(top_values(G.structure, G.unit)))


def top_index(structure: Structure, m: Ideal) -> Optional[int]:
    """The top position of the maximal ideal m, or None if m is not maximal.

    m is maximal exactly when its stored mask has one bit k and m is the
    maximal ideal there, the meet of those at k alone (``ideals._max_meet``).
    """
    mask = _proper_mask(m)
    if not mask or mask & (mask - 1):  # whole, or proper at two positions
        return None
    return mask.bit_length() - 1 if m is _max_meet(structure, mask) else None


def holder_eval(G: UnitalGroup, g: Element, m: Ideal) -> Fraction:
    """Value of g under the unique unital embedding of G/m into the reals:
    g's integer at m's top position over the unit's."""
    check_element(G.structure, g)
    check_ideal(G.structure, m)
    k = top_index(G.structure, m)
    if k is None:
        raise NotMaximal(m)
    import fractions  # here, not at the top: ``crt`` loads this module

    return fractions.Fraction(top_values(G.structure, g)[k], _unit_tops(G)[k])


def yosida_table(
    G: UnitalGroup, g: Element, space: Optional[SpectrumSpace] = None
) -> Dict[Ideal, Fraction]:
    """Map each maximal ideal to the value of g there.

    The domain is exactly the maximal spectrum, in enumeration order; the
    unit's table is constantly 1.  A given ``space`` must be a spectrum of
    G's tree, else ``ForeignSpectrum`` is raised: its maximal ideals are
    paired with the top positions in order.
    """
    import fractions

    check_element(G.structure, g)
    maxes = _max_ideals(G, space)
    values = map(fractions.Fraction, top_values(G.structure, g), _unit_tops(G))
    return dict(zip(maxes, values))


def principal_zero_set(
    G: UnitalGroup, g: Element, space: Optional[SpectrumSpace] = None
) -> FrozenSet[Ideal]:
    """Maximal ideals containing g: those at the top positions where g is 0.
    A given ``space`` is checked as in ``yosida_table``."""
    check_element(G.structure, g)
    return frozenset(
        m for m, v in zip(_max_ideals(G, space), top_values(G.structure, g)) if v == 0
    )
