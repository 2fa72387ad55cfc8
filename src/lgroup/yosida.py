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
they are 0.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional

from .core import (
    Atom,
    Element,
    Lex,
    LGroupError,
    Prod,
    Structure,
    UnitalGroup,
    check_element,
)
from .ideals import Ideal, check_ideal, is_all_ideal
from .spectrum import SpectrumSpace, compute_spectrum

if TYPE_CHECKING:
    from fractions import Fraction


class NotMaximal(LGroupError):
    """The ideal handed to an evaluation is not a maximal ideal."""

    def __init__(self, I: Ideal):
        self.ideal = I
        super().__init__(f"{I!r} is not a maximal ideal")


def top_values(structure: Structure, g: Element) -> list:
    """g's integers at the top positions, in the order of ``max_ideals()``:
    an atom's value, a product's children in order, a lex node's dominant
    component.  One walk, without recursion."""
    out = []
    stack = [(structure, g)]
    while stack:
        s, x = stack.pop()
        if isinstance(s, Prod):
            stack += zip(reversed(s.children), reversed(x))
        else:
            out.append(x[0] if isinstance(s, Lex) else x)
    return out


def top_index(structure: Structure, m: Ideal) -> Optional[int]:
    """The top position whose maximal ideal is m, or None when m is not
    maximal.

    m is maximal exactly when it is proper at one top position only and
    is there as large as a proper ideal gets: zero at an atom, bottom(all)
    at a lex node.  One walk, which compares at most one lex bottom.
    """
    found = None
    k = 0
    stack = [(structure, m)]
    while stack:
        s, I = stack.pop()
        if isinstance(s, Prod):
            stack += zip(reversed(s.children), reversed(I.parts))
            continue
        proper = (not I.full) if isinstance(s, Atom) else I.inner is not None
        if proper:
            if found is not None or (isinstance(s, Lex) and not is_all_ideal(I.inner)):
                return None
            found = k
        k += 1
    return found


def holder_eval(G: UnitalGroup, g: Element, m: Ideal) -> Fraction:
    """Value of g under the unique unital embedding of G/m into the reals:
    g's integer at m's top position over the unit's."""
    check_element(G.structure, g)
    check_ideal(G.structure, m)
    k = top_index(G.structure, m)
    if k is None:
        raise NotMaximal(m)
    import fractions  # here, not at the top: ``crt`` loads this module

    return fractions.Fraction(top_values(G.structure, g)[k], top_values(G.structure, G.unit)[k])


def yosida_table(
    G: UnitalGroup, g: Element, space: Optional[SpectrumSpace] = None
) -> Dict[Ideal, Fraction]:
    """Map each maximal ideal to the value of g there.

    The domain is exactly the maximal spectrum, in enumeration order; the
    unit's table is constantly 1.  A given ``space`` must be G's spectrum:
    its maximal ideals are paired with the top positions in order.
    """
    import fractions

    check_element(G.structure, g)
    space = space or compute_spectrum(G)
    values = map(fractions.Fraction, top_values(G.structure, g), top_values(G.structure, G.unit))
    return dict(zip(space.max_ideals(), values))


def principal_zero_set(
    G: UnitalGroup, g: Element, space: Optional[SpectrumSpace] = None
) -> FrozenSet[Ideal]:
    """Maximal ideals containing g: those at the top positions where g is 0."""
    check_element(G.structure, g)
    space = space or compute_spectrum(G)
    return frozenset(
        m for m, v in zip(space.max_ideals(), top_values(G.structure, g)) if v == 0
    )
