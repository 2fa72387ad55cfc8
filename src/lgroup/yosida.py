"""Evaluation at maximal ideals and principal zero sets.

Every quotient by a maximal ideal in this class is the integers with some
positive unit k, and the unique unit-preserving order embedding of (Z, k)
into the reals sends m to m/k.  Values are therefore exact rationals; the
table of an element over the maximal spectrum is its functional
representation, and the zero set of an element is where that function
vanishes (equivalently, which maximal ideals it belongs to).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Optional

from .core import Atom, Element, LGroupError, UnitalGroup, check_element
from .ideals import Ideal, check_ideal, contains, quotient
from .spectrum import SpectrumSpace, compute_spectrum


class NotMaximal(LGroupError):
    """The ideal handed to an evaluation is not a maximal ideal."""

    def __init__(self, I: Ideal):
        self.ideal = I
        super().__init__(f"{I!r} is not a maximal ideal")


def holder_eval(G: UnitalGroup, g: Element, m: Ideal) -> Fraction:
    """Value of g under the unique unital embedding of G/m into the reals.

    The quotient must be a single integer coordinate (that is what makes m
    maximal); with projected unit k the value is projection(g)/k.
    """
    check_element(G.structure, g)
    check_ideal(G.structure, m)
    q = quotient(G, m)
    if q.trivial or not isinstance(q.group.structure, Atom):
        raise NotMaximal(m)
    return Fraction(q.project(g), q.group.unit)


def yosida_table(
    G: UnitalGroup, g: Element, space: Optional[SpectrumSpace] = None
) -> Dict[Ideal, Fraction]:
    """Map each maximal ideal to the value of g there.

    The domain is exactly the maximal spectrum, in enumeration order; the
    unit's table is constantly 1.
    """
    space = space or compute_spectrum(G)
    return {m: holder_eval(G, g, m) for m in space.max_ideals()}


def principal_zero_set(
    G: UnitalGroup, g: Element, space: Optional[SpectrumSpace] = None
) -> FrozenSet[Ideal]:
    """Maximal ideals containing g; equivalently where its table vanishes."""
    check_element(G.structure, g)
    space = space or compute_spectrum(G)
    return frozenset(
        m for m in space.max_ideals() if contains(G.structure, m, g)
    )


def yosida_json(space: SpectrumSpace, table: Dict[Ideal, Fraction]) -> dict:
    """Serialize a table as {"p<i>": "num/den"} keyed by spectrum position."""
    ids = {p: f"p{i}" for i, p in enumerate(space.primes)}
    return {
        ids[m]: f"{v.numerator}/{v.denominator}" for m, v in table.items()
    }
