"""The many-valued view of a unit interval.

The interval [0, u] of a unital group carries truncated addition, an
involution, and a truncated product; that algebra determines the group and
its congruences, so its ideals are exactly the traces I cap [0, u] of the
group's ideals.  ``lgroup.laws`` checks that bijection on a slice of the
interval and finds primality and maximality on the many-valued side
independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Element,
    LGroupError,
    UnitalGroup,
    add,
    check_element,
    join,
    leq,
    meet,
    sub,
    zero,
)


class OutOfInterval(LGroupError):
    """An operand lies outside [0, u]."""


@dataclass(frozen=True)
class GammaAlgebra:
    """Operations of the interval [0, u] of a unital group.

    Elements are plain group elements validated into the interval;
    ``oplus`` is addition truncated at the unit, ``neg`` the reflection
    u - x, and ``odot`` the dual truncated product.
    """

    group: UnitalGroup

    @property
    def unit(self) -> Element:
        return self.group.unit

    def validate(self, x: Element) -> Element:
        check_element(self.group.structure, x)
        s = self.group.structure
        if not (leq(s, zero(s), x) and leq(s, x, self.group.unit)):
            raise OutOfInterval(f"{x!r} is not between 0 and the unit")
        return x

    def clamp(self, x: Element) -> Element:
        """Project an arbitrary group element into the interval."""
        s = self.group.structure
        return join(s, zero(s), meet(s, x, self.group.unit))

    def oplus(self, x: Element, y: Element) -> Element:
        return self._oplus(self.validate(x), self.validate(y))

    def neg(self, x: Element) -> Element:
        return self._neg(self.validate(x))

    def odot(self, x: Element, y: Element) -> Element:
        s = self.group.structure
        total = sub(s, add(s, self.validate(x), self.validate(y)), self.group.unit)
        return join(s, zero(s), total)

    # The lattice operations are compositions of oplus and neg, whose values
    # lie in [0, u] by construction: each operand is validated once, x
    # first, and the composition runs unchecked.

    def mv_join(self, x: Element, y: Element) -> Element:
        return self._join(self.validate(x), self.validate(y))

    def mv_meet(self, x: Element, y: Element) -> Element:
        x, y = self.validate(x), self.validate(y)
        return self._neg(self._join(self._neg(x), self._neg(y)))

    def leq(self, x: Element, y: Element) -> bool:
        return leq(self.group.structure, self.validate(x), self.validate(y))

    def _oplus(self, x: Element, y: Element) -> Element:
        s = self.group.structure
        return meet(s, self.group.unit, add(s, x, y))

    def _neg(self, x: Element) -> Element:
        return sub(self.group.structure, self.group.unit, x)

    def _join(self, x: Element, y: Element) -> Element:
        return self._oplus(self._neg(self._oplus(self._neg(x), y)), y)
