"""The many-valued view of a unit interval.

The interval [0, u] of a unital group carries truncated addition, an
involution, and a truncated product; that algebra determines the group and
its congruences, so its ideals are exactly the traces I cap [0, u] of the
group's ideals.  Under that correspondence the lattice order of the
interval is the group order, so ``mv_join`` and ``mv_meet`` are the
group's join and meet, which keep [0, u]; the many-valued compositions
they close, x v y = (x' + y)' + y and its De Morgan dual, are the
references ``lgroup.laws.interval_algebra`` checks them against.  That law
also checks the ideal bijection on a slice of the interval and finds
primality and maximality on the many-valued side independently.

The operations validate their operands into the interval; ``validate``
is one call of the interval-check kernel that the tree stores (see
``lgroup.core``): it checks x's shape and both bounds 0 <= x <= u
together, in one pass over x.  At a lex node the top integer decides a
bound, against 0 or against u's top, unless it ties; only a tie passes
that bound down to the bottom.  Once a bound fails, the pass goes on
checking the shape alone, so a malformed operand raises ``ShapeMismatch``
(with ``check_element``'s path) even where its order already failed: a
shape error anywhere wins over ``OutOfInterval``, as when the shape was
checked first.
"""

from __future__ import annotations

from .core import (
    Element,
    InternalInvariantViolation,
    LGroupError,
    _Record,
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


class GammaAlgebra(_Record):
    """Operations of the interval [0, u] of a unital group.

    Elements are plain group elements validated into the interval;
    ``oplus`` is addition truncated at the unit, ``neg`` the reflection
    u - x, and ``odot`` the dual truncated product.
    """

    __slots__ = ("group",)

    @property
    def unit(self) -> Element:
        return self.group.unit

    def validate(self, x: Element) -> Element:
        """x, if it lies in [0, u]: one kernel call (see the module
        docstring); ``check_element`` runs only to name what is wrong with a
        malformed x, raising ``ShapeMismatch``; else ``OutOfInterval``."""
        s = self.group.structure
        verdict = s._between(x, self.group.unit, True, True)
        if verdict is None:
            check_element(s, x)  # raises, naming the first bad position
            raise InternalInvariantViolation(f"_between and check_element disagree on {x!r}")
        if not verdict:
            raise OutOfInterval(f"{x!r} is not between 0 and the unit")
        return x

    def clamp(self, x: Element) -> Element:
        """Project an arbitrary group element into the interval; a
        malformed x raises ``ShapeMismatch``, as ``check_element`` does."""
        s = self.group.structure
        check_element(s, x)
        return join(s, zero(s), meet(s, x, self.group.unit))

    def oplus(self, x: Element, y: Element) -> Element:
        return self._oplus(self.validate(x), self.validate(y))

    def neg(self, x: Element) -> Element:
        return self._neg(self.validate(x))

    def odot(self, x: Element, y: Element) -> Element:
        """0 v (x + y - u), as x - (x ^ (u - y)) by a - (b ^ c) = (a - b) v
        (a - c): three walks, where the join with 0 took five."""
        x, y = self.validate(x), self.validate(y)
        s = self.group.structure
        return sub(s, x, meet(s, x, sub(s, self.group.unit, y)))

    def mv_join(self, x: Element, y: Element) -> Element:
        return join(self.group.structure, self.validate(x), self.validate(y))

    def mv_meet(self, x: Element, y: Element) -> Element:
        return meet(self.group.structure, self.validate(x), self.validate(y))

    def leq(self, x: Element, y: Element) -> bool:
        return leq(self.group.structure, self.validate(x), self.validate(y))

    def _oplus(self, x: Element, y: Element) -> Element:
        s = self.group.structure
        return meet(s, self.group.unit, add(s, x, y))

    def _neg(self, x: Element) -> Element:
        return sub(self.group.structure, self.group.unit, x)

