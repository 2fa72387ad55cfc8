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

Each algebra records the operands that ``validate`` passed, keyed by
``id(x)`` and holding x itself, and an operand that is a recorded object
returns at once: a script that feeds results back in checks each value
once.  The record matches by identity, not equality: ``(True, 0) == (1,
0)`` and both hash alike, so a record matched by value would admit the
bool that the walk refuses.  Every other operand takes the walk, and a
failure is never recorded, so a malformed or out-of-interval operand
raises on every call.  The record holds each object strongly, so no
recorded id is reused while it is there; it keeps at most
``core.CACHE_SIZE`` entries and is cleared when full.  It needs no lock:
two threads that race can only walk an operand twice.  It lives in a slot
outside the fields, as ``UnitalGroup``'s top integers do, so it takes no
part in ``==``, ``hash``, ``repr``, pickling or copying, and a copy starts
with an empty record.

After validation each operation is one call of one kernel that the tree
stores, so one walk of its operands: ``mv_meet`` and ``mv_join`` the
meet and the join, ``neg`` the difference u - x, and ``oplus``, ``odot``
and ``clamp`` the truncated sum ``_trunc``, which adds, subtracts and
truncates at 0, at u or at both in the same walk, (x + y) ^ u, (x + y -
u) v 0 and (x v 0) ^ u.  The compositions they replaced are oracles of
the tests.
"""

from __future__ import annotations

from .core import (
    CACHE_SIZE,
    Element,
    InternalInvariantViolation,
    LGroupError,
    _Record,
    _group_structure,
    _leq,
    check_element,
)


class OutOfInterval(LGroupError):
    """An operand lies outside [0, u]."""


class _AlgebraFacts(_Record):
    """The slot of an algebra's record of passed operands, outside its
    fields (see ``GammaAlgebra.validate``)."""

    __slots__ = ("_seen",)


class GammaAlgebra(_AlgebraFacts):
    """Operations of the interval [0, u] of a unital group.

    Elements are plain group elements validated into the interval;
    ``oplus`` is addition truncated at the unit, ``neg`` the reflection
    u - x, and ``odot`` the dual truncated product: each one kernel call
    (see the module docstring).
    """

    __slots__ = ("group",)

    def __init__(self, *args, **kwargs):
        _Record.__init__(self, *args, **kwargs)
        _group_structure(self.group)
        object.__setattr__(self, "_seen", {})

    @property
    def unit(self) -> Element:
        return self.group.unit

    def validate(self, x: Element) -> Element:
        """x, if it lies in [0, u]: one kernel call (see the module
        docstring); ``check_element`` runs only to name what is wrong with a
        malformed x, raising ``ShapeMismatch``; else ``OutOfInterval``.

        An operand that is an object this algebra passed before returns at
        once, matched by identity and not by equality, so the bool twin of
        a passed value still takes the walk and fails.  The record holds the
        objects it names, at most ``CACHE_SIZE`` of them (cleared when
        full), needs no lock and is not part of the value (see the module
        docstring).  A miss reads the record itself, which no caller holds:
        with None for a miss, ``validate(None)`` would pass."""
        seen = self._seen
        if seen.get(id(x), seen) is x:
            return x
        s = self.group.structure
        verdict = s._between(x, self.group.unit, True, True)
        if verdict is None:
            check_element(s, x)  # raises, naming the first bad position
            raise InternalInvariantViolation(f"_between and check_element disagree on {x!r}")
        if not verdict:
            raise OutOfInterval(f"{x!r} is not between 0 and the unit")
        if len(seen) >= CACHE_SIZE:
            seen.clear()
        seen[id(x)] = x
        return x

    def clamp(self, x: Element) -> Element:
        """Project an arbitrary group element into the interval, as
        (x v 0) ^ u: the shape walk and one truncated-sum walk; a malformed
        x raises ``ShapeMismatch``, as ``check_element`` does.  Where a top
        saturates, the answer holds the unit's part or the stored zero."""
        s = self.group.structure
        check_element(s, x)
        return s._trunc(x, s._zero, s._zero, self.group.unit, True, True)

    def oplus(self, x: Element, y: Element) -> Element:
        return self._oplus(self.validate(x), self.validate(y))

    def neg(self, x: Element) -> Element:
        return self._neg(self.validate(x))

    def odot(self, x: Element, y: Element) -> Element:
        """(x + y - u) v 0: one truncated-sum walk."""
        x, y = self.validate(x), self.validate(y)
        u = self.group.unit
        return self.group.structure._trunc(x, y, u, u, True, False)

    def mv_join(self, x: Element, y: Element) -> Element:
        """x v y, as ``core.join``: one walk."""
        return self.group.structure._join(self.validate(x), self.validate(y))

    def mv_meet(self, x: Element, y: Element) -> Element:
        return self.group.structure._meet(self.validate(x), self.validate(y))

    def leq(self, x: Element, y: Element) -> bool:
        return _leq(self.group.structure, self.validate(x), self.validate(y))

    def _oplus(self, x: Element, y: Element) -> Element:
        s = self.group.structure
        return s._trunc(x, y, s._zero, self.group.unit, False, True)

    def _neg(self, x: Element) -> Element:
        return self.group.structure._sub(self.group.unit, x)
