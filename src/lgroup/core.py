"""Structures, elements, and exact order arithmetic.

The library works with a decidable class of unital lattice-ordered Abelian
groups that is closed under quotients and rich enough to exhibit both
semisimple and non-semisimple behaviour:

* ``Atom``         -- the integers Z with the usual total order;
* ``Prod(c1..cn)`` -- a direct product of at least two class members,
  ordered componentwise;
* ``Lex(bottom)``  -- the lexicographic extension Z x-> bottom: pairs
  ``(a, t)`` compared on the integer component first, ties broken inside
  ``bottom``.  The dominant component makes every such extension a lattice
  even when ``bottom`` is only partially ordered.

Elements are nested tuples of arbitrary-precision integers mirroring the
structure shape: an ``Atom`` value is an ``int``, a ``Prod`` value is a
tuple of child values, and a ``Lex`` value is a pair ``(top, bottom_value)``.
All values are immutable and every function here is pure, so everything is
safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Union

Element = Union[int, tuple]
Path = tuple


class LGroupError(Exception):
    """Base class for all errors raised by this library."""


class ShapeMismatch(LGroupError):
    """A value does not match the shape required by a structure."""

    def __init__(self, path: Path, message: str):
        self.path = path
        super().__init__(f"{format_path(path)}: {message}")


class NotAStrongUnit(LGroupError):
    """A candidate unit fails to be a strong order unit."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        detail = "; ".join(f"{v.kind} at {format_path(v.path)}" for v in self.violations)
        super().__init__(f"not a strong order unit: {detail}")


class InternalInvariantViolation(LGroupError):
    """An internal consistency check failed; indicates a library bug."""


def format_path(path: Path) -> str:
    out = "root"
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}"
    return out


@dataclass(frozen=True, slots=True, repr=False)
class Atom:
    """The ordered group of integers."""

    def __repr__(self) -> str:
        return "Z"


@dataclass(frozen=True, slots=True, repr=False)
class Prod:
    """A direct product of at least two structures, ordered componentwise."""

    children: tuple

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Prod requires at least 2 children")

    def __repr__(self) -> str:
        return render_tree(self, _spell_structure)


@dataclass(frozen=True, slots=True, repr=False)
class Lex:
    """The lexicographic extension Z x-> bottom, integer component dominant."""

    bottom: "Structure"

    def __repr__(self) -> str:
        return render_tree(self, _spell_structure)


Structure = Union[Atom, Prod, Lex]


def render_tree(node, spell) -> str:
    """Render a tree without recursion.  ``spell(node)`` gives a string for
    a leaf, or (opening, children, separator, closing) for an inner node."""
    out = []
    stack = [node]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        piece = spell(x)
        if type(piece) is str:
            out.append(piece)
            continue
        opening, children, separator, closing = piece
        out.append(opening)
        stack.append(closing)
        for i in range(len(children) - 1, 0, -1):
            stack += (children[i], separator)
        stack.append(children[0])
    return "".join(out)


def _spell_structure(s):
    if type(s) is Prod:
        return "Prod(", s.children, ", ", ")"
    if type(s) is Lex:
        return "Lex(", (s.bottom,), "", ")"
    return "Z"


Z = Atom()


def prod(*children: Structure) -> Prod:
    return Prod(tuple(children))


def lex(bottom: Structure) -> Lex:
    return Lex(bottom)


def is_chain(structure: Structure) -> bool:
    """True iff the order is total: Atom is, Lex inherits, Prod never is."""
    if isinstance(structure, Atom):
        return True
    if isinstance(structure, Lex):
        return is_chain(structure.bottom)
    return False


def atom_count(structure: Structure) -> int:
    """Number of integer coordinates an element of ``structure`` carries."""
    if isinstance(structure, Atom):
        return 1
    if isinstance(structure, Prod):
        return sum(map(atom_count, structure.children))
    return 1 + atom_count(structure.bottom)


def _is_int(value: Any) -> bool:
    # bool is an int subclass; JSON "true" must not pass as 1
    return isinstance(value, int) and not isinstance(value, bool)


def check_element(structure: Structure, value: Element, path: Path = ()) -> None:
    """Validate that ``value`` matches the shape of ``structure``.

    Raises ShapeMismatch naming the offending structural position.
    """
    if isinstance(structure, Atom):
        if not _is_int(value):
            raise ShapeMismatch(path, f"expected an integer, got {value!r}")
    elif isinstance(structure, Prod):
        n = len(structure.children)
        if not isinstance(value, tuple) or len(value) != n:
            raise ShapeMismatch(path, f"expected a {n}-tuple, got {value!r}")
        for i, (child, part) in enumerate(zip(structure.children, value)):
            check_element(child, part, path + (i,))
    else:
        if not isinstance(value, tuple) or len(value) != 2:
            raise ShapeMismatch(path, f"expected a (top, bottom) pair, got {value!r}")
        if not _is_int(value[0]):
            raise ShapeMismatch(path + ("top",), f"expected an integer, got {value[0]!r}")
        check_element(structure.bottom, value[1], path + ("bottom",))


def zero(structure: Structure) -> Element:
    if isinstance(structure, Atom):
        return 0
    if isinstance(structure, Prod):
        return tuple(map(zero, structure.children))
    return (0, zero(structure.bottom))


def add(structure: Structure, g: Element, h: Element) -> Element:
    if isinstance(structure, Atom):
        return g + h
    if isinstance(structure, Prod):
        return tuple(map(add, structure.children, g, h))
    return (g[0] + h[0], add(structure.bottom, g[1], h[1]))


def neg(structure: Structure, g: Element) -> Element:
    if isinstance(structure, Atom):
        return -g
    if isinstance(structure, Prod):
        return tuple(map(neg, structure.children, g))
    return (-g[0], neg(structure.bottom, g[1]))


def sub(structure: Structure, g: Element, h: Element) -> Element:
    return add(structure, g, neg(structure, h))


def scale(structure: Structure, n: int, g: Element) -> Element:
    if isinstance(structure, Atom):
        return n * g
    if isinstance(structure, Prod):
        return tuple(scale(c, n, a) for c, a in zip(structure.children, g))
    return (n * g[0], scale(structure.bottom, n, g[1]))


def leq(structure: Structure, g: Element, h: Element) -> bool:
    """Component/lex order comparison; a partial order, total iff chain."""
    if isinstance(structure, Atom):
        return g <= h
    if isinstance(structure, Prod):
        return all(map(leq, structure.children, g, h))
    if g[0] != h[0]:
        return g[0] < h[0]
    return leq(structure.bottom, g[1], h[1])


def lt(structure: Structure, g: Element, h: Element) -> bool:
    return g != h and leq(structure, g, h)


def meet(structure: Structure, g: Element, h: Element) -> Element:
    if isinstance(structure, Atom):
        return min(g, h)
    if isinstance(structure, Prod):
        return tuple(map(meet, structure.children, g, h))
    # dominant component decides; only a tie descends into the bottom
    if g[0] < h[0]:
        return g
    if h[0] < g[0]:
        return h
    return (g[0], meet(structure.bottom, g[1], h[1]))


def join(structure: Structure, g: Element, h: Element) -> Element:
    if isinstance(structure, Atom):
        return max(g, h)
    if isinstance(structure, Prod):
        return tuple(map(join, structure.children, g, h))
    if g[0] < h[0]:
        return h
    if h[0] < g[0]:
        return g
    return (g[0], join(structure.bottom, g[1], h[1]))


def absval(structure: Structure, g: Element) -> Element:
    return join(structure, g, neg(structure, g))


@dataclass(frozen=True, slots=True)
class Violation:
    """One reason a candidate unit is rejected."""

    kind: str
    path: Path
    message: str


def unit_violations(structure: Structure, unit: Element, path: Path = ()) -> list:
    """Strong-unit violations of a shape-correct candidate unit.

    A strong order unit needs: Atom value >= 1; every Prod component a
    strong unit of its child; a Lex top >= 1 (the bottom part is then
    dominated automatically).
    """
    if isinstance(structure, Atom):
        if unit < 0:
            return [Violation("non-positive-unit", path, f"unit value {unit} is negative")]
        if unit < 1:
            return [Violation("not-a-strong-unit", path, f"unit value {unit} dominates nothing")]
        return []
    if isinstance(structure, Prod):
        out = []
        for i, (child, part) in enumerate(zip(structure.children, unit)):
            out.extend(unit_violations(child, part, path + (i,)))
        return out
    top = unit[0]
    if top < 0:
        return [Violation("non-positive-unit", path + ("top",), f"top value {top} is negative")]
    if top < 1:
        return [
            Violation(
                "not-a-strong-unit",
                path + ("top",),
                "top value 0: multiples stay infinitesimal below the dominant component",
            )
        ]
    return []


def unital_group_violations(structure: Structure, unit: Element) -> list:
    """Non-raising diagnostics: shape problems first, then unit strength."""
    try:
        check_element(structure, unit)
    except ShapeMismatch as exc:
        return [Violation("shape-mismatch", exc.path, str(exc))]
    return unit_violations(structure, unit)


@dataclass(frozen=True)
class UnitalGroup:
    """A structure together with a validated strong order unit."""

    structure: Structure
    unit: Element

    def __post_init__(self):
        check_element(self.structure, self.unit)
        violations = unit_violations(self.structure, self.unit)
        if violations:
            raise NotAStrongUnit(violations)

    def zero(self) -> Element:
        return zero(self.structure)

    def add(self, g: Element, h: Element) -> Element:
        return add(self.structure, g, h)

    def sub(self, g: Element, h: Element) -> Element:
        return sub(self.structure, g, h)

    def neg(self, g: Element) -> Element:
        return neg(self.structure, g)

    def scale(self, n: int, g: Element) -> Element:
        return scale(self.structure, n, g)

    def meet(self, g: Element, h: Element) -> Element:
        return meet(self.structure, g, h)

    def join(self, g: Element, h: Element) -> Element:
        return join(self.structure, g, h)

    def abs(self, g: Element) -> Element:
        return absval(self.structure, g)

    def leq(self, g: Element, h: Element) -> bool:
        return leq(self.structure, g, h)

    def lt(self, g: Element, h: Element) -> bool:
        return lt(self.structure, g, h)


def validate_unital_group(structure: Structure, unit: Element) -> UnitalGroup:
    """Build a UnitalGroup, or raise with a full diagnostic.

    Raises ShapeMismatch when the unit does not fit the structure, and
    NotAStrongUnit (carrying a ``violations`` list with structural
    positions) when it fits but fails to dominate.  Use
    ``unital_group_violations`` for the non-raising variant.
    """
    return UnitalGroup(structure, unit)


def random_element(rng, structure: Structure, bound: int) -> Element:
    """A seeded random element with integer coordinates in [-bound, bound]."""
    if isinstance(structure, Atom):
        return rng.randint(-bound, bound)
    if isinstance(structure, Prod):
        return tuple(random_element(rng, c, bound) for c in structure.children)
    return (rng.randint(-bound, bound), random_element(rng, structure.bottom, bound))


def elements_in_box(structure: Structure, bound: int) -> Iterator[Element]:
    """Yield every element whose integer coordinates lie in [-bound, bound].

    The count is (2*bound+1)**atom_count(structure); callers are expected
    to keep that small.
    """
    rng = range(-bound, bound + 1)
    if isinstance(structure, Atom):
        yield from rng
    elif isinstance(structure, Prod):
        pools = [list(elements_in_box(c, bound)) for c in structure.children]
        for combo in itertools.product(*pools):
            yield combo
    else:
        pool = list(elements_in_box(structure.bottom, bound))
        for a in rng:
            for t in pool:
                yield (a, t)
