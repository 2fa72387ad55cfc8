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

Structure and ideal nodes are interned (hash-consed): each node class keeps
a table of its live nodes keyed by their fields, and its constructor
returns the node already there, so equal trees are one object.  Equality
is identity, and the hash, ``hash(<fields tuple>)``, is stored at
construction: no comparison or hash walks a tree, however tall.  The table
holds weak references only, so a node lives as long as its users hold it;
a bounded strong table would have to drop live nodes, and an equal node
built after that would be a second object.  Entries go in with the atomic
``dict.setdefault``, so threads that build one tree at once get one object.
Copying or unpickling a node re-interns it.  The other value classes are
``_Record``s, which compare, hash and print by their fields.

Each node class also names the slots of its stored facts, ``_facts``,
outside its fields: the fields alone still make its key, hash, repr and
pickle, and ``_intern`` sets the facts before the node is seen.  An ideal
node stores whether it is zero and where it is proper (see
``lgroup.ideals``).  A structure node stores facts that depend on its
tree alone.  Eager facts are set at construction from the children's, in
O(children): its zero element, atom count, chain flag and ideal count,
and its four element kernels, closures for ``add``, ``sub``, ``meet`` and
the interval check ``_between``, so each of those reads a slot and calls
what is there, with no dispatch on the node class per call.  The rest
follow from these by the identities of a lattice-ordered group: ``neg``
subtracts from the stored zero; g <= h exactly when h - g lies in the
positive cone, which is the interval check with the lower bound alone;
g v h = g + h - (g ^ h); and the shape test of ``check_element`` is the
interval check with neither bound.  An atom's kernels are the
builtins; a product maps its children's kernel in C when they are one
tree, and otherwise loops over its children, doing an atom child's
interval check inline; a lex node reads the top and calls its bottom's.
A kernel calls its children's from a loop (one frame per tree level) or
a ``map`` (as the walks did), never from a comprehension, so it recurses
no deeper than the recursive walks it replaced, and no code is
generated.  The constructors refuse a child that is not a structure, and
a product's children that are not a tuple, naming the position.  The lazy
facts are its primes with their covers (``spectrum``) and its radical
(``semisimple``): the first use sets them and every later one reads them.
The ideals of a unital group are those of its tree, whatever the unit, so
every group on the tree shares them.  The values are immutable and their
ideal nodes interned, so two threads that fill a slot at once store equal
values, and no lock is needed.  They live and die with the node: the
tables hold it weakly, and no other table holds them.  A ``UnitalGroup``
likewise stores its unit's top integers outside its fields, on first use.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Any, Iterator, Union
from _weakref import _remove_dead_weakref, ref

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


class _Frozen:
    """Fields listed in ``__slots__``, which no assignment changes."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class _Record(_Frozen):
    """A value with fields ``__slots__`` (``_defaults`` for trailing ones),
    compared, hashed and shown as ``Name(field=value, ...)`` by them."""

    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(self._defaults, **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(names)}")
            args = map(values.__getitem__, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"


class _Node(_Frozen):
    """An interned tree node (see the module docstring): ``__new__`` returns
    the live node under its fields, else (nodes are never false) a new one."""

    __slots__ = ("_hash", "__weakref__")

    def __init_subclass__(cls):
        table = cls._table = {}
        remove = _remove_dead_weakref  # a global, which shutdown may clear
        # when a node dies, drop its entry unless a live node has taken it
        cls._forget = lambda dead: remove(table, dead.fields)

    def __hash__(self) -> int:
        return self._hash


class _Entry(ref):
    __slots__ = ("fields",)  # the key of the entry holding this reference


def _intern(cls, fields: tuple, facts: tuple):
    """Build and enter a node, with its ``facts`` (the values of
    ``cls._facts``) set before it is seen; a node that another thread
    entered first wins."""
    table = cls._table
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__ + cls._facts, fields + facts):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", hash(fields))
    mine = _Entry(node, cls._forget)
    mine.fields = fields
    while (entry := table.setdefault(fields, mine)) is not mine:
        if (other := entry()) is not None:
            return other
        _remove_dead_weakref(table, fields)
    return node


class _Structure(_Node):
    """A structure node, with the stored facts of its tree (see the module
    docstring): its zero element, atom count, chain flag and ideal count,
    its four element kernels ``_add``, ``_sub``, ``_meet`` and ``_between``
    (``leq`` and ``join`` derive from them), and its (primes, covers) and
    radical, None until their first use fills them with ``_store``.  The
    interval check ``_between(x, u, low, high)`` is None when x is
    malformed, by ``check_element``'s tests in its order, else whether
    0 <= x (if ``low``) and x <= u (if ``high``): one walk, in which a lex
    top decides a bound unless it ties, and which checks only the shape
    after a failed bound."""

    __slots__ = _facts = (
        "_zero", "_atoms", "_chain", "_ideal_count",
        "_add", "_sub", "_meet", "_between", "_spectrum", "_radical",
    )


def _store(node, name: str, value):
    """Fill the lazy slot ``name`` of ``node``, a structure node or a group,
    with ``value``; return it."""
    object.__setattr__(node, name, value)
    return value


def _is_int(value: Any) -> bool:
    # bool is an int subclass; JSON "true" must not pass as 1
    return isinstance(value, int) and not isinstance(value, bool)


def _atom_between(x, u, low, high):
    if x.__class__ is bool or not isinstance(x, int):
        return None
    return (not low or 0 <= x) and (not high or x <= u)


# an atom's zero, atom count, chain flag and ideal count (zero and all),
# and its kernels: the builtins
_ATOM_FACTS = (0, 1, True, 2, operator.add, operator.sub, min, _atom_between, None, None)


def _refuse_non_structures(children: tuple, steps: tuple) -> None:
    for step, child in zip(steps, children):
        if not isinstance(child, _Structure):
            raise ShapeMismatch((step,), f"expected a structure, got {child!r}")


def _map2(kernels: list):
    """(g, h) -> the tuple of kernel k on part k of g and h, by a loop."""

    def kernel(g, h):
        out = []
        for f, a, b in zip(kernels, g, h):
            out.append(f(a, b))
        return tuple(out)

    return kernel


# the kernels a product reads from each child
_KERNELS = operator.attrgetter("_add", "_sub", "_meet", "_between")


def _prod_facts(children: tuple) -> tuple:
    """A product's facts from its children's.  When every child is one tree,
    its kernels are mapped over the parts in C; otherwise a loop calls each
    child's, and the interval check does an atom child's work inline.  A
    loop, not a comprehension, calls each child with one frame."""
    if children.__class__ is not tuple:
        raise ShapeMismatch((), f"expected a tuple of structures, got {children!r}")
    try:
        adds, subs, meets, betweens = zip(*map(_KERNELS, children))
    except AttributeError:
        _refuse_non_structures(children, range(len(children)))
        raise
    n = len(children)
    atom_between = _atom_between

    def between(x, u, low, high):
        if not isinstance(x, tuple) or len(x) != n:
            return None
        verdict = True
        for f, part, top in zip(betweens, x, u):
            if f is not atom_between:
                inside = f(part, top, low, high)
                if inside is None:
                    return None
            elif part.__class__ is bool or not isinstance(part, int):
                return None
            else:
                inside = (not low or 0 <= part) and (not high or part <= top)
            if not inside:  # out of the interval: check the shape only
                verdict = low = high = False
        return verdict

    zero = tuple([c._zero for c in children])
    atoms = sum([c._atoms for c in children])
    count = math.prod([c._ideal_count for c in children])
    if children.count(children[0]) == n:  # one tree: equal nodes are one object
        add, sub, meet = adds[0], subs[0], meets[0]
        return (
            zero, atoms, False, count,
            lambda g, h: tuple(map(add, g, h)),
            lambda g, h: tuple(map(sub, g, h)),
            lambda g, h: tuple(map(meet, g, h)),
            between, None, None,
        )
    return zero, atoms, False, count, _map2(adds), _map2(subs), _map2(meets), between, None, None


def _lex_facts(bottom: _Structure) -> tuple:
    """A lex node's facts: its kernels read the top and call the bottom's."""
    _refuse_non_structures((bottom,), ("bottom",))
    add, sub, meet = bottom._add, bottom._sub, bottom._meet
    below = bottom._between

    def lex_meet(g, h):
        # dominant component decides; only a tie descends into the bottom
        if g[0] < h[0]:
            return g
        if h[0] < g[0]:
            return h
        return (g[0], meet(g[1], h[1]))

    def lex_between(x, u, low, high):
        if not isinstance(x, tuple) or len(x) != 2:
            return None
        top = x[0]
        if top.__class__ is bool or not isinstance(top, int):
            return None
        verdict = (not low or 0 <= top) and (not high or top <= u[0])
        # only a tie leaves a bound to the bottom
        low, high = verdict and low and top == 0, verdict and high and top == u[0]
        inside = below(x[1], u[1], low, high)
        return inside if inside is None else verdict and inside

    return (
        (0, bottom._zero), 1 + bottom._atoms, bottom._chain, bottom._ideal_count + 1,
        lambda g, h: (g[0] + h[0], add(g[1], h[1])),
        lambda g, h: (g[0] - h[0], sub(g[1], h[1])),
        lex_meet, lex_between, None, None,
    )


class Atom(_Structure):
    """The ordered group of integers."""

    __slots__ = ()

    def __new__(cls):
        entry = cls._table.get(())
        return entry and entry() or _intern(cls, (), _ATOM_FACTS)

    def __repr__(self) -> str:
        return "Z"


class Prod(_Structure):
    """A direct product of at least two structures, ordered componentwise."""

    __slots__ = ("children",)

    def __new__(cls, children: tuple):
        if len(children) < 2:
            raise ValueError("Prod requires at least 2 children")
        try:
            entry = cls._table.get(fields := (children,))
        except TypeError:  # unhashable children, which _prod_facts refuses
            entry = None
        return entry and entry() or _intern(cls, fields, _prod_facts(children))

    def __repr__(self) -> str:
        return render_tree(self, _spell_structure)


class Lex(_Structure):
    """The lexicographic extension Z x-> bottom, integer component dominant."""

    __slots__ = ("bottom",)

    def __new__(cls, bottom: "Structure"):
        try:
            entry = cls._table.get(fields := (bottom,))
        except TypeError:  # an unhashable bottom, which _lex_facts refuses
            entry = None
        return entry and entry() or _intern(cls, fields, _lex_facts(bottom))

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
    return structure._chain


def atom_count(structure: Structure) -> int:
    """Number of integer coordinates an element of ``structure`` carries."""
    return structure._atoms


def check_element(structure: Structure, value: Element, path: Path = ()) -> None:
    """Validate that ``value`` matches the shape of ``structure``.

    Raises ShapeMismatch naming the offending structural position: the
    first in pre-order, found by descending into the first malformed part.
    The shape test is the stored interval check with neither bound.
    """
    s, x = structure, value
    while s._between(x, x, False, False) is None:
        if type(s) is Atom:
            raise ShapeMismatch(path, f"expected an integer, got {x!r}")
        if type(s) is Prod:
            n = len(s.children)
            if not isinstance(x, tuple) or len(x) != n:
                raise ShapeMismatch(path, f"expected a {n}-tuple, got {x!r}")
            bad = [c._between(part, part, False, False) is None for c, part in zip(s.children, x)]
            i = bad.index(True)
            s, x, path = s.children[i], x[i], path + (i,)
            continue
        if not isinstance(x, tuple) or len(x) != 2:
            raise ShapeMismatch(path, f"expected a (top, bottom) pair, got {x!r}")
        if not _is_int(x[0]):
            raise ShapeMismatch(path + ("top",), f"expected an integer, got {x[0]!r}")
        s, x, path = s.bottom, x[1], path + ("bottom",)


def zero(structure: Structure) -> Element:
    """The zero element, stored on the node at construction."""
    return structure._zero


def add(structure: Structure, g: Element, h: Element) -> Element:
    return structure._add(g, h)


def neg(structure: Structure, g: Element) -> Element:
    return structure._sub(structure._zero, g)


def sub(structure: Structure, g: Element, h: Element) -> Element:
    return structure._sub(g, h)


def scale(structure: Structure, n: int, g: Element) -> Element:
    if isinstance(structure, Atom):
        return n * g
    if isinstance(structure, Prod):
        return tuple(map(scale, structure.children, itertools.repeat(n), g))
    return (n * g[0], scale(structure.bottom, n, g[1]))


def leq(structure: Structure, g: Element, h: Element) -> bool:
    """Component/lex order comparison; a partial order, total iff chain.
    g <= h exactly when h - g lies in the positive cone."""
    d = structure._sub(h, g)
    return structure._between(d, d, True, False)


def lt(structure: Structure, g: Element, h: Element) -> bool:
    return g != h and leq(structure, g, h)


def meet(structure: Structure, g: Element, h: Element) -> Element:
    return structure._meet(g, h)


def join(structure: Structure, g: Element, h: Element) -> Element:
    """g v h = g + h - (g ^ h)."""
    return structure._sub(structure._add(g, h), structure._meet(g, h))


def absval(structure: Structure, g: Element) -> Element:
    return join(structure, g, neg(structure, g))


class Violation(_Record):
    """One reason a candidate unit is rejected: ``kind``, ``path`` and
    ``message``."""

    __slots__ = ("kind", "path", "message")


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


class _GroupFacts(_Record):
    """The slot of a group's stored fact, outside its fields: the unit's
    top integers (``yosida``), None until their first use fills it."""

    __slots__ = ("_tops",)


class UnitalGroup(_GroupFacts):
    """A structure together with a validated strong order unit."""

    __slots__ = ("structure", "unit")

    def __init__(self, structure: Structure, unit: Element):
        check_element(structure, unit)
        self._strong(structure, unit)

    def _strong(self, structure, unit):
        violations = unit_violations(structure, unit)
        if violations:
            raise NotAStrongUnit(violations)
        _Record.__init__(self, structure, unit)
        object.__setattr__(self, "_tops", None)

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


def _trusted_group(structure: Structure, unit: Element) -> UnitalGroup:
    """``UnitalGroup(structure, unit)`` for a unit that the caller's own walk
    produced or checked against ``structure``: only the strong-unit check
    runs."""
    group = object.__new__(UnitalGroup)
    group._strong(structure, unit)
    return group


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
