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
a table of its live nodes keyed by their fields, and one constructor,
``_Node.__new__``, serves every node class: it returns the node already
there, so equal trees are one object, or else builds one with the facts
that the class's ``_make`` gives from the fields.  Equality is identity,
and so is the hash, ``object.__hash__``, in C: no comparison or hash walks
a tree, however tall, and a fields tuple hashes its child nodes without a
Python call.  A node's hash differs between processes, so no output may
depend on the order of a set of nodes.  The table holds weak references
only, so a node lives as long as its users hold it; a bounded strong table
would have to drop live nodes, and an equal node built after that would be
a second object.  Entries go in with the atomic ``dict.setdefault``, so
threads that build one tree at once get one object.  Copying or unpickling
a node re-interns it.  The other value classes are ``_Record``s, which
compare, hash and print by their fields.

Each node class also names the slots of its stored facts, ``_facts``,
outside its fields: the fields alone still make its key, repr and pickle,
and the constructor sets the facts before the node is seen.  An ideal
node stores whether it is zero and where it is proper (see ``_Ideal``).
A structure node stores facts that depend on its tree alone, each made at
construction from its children's in O(children): its zero element, atom
count, chain flag and ideal count, and its kernels.  Construction goes
bottom-up, so a tree of any height builds without recursion, and every
fact is a plain slot read.  The element kernels are closures for ``add``,
``sub``, ``meet``, ``join``, the truncated sum ``_trunc`` of the interval
algebra (see ``lgroup.mv``), the interval check ``_between`` and the top
integers ``_tops``, so each of those reads a slot and calls what is
there, with no dispatch on the node class per call, and each of
``oplus``, ``odot``, ``clamp`` and ``mv_join`` in ``lgroup.mv`` is one
walk.  The rest follow from these by the
identities of a lattice-ordered group: ``neg`` subtracts from the stored
zero, and |g| = g v -g; g <= h exactly when h - g lies in the positive
cone, which is the interval check with the lower bound alone; and the
shape test of ``check_element`` is the interval check with neither
bound.  The ideal kernels (see ``_Structure``) do the same for the ideal
walks.  An atom's kernels are the builtins and plain compares (never
``min``, which takes ten times as long on two ints), and a lex node's
read the top and call its bottom's.  A product of up to
``_STRAIGHT_ARITY`` = 16 children runs straight-line code: one source
template writes its ten kernels, part i calling child i's kernel (an
atom child's interval check inline), and is compiled once per arity, at
its first use, by ``_straight_factory``, an ``lru_cache`` that arities
2 to 16 alone reach.  Only the arity and the indices go into the
source, never a value.  A wider product loops over its children,
calling each child's kernel: compiling costs about 0.3 ms per child, so
a product of a thousand children would take most of a second to build.  The compile pays in a long-lived
process (the library, ``cli.main`` called in process), but ``python -m
lgroup`` meets each arity about once, so its ``__main__`` lowers the
bound and every product it builds runs the loops.  A kernel calls its
children's directly, from straight-line code or a loop, never from a
comprehension, so it takes one frame per tree level and recurses no
deeper than the recursive walks it replaced.  A kernel holds its
children's kernels and never a structure node, so the kernels form no
reference cycle and a tree dies with its last user.  The
constructors refuse a child that is not a structure, and a product's
children that are not a tuple, naming the position.  The lazy facts are
its primes with their covers and maximal ideals, in one slot
(``spectrum``), its radical (``semisimple``), its zero ideal
(``zero_ideal``) and the ``marshal`` blob of its spectrum's JSON export
(``spectrum.spectrum_json``): the first use sets each and every later
one reads it.
The ideals of a unital group are those of its tree, whatever the unit,
so every group on the tree shares them.  The values are immutable and
their ideal nodes interned, so two threads that fill a slot at once
store equal values, and no lock is needed.  They live
and die with the node: the tables hold it weakly, and no other table holds
them.  A ``UnitalGroup`` likewise stores its unit's top integers outside
its fields, at construction: the strong-unit check reads them.

The ideal closed forms that read these stored facts live here too, so
that a command that never enumerates loads no ``lgroup.ideals``: the
zero and whole ideals, the tests of the masks (``is_zero_ideal``,
``is_all_ideal``, ``is_proper``), ``check_ideal``, meet, join and
containment, ``principal_ideal``, ``ideal_count``, and ``_max_meet``,
the meet of the maximal ideals at any set of top positions in one closed
form (the whole group, the radical and a certificate's maximal ideal are
the meets of none, all and one).  This module is their one home:
``lgroup.ideals`` keeps enumeration, quotients, generators and
congruence.  Likewise ``top_values``, g's top integers by one call of
``_tops``, lives here for the patch solvers, for ``lgroup.yosida``'s
tables, and for ``cli.analyze``, which prints each value as g's top
integer over the unit's in lowest terms and so makes no Fraction.  The
element generators that only the law checks and the tests use,
``random_element`` and ``elements_in_box``, live in ``lgroup.laws``.

The element arithmetic (``add``, ``sub``, ``neg``, ``scale``, ``meet``,
``join``, ``leq``, ``lt`` and ``absval``, and the ``UnitalGroup``
methods over them) checks each element operand once with
``check_element``, one interval-check call that descends only on
failure, and then calls the kernels; ``scale`` refuses a multiplier that
is not an int.  ``_scale`` multiplies every integer of the nested tuple
and reads no node: a walk that treats all integers alike takes the
element's shape from the element itself, or from the tree's stored zero
(the element generators of ``lgroup.laws``).  Library code that already
holds checked values calls the kernels itself, so no sweep checks twice.
Every entry of the library that takes a unital group reads its structure
through ``_group_structure``, which refuses anything else, a bare
structure included, with ``ShapeMismatch`` at the root; the closed forms
that take a group or a structure read it through ``_structure_of``, and
``check_element`` takes a structure alone, each refusing anything else
the same way.  The O(1) reads (``zero``, ``atom_count``, ``is_chain``,
and the ideal tests ``is_zero_ideal``, ``is_all_ideal`` and
``is_proper``) read their slot inside a ``try`` and refuse a value that
has none the same way, at no cost to a read that succeeds.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache
from typing import Any, Optional, Union
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


class TooLarge(LGroupError):
    """An enumeration or a sweep would take more items than its limit:
    ``count`` items against ``limit``, refused before any is taken.
    ``items`` names them: the ideals of a lattice, or what a law check of
    ``lgroup.laws`` sweeps."""

    def __init__(self, count: int, limit: int, items: str = "ideals"):
        self.count = count
        self.limit = limit
        # a count of thousands of digits would overrun int-to-str
        shown = count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"
        super().__init__(f"{shown} {items} exceed the enumeration limit of {limit}")


def format_path(path: Path) -> str:
    out = "root"
    for step in path:
        out += f"[{step}]" if isinstance(step, int) else f".{step}"
    return out


class _Frozen:
    """Fields listed in ``__slots__`` (``_defaults`` for trailing ones),
    which no assignment changes."""

    __slots__ = ()
    _defaults = {}

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> tuple:
        """The values of ``__slots__``, in order, from a call's arguments."""
        names = cls.__slots__
        values = dict(cls._defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{cls.__name__}() expects the arguments ({', '.join(names)})")
        return tuple(map(values.__getitem__, names))

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class _Record(_Frozen):
    """A value compared, hashed and shown as ``Name(field=value, ...)`` by
    its fields."""

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self.__slots__):
            args = self._arguments(args, kwargs)
        for name, value in zip(self.__slots__, args):
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
    """An interned tree node (see the module docstring), compared and hashed
    by identity.  ``__new__`` is every node class's one constructor: it
    returns the live node under its fields, else builds one with the facts
    (the values of ``cls._facts``) that ``cls._make(*fields)`` gives or
    refuses, set before the node is seen, and enters it; a node that
    another thread entered first wins."""

    __slots__ = ("__weakref__",)

    def __init_subclass__(cls):
        table = cls._table = {}
        remove = _remove_dead_weakref  # a global, which shutdown may clear
        # when a node dies, drop its entry unless a live node has taken it
        cls._forget = lambda dead: remove(table, dead.fields)

    def __new__(cls, *fields, **named):
        if named:  # a wrong number of positional fields fails _make's call
            fields = cls._arguments(fields, named)
        table = cls._table
        try:
            entry = table.get(fields)
        except TypeError:  # unhashable fields, which _make refuses
            entry = None
        if entry and (node := entry()):  # nodes are never false
            return node
        facts = cls._make(*fields)
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__ + cls._facts, fields + facts):
            object.__setattr__(node, name, value)
        mine = _Entry(node, cls._forget)
        mine.fields = fields
        while (entry := table.setdefault(fields, mine)) is not mine:
            if (other := entry()) is not None:
                return other
            _remove_dead_weakref(table, fields)
        return node


class _Entry(ref):
    __slots__ = ("fields",)  # the key of the entry holding this reference


class _Ideal(_Node):
    """An ideal node, with three facts stored at construction from its
    parts' in O(parts): ``_zero``, whether it is the zero ideal; ``_mask``,
    an int whose bit k is set when the ideal is proper at top position k
    (see ``lgroup.yosida``), 0 exactly when it is the whole group; and
    ``_width``, its number of top positions."""

    __slots__ = _facts = ("_zero", "_mask", "_width")


class AtomIdeal(_Ideal):
    __slots__ = ("full",)

    @staticmethod
    def _make(full: bool) -> tuple:
        if full.__class__ is not bool:
            raise ShapeMismatch((), f"expected True or False, got {full!r}")
        return not full, int(not full), 1

    def __repr__(self) -> str:
        return "all" if self.full else "zero"


# zero and whole, held for good, so a field equal to a bool finds its node
_ATOM_IDEALS = {b: AtomIdeal(b) for b in (False, True)}


def _prod_ideal_facts(parts: tuple) -> tuple:
    # the parts' top positions, in order, are the product's
    if parts.__class__ is not tuple:
        raise ShapeMismatch((), f"expected a tuple of ideals, got {parts!r}")
    if len(parts) < 2:
        raise ValueError("ProdIdeal requires at least 2 parts")
    zero, mask, width = True, 0, 0
    for part in parts:
        if not isinstance(part, _Ideal):
            i = next(i for i, p in enumerate(parts) if not isinstance(p, _Ideal))
            raise ShapeMismatch((i,), f"expected an ideal, got {part!r}")
        zero = zero and part._zero
        mask |= part._mask << width
        width += part._width
    return zero, mask, width


class ProdIdeal(_Ideal):
    __slots__ = ("parts",)
    _make = staticmethod(_prod_ideal_facts)

    def __repr__(self) -> str:
        return render_tree(self, _spell_ideal)


class LexIdeal(_Ideal):
    __slots__ = ("inner",)  # None means the whole group

    @staticmethod
    def _make(inner: Optional["Ideal"]) -> tuple:
        if inner is None:  # one top position, the dominant component
            return False, 0, 1
        if not isinstance(inner, _Ideal):
            raise ShapeMismatch(("bottom",), f"expected an ideal, got {inner!r}")
        return inner._zero, 1, 1

    def __repr__(self) -> str:
        return render_tree(self, _spell_ideal)


Ideal = Union[AtomIdeal, ProdIdeal, LexIdeal]

_WHOLE_LEX = LexIdeal(None)


def _spell_ideal(I):
    if type(I) is ProdIdeal:
        return "(", I.parts, ",", ")"
    if type(I) is LexIdeal:
        return "all" if I.inner is None else ("bottom(", (I.inner,), "", ")")
    return "all" if I.full else "zero"


# a structure's kernel slots, and its whole ideal, which products read from
# their children too, in order
_KERNELS = (
    "_add", "_sub", "_meet", "_join", "_trunc", "_between", "_tops",
    "_shape", "_gen", "_patch", "_all",
)


class _Structure(_Node):
    """A structure node, with the stored facts of its tree (see the module
    docstring), all set at construction: its zero element, atom count,
    chain flag and ideal count; its kernels; and its (primes, covers,
    maximal ideals), radical, zero ideal and spectrum export, None until
    their first use fills them with ``_store``.

    The element kernels are ``_add``, ``_sub``, ``_meet``, ``_join``,
    ``_trunc``, ``_between`` and ``_tops`` (``leq`` derives from them).
    The truncated sum ``_trunc(x, y, c, u, low, high)`` is x + y - c, then
    v 0 if ``low`` and ^ u if ``high``, in one walk: a lex top decides a
    bound unless it ties, and only a tie passes the bound down, so with
    both bounds 0 <= u must hold, as it does at every node below a root
    where it holds.  ``oplus`` is (x, y, 0, u, False, True), ``odot`` (x,
    y, u, u, True, False) and ``clamp`` (x, 0, 0, u, True, True).  The
    interval check ``_between(x, u, low, high)`` is None when x is
    malformed, by ``check_element``'s tests in its order, else whether 0
    <= x (if ``low``) and x <= u (if ``high``): one walk, in which a lex
    top decides a bound unless it ties, and which checks only the shape
    after a failed bound.  ``_tops(out, g)`` appends g's top integers (see
    ``lgroup.yosida``) to the list ``out``.

    The ideal kernels are ``_shape(I)``, whether I has the shape of an
    ideal of the node (``check_ideal``); ``_gen(g)``, the ideal g
    generates (``principal_ideal``); ``_patch(g, t, I)``, t where I pins
    and g elsewhere (g for the whole ideal and t for the zero one, with
    no walk), the step of the patch fold (``lgroup.crt``) and, with t = 0,
    the part in I of the Riesz split; and ``_all``, the whole ideal.  All
    but the first trust their operands.  The patch is also the congruence
    test: g = t mod I exactly when g and t agree where I pins, that is,
    when ``_patch(g, t, I) == g`` (``congruent``, and ``contains`` with
    t = 0)."""

    __slots__ = _facts = (
        "_zero", "_atoms", "_chain", "_ideal_count", *_KERNELS,
        "_spectrum", "_radical", "_zero_ideal", "_export",
    )


def _store(node, name: str, value):
    """Fill the slot ``name`` of ``node``, a stored fact outside its fields,
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


# an atom's meet and join are a compare: the builtin min takes about ten
# times as long on two ints
def _atom_meet(g, h):
    return g if g <= h else h


def _atom_join(g, h):
    return g if h <= g else h


def _atom_trunc(x, y, c, u, low, high):
    t = x + y - c
    if low and t < 0:
        return 0
    if high and u < t:
        return u
    return t


# an atom's zero, atom count, chain flag and ideal count (zero and all);
# its element kernels: the builtins and compares, and its value is its one
# top; its ideal kernels, whose shape check is isinstance(I, AtomIdeal), in
# C; and its unfilled (primes, covers, maximal ideals), radical, zero ideal
# and spectrum export
_ATOM_FACTS = (
    0, 1, True, 2,
    operator.add, operator.sub, _atom_meet, _atom_join, _atom_trunc, _atom_between, list.append,
    AtomIdeal.__instancecheck__, lambda g: _ATOM_IDEALS[g != 0],
    lambda g, t, I: g if I.full else t, _ATOM_IDEALS[True],
    None, None, None, None,
)


def _refuse_non_structures(children: tuple, steps: tuple) -> None:
    for step, child in zip(steps, children):
        if not isinstance(child, _Structure):
            raise ShapeMismatch((step,), f"expected a structure, got {child!r}")


def _prod_facts(children: tuple) -> tuple:
    """A product's facts from its children's."""
    if children.__class__ is not tuple:
        raise ShapeMismatch((), f"expected a tuple of structures, got {children!r}")
    if len(children) < 2:
        raise ValueError("Prod requires at least 2 children")
    _refuse_non_structures(children, range(len(children)))
    zero = tuple([c._zero for c in children])
    atoms = sum([c._atoms for c in children])
    count = math.prod([c._ideal_count for c in children])
    return zero, atoms, False, count, *_prod_kernels(children), None, None, None, None


def _lex_facts(bottom: _Structure) -> tuple:
    _refuse_non_structures((bottom,), ("bottom",))
    zero = (0, bottom._zero)
    return (
        zero, 1 + bottom._atoms, bottom._chain, bottom._ideal_count + 1,
        *_lex_kernels(bottom, zero), None, None, None, None,
    )


def _lex_kernels(bottom: _Structure, zero) -> tuple:
    """A lex node's kernels and whole ideal: each kernel reads the top and
    calls its bottom's."""
    add, sub, meet, join = bottom._add, bottom._sub, bottom._meet, bottom._join
    trunc, below = bottom._trunc, bottom._between
    shape, gen, patch = bottom._shape, bottom._gen, bottom._patch

    def lex_meet(g, h):
        # dominant component decides; only a tie descends into the bottom
        if g[0] < h[0]:
            return g
        if h[0] < g[0]:
            return h
        return (g[0], meet(g[1], h[1]))

    def lex_join(g, h):
        if g[0] < h[0]:
            return h
        if h[0] < g[0]:
            return g
        return (g[0], join(g[1], h[1]))

    def lex_trunc(x, y, c, u, low, high):
        # the top decides a bound unless it ties, and only a tie passes the
        # bound down; with both, 0 <= u here, so at most one top saturates
        top = x[0] + y[0] - c[0]
        if low and top < 0:
            return zero
        if high and u[0] < top:
            return u
        return (top, trunc(x[1], y[1], c[1], u[1], low and top == 0, high and top == u[0]))

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

    def lex_shape(I):
        return isinstance(I, LexIdeal) and (I.inner is None or shape(I.inner))

    def lex_gen(g):
        return _WHOLE_LEX if g[0] else LexIdeal(gen(g[1]))

    def lex_patch(g, t, I):  # a proper ideal pins the top
        return g if I.inner is None else t if I._zero else (t[0], patch(g[1], t[1], I.inner))

    return (
        lambda g, h: (g[0] + h[0], add(g[1], h[1])),
        lambda g, h: (g[0] - h[0], sub(g[1], h[1])),
        lex_meet, lex_join, lex_trunc, lex_between,
        lambda out, g: out.append(g[0]),
        lex_shape, lex_gen, lex_patch, _WHOLE_LEX,
    )


# the kernels a product reads from each child, in the order of its slots
_read_kernels = operator.attrgetter(*_KERNELS)

# Products of up to this many children run straight-line kernels, compiled
# once per arity; wider ones run the loops.  A fixed bound, not an option
# (only ``lgroup.__main__`` lowers it, for its one-shot process): compiling
# costs about 0.3 ms per child, so a 1,000-child product would take most
# of a second to build, and ``_straight_factory`` holds at most 15 entries.
_STRAIGHT_ARITY = 16

# The ten kernels of an n-child product: each piece between two "@@"s is
# written out once per child, "#" its index, and "$n" is n.  Part i calls
# child i's kernel, so each kernel takes one frame per tree level.
_STRAIGHT_SOURCE = """\
def factory(adds, subs, meets, joins, truncs, betweens, topss, shapes, gens, patches):
    @@trunc#, @@ = truncs
    @@between#, @@ = betweens
    @@tops#, @@ = topss
    @@shape#, @@ = shapes
    @@gen#, @@ = gens
    @@patch#, @@ = patches
    @@atom# = between# is atom_between
    @@
    def partwise(@@f#, @@):  # add, sub, meet or join
        def kernel(g, h):
            @@g#, @@ = g
            @@h#, @@ = h
            return (@@f#(g#, h#), @@)

        return kernel

    def trunc(x, y, c, u, low, high):
        @@x#, @@ = x
        @@y#, @@ = y
        @@c#, @@ = c
        @@u#, @@ = u
        return (@@trunc#(x#, y#, c#, u#, low, high), @@)

    def between(x, u, low, high):
        if not isinstance(x, tuple) or len(x) != $n:
            return None
        @@x#, @@ = x
        verdict = True
        @@if atom#:
            if x#.__class__ is bool or not isinstance(x#, int):
                return None
            inside = (not low or 0 <= x#) and (not high or x# <= u[#])
        else:
            inside = between#(x#, u[#], low, high)
            if inside is None:
                return None
        if not inside:
            verdict = low = high = False
        @@return verdict

    def tops(out, g):
        @@g#, @@ = g
        @@tops#(out, g#)
        @@
    def shape(I):
        if not isinstance(I, ProdIdeal) or len(I.parts) != $n:
            return False
        @@p#, @@ = I.parts
        return @@shape#(p#) and @@True

    def gen(g):
        @@g#, @@ = g
        return ProdIdeal((@@gen#(g#), @@))

    def patch(g, t, I):
        if I._zero or not I._mask:
            return t if I._zero else g
        @@p#, @@ = I.parts
        @@g#, @@ = g
        @@t#, @@ = t
        return (@@g# if not p#._mask else t# if p#._zero else patch#(g#, t#, p#), @@)

    kernels = [partwise(*adds), partwise(*subs), partwise(*meets), partwise(*joins), trunc]
    return kernels + [between, tops, shape, gen, patch]
"""


@lru_cache(maxsize=None)
def _straight_factory(n: int):
    """The factory of n-child kernels, compiled from ``_STRAIGHT_SOURCE`` at
    its first use and cached; only arities 2 to ``_STRAIGHT_ARITY`` reach
    it.  Threads that race may each compile one, and every factory they
    get is equivalent."""
    pieces = _STRAIGHT_SOURCE.replace("$n", str(n)).split("@@")
    # odd pieces repeat per child; within a repeated piece "#" is the index
    source = "".join(
        "".join(piece.replace("#", str(i)) for i in range(n)) if k % 2 else piece
        for k, piece in enumerate(pieces)
    )
    namespace = {"ProdIdeal": ProdIdeal, "atom_between": _atom_between}
    exec(compile(source, f"<kernels of {n}-child products>", "exec"), namespace)
    return namespace["factory"]


def _prod_kernels(children: tuple) -> tuple:
    """A product's kernels and whole ideal from its children's: straight-
    line code up to _STRAIGHT_ARITY children, else the loops."""
    *columns, wholes = zip(*map(_read_kernels, children))
    n = len(children)
    if n <= _STRAIGHT_ARITY:
        kernels = _straight_factory(n)(*columns)
    else:
        kernels = _loop_kernels(n, *columns)
    return (*kernels, ProdIdeal(wholes))


def _loop_kernels(
    n, adds, subs, meets, joins, truncs, betweens, topss, shapes, gens, patches
) -> list:
    """A wide product's kernels: each calls every child's kernel from a
    loop, with one frame per level.  They take no shortcut for any kind
    of child, as none would pay: a one-shot command calls each of them a
    few times, and no ``batch`` op calls them at all (CHANGES.md records
    the counts, with the change that made the loops plain)."""

    def partwise(kernels):  # add, sub, meet or join
        def kernel(g, h):
            out = []
            for f, a, b in zip(kernels, g, h):
                out.append(f(a, b))
            return tuple(out)

        return kernel

    def trunc(x, y, c, u, low, high):
        out = []
        for f, a, b, d, top in zip(truncs, x, y, c, u):
            out.append(f(a, b, d, top, low, high))
        return tuple(out)

    def between(x, u, low, high):
        if not isinstance(x, tuple) or len(x) != n:
            return None
        verdict = True
        for f, part, top in zip(betweens, x, u):
            inside = f(part, top, low, high)
            if inside is None:
                return None
            if not inside:  # out of the interval: check the shape only
                verdict = low = high = False
        return verdict

    def tops(out, g):
        for f, x in zip(topss, g):
            f(out, x)

    def shape(I):
        if not isinstance(I, ProdIdeal) or len(I.parts) != n:
            return False
        for f, part in zip(shapes, I.parts):
            if not f(part):
                return False
        return True

    def gen(g):
        parts = []
        for f, x in zip(gens, g):
            parts.append(f(x))
        return ProdIdeal(tuple(parts))

    def patch(g, t, I):
        # the whole ideal pins nothing, and the zero one everything
        if I._zero or not I._mask:
            return t if I._zero else g
        out = []
        for f, x, y, p in zip(patches, g, t, I.parts):
            out.append(f(x, y, p))
        return tuple(out)

    kernels = [partwise(adds), partwise(subs), partwise(meets), partwise(joins), trunc]
    return kernels + [between, tops, shape, gen, patch]


class Atom(_Structure):
    """The ordered group of integers."""

    __slots__ = ()
    _make = staticmethod(lambda: _ATOM_FACTS)

    def __repr__(self) -> str:
        return "Z"


class Prod(_Structure):
    """A direct product of at least two structures, ordered componentwise."""

    __slots__ = ("children",)
    _make = staticmethod(_prod_facts)

    def __repr__(self) -> str:
        return render_tree(self, _spell_structure)


class Lex(_Structure):
    """The lexicographic extension Z x-> bottom, integer component dominant."""

    __slots__ = ("bottom",)
    _make = staticmethod(_lex_facts)

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


def _not_a(value, wanted: str) -> ShapeMismatch:
    # the refusal of the O(1) reads, which read their slot inside a try, at
    # no cost to a read that succeeds
    return ShapeMismatch((), f"expected {wanted}, got {value!r}")


def is_chain(structure: Structure) -> bool:
    """True iff the order is total: Atom is, Lex inherits, Prod never is."""
    try:
        return structure._chain
    except AttributeError:
        raise _not_a(structure, "a structure") from None


def atom_count(structure: Structure) -> int:
    """Number of integer coordinates an element of ``structure`` carries."""
    try:
        return structure._atoms
    except AttributeError:
        raise _not_a(structure, "a structure") from None


def top_values(structure: Structure, g: Element) -> list:
    """g's integers at the top positions (see ``lgroup.yosida``), in the
    order of ``max_ideals()``: an atom's value, a product's children in
    order, a lex node's dominant component.  One call of the structure's
    stored kernel ``_tops``."""
    out = []
    structure._tops(out, g)
    return out


def check_element(structure: Structure, value: Element, path: Path = ()) -> None:
    """Validate that ``value`` matches the shape of ``structure``.

    Raises ShapeMismatch naming the offending structural position: the
    first in pre-order, found by descending into the first malformed part.
    The shape test is the stored interval check with neither bound.
    """
    if not isinstance(structure, _Structure):
        raise ShapeMismatch((), f"expected a structure, got {structure!r}")
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
    try:
        return structure._zero
    except AttributeError:
        raise _not_a(structure, "a structure") from None


def _check_elements(structure, *values):
    for value in values:
        check_element(structure, value)


def add(structure: Structure, g: Element, h: Element) -> Element:
    _check_elements(structure, g, h)
    return structure._add(g, h)


def neg(structure: Structure, g: Element) -> Element:
    check_element(structure, g)
    return structure._sub(structure._zero, g)


def sub(structure: Structure, g: Element, h: Element) -> Element:
    _check_elements(structure, g, h)
    return structure._sub(g, h)


def scale(structure: Structure, n: int, g: Element) -> Element:
    """n times g, for an integer n (a bool is refused)."""
    if not _is_int(n):
        raise LGroupError(f"expected an integer multiplier, got {n!r}")
    check_element(structure, g)
    return _scale(n, g)


def _scale(n, g):
    # every integer of g times n: the nested tuple is its own shape, and
    # map takes one frame per level
    return tuple(map(_scale, itertools.repeat(n), g)) if isinstance(g, tuple) else n * g


def leq(structure: Structure, g: Element, h: Element) -> bool:
    """Component/lex order comparison; a partial order, total iff chain."""
    _check_elements(structure, g, h)
    return _leq(structure, g, h)


def _leq(structure, g, h):
    # g <= h exactly when h - g lies in the positive cone
    d = structure._sub(h, g)
    return structure._between(d, d, True, False)


def lt(structure: Structure, g: Element, h: Element) -> bool:
    _check_elements(structure, g, h)
    return g != h and _leq(structure, g, h)


def meet(structure: Structure, g: Element, h: Element) -> Element:
    _check_elements(structure, g, h)
    return structure._meet(g, h)


def join(structure: Structure, g: Element, h: Element) -> Element:
    _check_elements(structure, g, h)
    return structure._join(g, h)


def absval(structure: Structure, g: Element) -> Element:
    check_element(structure, g)
    return structure._join(g, structure._sub(structure._zero, g))


# entries kept by each bounded table: the Fraction cache of
# ``lgroup.yosida``, which drops its least recently used entry, and the
# operand record of ``mv.GammaAlgebra``, cleared when full; so a
# long-running process holds a bounded number
CACHE_SIZE = 128


def _structure_of(g) -> Structure:
    """The structure g is, or g's, for a unital group g; anything else is
    refused with ``ShapeMismatch`` at the root."""
    if isinstance(g, UnitalGroup):
        return g.structure
    if not isinstance(g, _Structure):
        raise ShapeMismatch((), f"expected a structure or a unital group, got {g!r}")
    return g


def zero_ideal(structure) -> Ideal:
    """The ideal generated by the stored zero element, which the node
    stores at its first use (see the module docstring)."""
    s = _structure_of(structure)
    return s._zero_ideal or _store(s, "_zero_ideal", s._gen(s._zero))


def all_ideal(structure) -> Ideal:
    """The whole group, the meet of no maximal ideal: a stored kernel."""
    return _structure_of(structure)._all


def _max_meet(structure, mask: int) -> Ideal:
    """The meet of the maximal ideals at the top positions (see
    ``lgroup.yosida``) whose bits are set in ``mask``: zero at such an atom,
    bottom(all) at such a lex node, whole elsewhere.  A product's children
    are taken in a loop, with one frame, past each part's positions."""
    if not mask:
        return structure._all
    if isinstance(structure, Atom):
        return _ATOM_IDEALS[not mask & 1]
    if isinstance(structure, Prod):
        parts = []
        for child in structure.children:
            part = _max_meet(child, mask)
            parts.append(part)
            mask >>= part._width
        return ProdIdeal(tuple(parts))
    return LexIdeal(structure.bottom._all) if mask & 1 else _WHOLE_LEX


def is_zero_ideal(I: Ideal) -> bool:
    try:
        return I._zero
    except AttributeError:
        raise _not_a(I, "an ideal") from None


def is_all_ideal(I: Ideal) -> bool:
    try:
        return not I._mask
    except AttributeError:
        raise _not_a(I, "an ideal") from None


def is_proper(I: Ideal) -> bool:
    try:
        return I._mask != 0
    except AttributeError:
        raise _not_a(I, "an ideal") from None


def check_ideal(structure, I: Ideal, path: Path = ()) -> None:
    """Validate that ``I`` matches the shape of ``structure``: one call of
    its stored shape check.  Only a failure descends, into the first
    malformed part, to name the first bad position in pre-order."""
    s = _structure_of(structure)
    while not s._shape(I):
        if type(s) is Atom:
            raise ShapeMismatch(path, f"expected an atom ideal, got {I!r}")
        if type(s) is Prod:
            n = len(s.children)
            if not isinstance(I, ProdIdeal) or len(I.parts) != n:
                raise ShapeMismatch(path, f"expected a {n}-part product ideal, got {I!r}")
            bad = [not c._shape(part) for c, part in zip(s.children, I.parts)]
            i = bad.index(True)
            s, I, path = s.children[i], I.parts[i], path + (i,)
            continue
        if not isinstance(I, LexIdeal):
            raise ShapeMismatch(path, f"expected a lex ideal, got {I!r}")
        s, I, path = s.bottom, I.inner, path + ("bottom",)


def ideal_leq(I: Ideal, J: Ideal) -> bool:
    """Containment I subseteq J: I is proper at every top position where J
    is (a test of the stored masks, which builds nothing), and their meet
    is I, one object, as ideal nodes are interned.  Ideals of different
    shapes raise ShapeMismatch, unless the mismatch is hidden: see
    ``_checked``."""
    return _checked(_leq_ideals, I, J)


def ideal_meet(I: Ideal, J: Ideal) -> Ideal:
    """I ^ J.  Ideals of different shapes raise ShapeMismatch, unless the
    mismatch is hidden: see ``_checked``."""
    return _checked(_meet_ideals, I, J)


def ideal_join(I: Ideal, J: Ideal) -> Ideal:
    """I v J.  Ideals of different shapes raise ShapeMismatch, unless the
    mismatch is hidden: see ``_checked``."""
    return _checked(_join_ideals, I, J)


def _checked(walk, I, J):
    """``walk(I, J)``, a closed form of two ideals of one structure, with
    the kind and arity checked at every node that both operands walk: the
    roots' kinds and stored widths are compared, and the walk reads inside
    a ``try``, so the success path pays a call and two comparisons.  A
    mismatch anywhere raises ShapeMismatch at the root, naming both
    operands.  A node that one operand skips is not compared, so a
    mismatch there is hidden: a whole or equal part is the answer there,
    the mask test of ``ideal_leq`` walks nothing, and the whole lex ideal
    ``LexIdeal(None)`` is one node shared by every lex structure, so
    nothing beneath it is seen."""
    try:
        if type(I) is type(J) and I._width == J._width:
            return walk(I, J)
    except AttributeError:  # kinds or arities differ below the root
        pass
    raise ShapeMismatch((), f"expected ideals of one shape, got {I!r} and {J!r}")


def _leq_ideals(I, J):
    return not (J._mask & ~I._mask) and _meet_ideals(I, J) is I


def _meet_ideals(I, J):
    # equal ideals are one object, and the whole ideal (mask 0) is the meet's unit
    if I is J or not J._mask:
        return I
    if not I._mask:
        return J
    if type(I) is ProdIdeal and len(I.parts) == len(J.parts):
        return ProdIdeal(tuple(map(_meet_ideals, I.parts, J.parts)))
    # both proper: {0} x inner at a lex node (proper atom ideals are zero,
    # one object); any other pair, a product of another arity too, has no inner
    return LexIdeal(_meet_ideals(I.inner, J.inner))


def _join_ideals(I, J):
    if I is J:
        return I
    if type(I) is AtomIdeal:
        return _ATOM_IDEALS[J.full or I.full]
    if type(I) is ProdIdeal and len(I.parts) == len(J.parts):
        return ProdIdeal(tuple(map(_join_ideals, I.parts, J.parts)))
    inner = I.inner, J.inner  # as in _meet_ideals
    return _WHOLE_LEX if None in inner else LexIdeal(_join_ideals(*inner))


def principal_ideal(structure, g: Element) -> Ideal:
    """The smallest ideal containing g.

    A nonzero dominant component in a lex extension forces the whole
    group; otherwise generation happens inside the bottom.
    """
    structure = _structure_of(structure)
    check_element(structure, g)
    return structure._gen(g)


def ideal_count(structure) -> int:
    """Size of the ideal lattice, stored on the node at construction."""
    return _structure_of(structure)._ideal_count


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
    top integers (``yosida``), read by the strong-unit check and stored at
    construction, so a copy or an unpickled group reads them again."""

    __slots__ = ("_tops",)


class UnitalGroup(_GroupFacts):
    """A structure together with a validated strong order unit."""

    __slots__ = ("structure", "unit")

    def __init__(self, structure: Structure, unit: Element):
        check_element(structure, unit)
        self._strong(structure, unit)

    def _strong(self, structure, unit):
        # the unit's tops are the integers unit_violations checks: one walk
        tops = []
        structure._tops(tops, unit)
        if min(tops) < 1:
            raise NotAStrongUnit(unit_violations(structure, unit))
        _Record.__init__(self, structure, unit)
        object.__setattr__(self, "_tops", tuple(tops))

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


def _group_structure(G) -> Structure:
    """G's structure, once G is checked to be a unital group: the entries
    that take a group refuse anything else, a bare structure included,
    before they read another argument."""
    if not isinstance(G, UnitalGroup):
        raise ShapeMismatch((), f"expected a unital group, got {G!r}")
    return G.structure


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
