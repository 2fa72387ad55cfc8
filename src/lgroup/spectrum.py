"""Prime spectra with the hull-kernel topology, read off the structure tree.

A proper ideal is prime when the quotient is totally ordered, and maximal
when the quotient collapses all the way to a single integer coordinate.
The primes above any prime form a chain, so the specialization order is a
forest: every prime has at most one cover, and one walk over the tree
yields each prime together with the index of its cover.  The maximal
ideals are the primes that nothing covers (``core._max_meet`` builds any
of them, or their meet, without the spectrum); the tree stores them in
one slot with its primes and covers, and a space its own, so
``max_ideals()`` is a read.  The JSON export is a fact of the tree too,
kept as a ``marshal`` blob in a slot of its own (``spectrum_json``).
Those stored facts are the only memo: no table keyed by group keeps a
tree alive, so a dropped group frees its tree and all that is stored on
it.  The exports read pairs, closures and edges off those cover chains.
A prime containing the intersection of finitely many primes contains one
of them, so the closure of a set of primes is the union of its members'
cover chains; the
closure-operator law of ``lgroup.laws.spectral_axioms`` checks it against
the vanishing locus of the kernel on every set of primes.  That module
checks the vanishing-locus / kernel Galois connection and the other
topological laws by exhaustive enumeration.
"""

from __future__ import annotations

import marshal
from collections.abc import Iterable
from functools import _CacheInfo
from typing import FrozenSet

from .core import (
    Atom, Ideal, LexIdeal, LGroupError, Prod, ProdIdeal, ShapeMismatch, UnitalGroup, _ATOM_IDEALS,
    _Record, _store, _group_structure, all_ideal, check_element, check_ideal, ideal_leq, ideal_meet,
)
from .serialize import ideal_to_json


class UnknownPrime(LGroupError):
    """A locus referenced an ideal that is not a prime of this spectrum."""


class _SpaceFacts(_Record):
    """The slot of a spectrum's stored fact, outside its fields: its maximal
    ideals, set at construction from its own covers (or the tree's)."""

    __slots__ = ("_max_ideals",)


class SpectrumSpace(_SpaceFacts):
    """All prime ideals of a group, with the forest of their specialization
    order.

    ``primes`` follows the canonical ideal enumeration order.  The
    specialization order is containment (closed sets are the vanishing
    loci, so a prime specializes to every prime above it), and the primes
    above a prime form a chain: ``cover[i]`` is the index of the least prime
    strictly above ``primes[i]``, always larger than ``i``, or ``None``
    exactly when ``primes[i]`` is maximal.  The constructor refuses a
    group that is not a unital group, and primes or covers that are not
    tuples, with ``ShapeMismatch`` at the root, and covers that are not
    such indices with ``ValueError``.
    """

    __slots__ = ("group", "primes", "cover")

    def __init__(self, group, primes: tuple, cover: tuple):
        _group_structure(group)
        for name, value in (("primes", primes), ("covers", cover)):
            if value.__class__ is not tuple:
                raise ShapeMismatch((), f"expected a tuple of {name}, got {value!r}")
        n = len(primes)
        if len(cover) != n or not all(
            c is None or (type(c) is int and i < c < n) for i, c in enumerate(cover)
        ):
            raise ValueError("each cover must be None or the index of a later prime")
        _Record.__init__(self, group, primes, cover)
        _store(self, "_max_ideals", tuple(p for p, c in zip(primes, cover) if c is None))

    def __len__(self) -> int:
        return len(self.primes)

    @property
    def maximal(self) -> tuple:
        """Maximality flags: a prime is maximal when nothing covers it."""
        return tuple(c is None for c in self.cover)

    def chain(self, i: int) -> list:
        """Indices of the primes containing ``primes[i]``, ascending, i first."""
        out = []
        while i is not None:
            out.append(i)
            i = self.cover[i]
        return out

    def index(self, p: Ideal) -> int:
        try:
            return self.primes.index(p)
        except ValueError:
            raise UnknownPrime(f"{p!r} is not a prime of this spectrum") from None

    def is_maximal(self, p: Ideal) -> bool:
        return self.cover[self.index(p)] is None

    def max_ideals(self) -> tuple:
        """The primes that nothing covers: the maximal ideals, in top order."""
        return self._max_ideals

    def specializes(self, p: Ideal, q: Ideal) -> bool:
        """p <= q in the specialization order, i.e. p is contained in q."""
        return self.index(q) in self.chain(self.index(p))


# (calls that read the tree's stored spectrum, calls that walked), read by
# ``compute_spectrum.cache_info()`` as its (hits, misses)
_calls = [0, 0]


def compute_spectrum(G: UnitalGroup) -> SpectrumSpace:
    """The primes of G with their covers, in enumeration order.  They depend
    on the tree alone, so ``_primes`` walks each tree once and the node
    stores them, their covers and the uncovered ones, its maximal ideals,
    in one slot; every later call, with any group on that tree, reads
    them.  Nothing else keeps them: they die with the tree."""
    s = _group_structure(G)
    _calls[s._spectrum is None] += 1
    if s._spectrum is None:
        found = _primes(s)
        _store(s, "_spectrum", (*zip(*found), tuple(p for p, c in found if c is None)))
    # the walk made these covers, so the constructor's check is skipped
    space = object.__new__(SpectrumSpace)
    _Record.__init__(space, G, *s._spectrum[:2])
    _store(space, "_max_ideals", s._spectrum[2])
    return space


compute_spectrum.cache_info = lambda: _CacheInfo(*_calls, 0, 0)


def _primes(structure) -> list:
    """The (prime, cover index) pairs of ``structure`` in enumeration order.
    Zero, maximal, for an atom; one child's prime with every other part
    whole (the child's stored ``_all``) for a product, its cover shifted by
    the child's offset; bottom(p) for each prime p of the bottom, then the
    maximal bottom(whole), for a lex, which covers the bottom's maximal
    primes.  Each node is visited once, by a loop over a product's
    children, so the walk takes one frame per tree level."""
    if isinstance(structure, Atom):
        return [(_ATOM_IDEALS[False], None)]
    if isinstance(structure, Prod):
        walks = []
        for child in structure.children:
            walks.append(_primes(child))
        whole = tuple(child._all for child in structure.children)
        out = []
        for i, below in enumerate(walks):
            offset = len(out)
            for p, c in below:
                parts = (*whole[:i], p, *whole[i + 1 :])
                out.append((ProdIdeal(parts), None if c is None else c + offset))
        return out
    below = _primes(structure.bottom)
    top = len(below)
    primes = [(LexIdeal(p), top if c is None else c) for p, c in below]
    return primes + [(LexIdeal(structure.bottom._all), None)]


def _space_of(x) -> SpectrumSpace:
    """x, a spectrum, or the spectrum of x, a unital group: every function
    here that takes a space takes either, and refuses anything else with
    ``ShapeMismatch`` at the root."""
    if isinstance(x, SpectrumSpace):
        return x
    if not isinstance(x, UnitalGroup):
        raise ShapeMismatch((), f"expected a spectrum or a unital group, got {x!r}")
    return compute_spectrum(x)


def _members(S) -> Iterable:
    # a set of primes is any iterable of them
    if not isinstance(S, Iterable):
        raise LGroupError(f"expected an iterable of primes, got {S!r}")
    return S


def vanishing_locus(space, R) -> FrozenSet[Ideal]:
    """V(R): primes containing R (an ideal node, or any other iterable of
    elements).  A prime p contains an ideal when it lies above it, and an
    element g when g = 0 mod p, so the stored patch ``_patch(g, 0, p)``
    is g.

    ``space`` may be a SpectrumSpace or a UnitalGroup, whose spectrum is
    read off its tree's stored primes after the first walk.
    """
    space = _space_of(space)
    s = space.group.structure
    if not isinstance(R, Iterable):
        check_ideal(s, R)
        return frozenset(p for p in space.primes if ideal_leq(R, p))
    elements = list(R)
    for g in elements:
        check_element(s, g)
    return frozenset(p for p in space.primes if all(s._patch(g, s._zero, p) == g for g in elements))


def ideal_of_locus(space, S: Iterable[Ideal]) -> Ideal:
    """I(S): the intersection of the primes in S; the whole group for S empty."""
    space = _space_of(space)
    out = all_ideal(space.group.structure)
    for p in _members(S):
        space.index(p)
        out = ideal_meet(out, p)
    return out


def closure(space, S: Iterable[Ideal]) -> FrozenSet[Ideal]:
    """Topological closure: the primes on the cover chains of S's members,
    which is the vanishing locus of the kernel of S."""
    space = _space_of(space)
    return frozenset(space.primes[j] for p in _members(S) for j in space.chain(space.index(p)))


def specialization_dot(space) -> str:
    """DOT digraph of the specialization order (cover edges only);
    maximal primes are drawn double-circled.  ``space`` may be a group."""
    space = _space_of(space)
    lines = ["digraph spectrum {", "  rankdir=BT;"]
    for i, (p, mx) in enumerate(zip(space.primes, space.maximal)):
        shape = ", shape=doublecircle" if mx else ""
        lines.append(f'  p{i} [label="{p!r}"{shape}];')
    for i, c in enumerate(space.cover):
        if c is not None:
            lines.append(f"  p{i} -> p{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spectrum_json(space) -> dict:
    """JSON-ready description: primes with flags, specialization pairs, and
    the closure of each singleton (closures of unions follow, since the
    closure operator preserves finite unions).  ``space`` may be a group.

    The document depends on the primes and covers alone, so it is a fact
    of the tree: for a space whose primes and covers are the tree's stored
    ones (every space that ``compute_spectrum`` gives), the first call
    stores the ``marshal`` blob of the document it builds in the tree's
    ``_export`` slot, and every later call returns ``marshal.loads`` of it,
    a fresh document equal to the first, made in C.  The blob dies with
    the tree.  Any other space's document is built on every call and
    stored nowhere."""
    space = _space_of(space)
    s = space.group.structure
    stored = s._spectrum
    if stored is None or space.primes is not stored[0] or space.cover is not stored[1]:
        return _document(space)
    if s._export is not None:
        return marshal.loads(s._export)
    doc = _document(space)
    _store(s, "_export", marshal.dumps(doc))
    return doc


def _document(space: SpectrumSpace) -> dict:
    """The document of ``spectrum_json``.  The closure of a prime is its
    chain of covers, so the maximal primes are dense exactly when every
    prime is maximal.  A cover has a larger index, so one pass from the
    last prime down builds each chain from its cover's."""
    cover, n = space.cover, len(space)
    ids, above = [f"p{i}" for i in range(n)], [None] * n  # above[i]: ids above prime i, ascending
    for i in reversed(range(n)):
        above[i] = [] if cover[i] is None else [ids[cover[i]], *above[cover[i]]]
    return {
        "primes": [
            {"id": ids[i], "ideal": ideal_to_json(p), "maximal": cover[i] is None}
            for i, p in enumerate(space.primes)
        ],
        "specialization": [[ids[i], j] for i in range(n) for j in above[i]],
        "closure": {ids[i]: sorted([ids[i], *above[i]]) for i in range(n)},
        "max_dense": cover.count(None) == n,
    }
