"""Prime spectra with the hull-kernel topology, read off the structure tree.

A proper ideal is prime when the quotient is totally ordered, and maximal
when the quotient collapses all the way to a single integer coordinate.
The primes above any prime form a chain, so the specialization order is a
forest: every prime has at most one cover, and one walk over the tree
yields each prime together with the index of its cover.  The maximal
ideals are the primes that nothing covers (``ideals._max_meet`` builds any
of them, or their meet, without the spectrum).  The exports read pairs,
closures and edges off those cover chains.  A prime containing the
intersection of finitely many primes contains one of them, so the closure
of a set of primes is the union of its members' cover chains; the
closure-operator law of ``lgroup.laws.spectral_axioms`` checks it against
the vanishing locus of the kernel on every set of primes.  That module
checks the vanishing-locus / kernel Galois connection and the other
topological laws by exhaustive enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable

from .core import Atom, LGroupError, Prod, UnitalGroup, _Record, _store, check_element
from .ideals import (
    CACHE_SIZE,
    AtomIdeal,
    Ideal,
    LexIdeal,
    ProdIdeal,
    all_ideal,
    check_ideal,
    ideal_leq,
    ideal_meet,
)


class UnknownPrime(LGroupError):
    """A locus referenced an ideal that is not a prime of this spectrum."""


class SpectrumSpace(_Record):
    """All prime ideals of a group, with the forest of their specialization
    order.

    ``primes`` follows the canonical ideal enumeration order.  The
    specialization order is containment (closed sets are the vanishing
    loci, so a prime specializes to every prime above it), and the primes
    above a prime form a chain: ``cover[i]`` is the index of the least prime
    strictly above ``primes[i]``, always larger than ``i``, or ``None``
    exactly when ``primes[i]`` is maximal.
    """

    __slots__ = ("group", "primes", "cover")

    def __init__(self, group, primes: tuple, cover: tuple):
        n = len(primes)
        if len(cover) != n or not all(
            c is None or (type(c) is int and i < c < n) for i, c in enumerate(cover)
        ):
            raise ValueError("each cover must be None or the index of a later prime")
        _Record.__init__(self, group, primes, cover)

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
        return tuple(p for p, c in zip(self.primes, self.cover) if c is None)

    def specializes(self, p: Ideal, q: Ideal) -> bool:
        """p <= q in the specialization order, i.e. p is contained in q."""
        return self.index(q) in self.chain(self.index(p))


@lru_cache(maxsize=CACHE_SIZE)
def compute_spectrum(G: UnitalGroup) -> SpectrumSpace:
    """The primes of G with their covers, in enumeration order.  They depend
    on the tree alone, so ``_primes`` walks each tree once and the node
    stores them (see ``lgroup.core``)."""
    s = G.structure
    if s._spectrum is None:
        found, _ = _primes(s)
        _store(s, "_spectrum", (tuple(p for p, _ in found), tuple(c for _, c in found)))
    return SpectrumSpace(G, *s._spectrum)


def _primes(structure) -> tuple:
    """(primes, whole): the (prime, cover index) pairs in enumeration order,
    and the whole ideal of ``structure``.  Zero, maximal, for an atom; one
    child's prime with every other part whole for a product, its cover
    shifted by the child's offset; bottom(p) for each prime p of the
    bottom, then the maximal bottom(whole), for a lex, which covers the
    bottom's maximal primes.  Each node is visited once: the whole ideals
    come out of the same walk, which loops over a product's children, so it
    takes one frame per tree level."""
    if isinstance(structure, Atom):
        return [(AtomIdeal(False), None)], AtomIdeal(True)
    if isinstance(structure, Prod):
        walks = []
        for child in structure.children:
            walks.append(_primes(child))
        whole = tuple(w for _, w in walks)
        out = []
        for i, (below, _) in enumerate(walks):
            offset = len(out)
            for p, c in below:
                parts = (*whole[:i], p, *whole[i + 1 :])
                out.append((ProdIdeal(parts), None if c is None else c + offset))
        return out, ProdIdeal(whole)
    below, whole = _primes(structure.bottom)
    top = len(below)
    primes = [(LexIdeal(p), top if c is None else c) for p, c in below]
    return primes + [(LexIdeal(whole), None)], LexIdeal(None)


def _space_of(x) -> SpectrumSpace:
    return x if isinstance(x, SpectrumSpace) else compute_spectrum(x)


def vanishing_locus(space, R) -> FrozenSet[Ideal]:
    """V(R): primes containing R (an Ideal, or an iterable of elements).

    ``space`` may be a SpectrumSpace or a UnitalGroup (spectra are cached).
    """
    space = _space_of(space)
    if isinstance(R, (list, tuple, set, frozenset)):
        elements = list(R)
        for g in elements:
            check_element(space.group.structure, g)
        return frozenset(
            p
            for p in space.primes
            if all(space.group.structure._has(p, g) for g in elements)
        )
    check_ideal(space.group.structure, R)
    return frozenset(p for p in space.primes if ideal_leq(R, p))


def ideal_of_locus(space, S: Iterable[Ideal]) -> Ideal:
    """I(S): the intersection of the primes in S; the whole group for S empty."""
    space = _space_of(space)
    out = all_ideal(space.group.structure)
    for p in S:
        space.index(p)
        out = ideal_meet(out, p)
    return out


def closure(space, S: Iterable[Ideal]) -> FrozenSet[Ideal]:
    """Topological closure: the primes on the cover chains of S's members,
    which is the vanishing locus of the kernel of S."""
    space = _space_of(space)
    return frozenset(space.primes[j] for p in S for j in space.chain(space.index(p)))


def specialization_dot(space: SpectrumSpace) -> str:
    """DOT digraph of the specialization order (cover edges only);
    maximal primes are drawn double-circled."""
    lines = ["digraph spectrum {", "  rankdir=BT;"]
    for i, (p, mx) in enumerate(zip(space.primes, space.maximal)):
        shape = ", shape=doublecircle" if mx else ""
        lines.append(f'  p{i} [label="{p!r}"{shape}];')
    for i, c in enumerate(space.cover):
        if c is not None:
            lines.append(f"  p{i} -> p{c};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def spectrum_json(space: SpectrumSpace) -> dict:
    """JSON-ready description: primes with flags, specialization pairs, and
    the closure of each singleton (closures of unions follow, since the
    closure operator preserves finite unions).  The closure of a prime is
    its chain of covers, so the maximal primes are dense exactly when every
    prime is maximal."""
    from .serialize import ideal_to_json

    ids = [f"p{i}" for i in range(len(space))]
    chains = [space.chain(i) for i in range(len(space))]
    return {
        "primes": [
            {"id": ids[i], "ideal": ideal_to_json(p), "maximal": mx}
            for i, (p, mx) in enumerate(zip(space.primes, space.maximal))
        ],
        "specialization": [
            [ids[chain[0]], ids[j]] for chain in chains for j in chain[1:]
        ],
        "closure": {ids[chain[0]]: sorted(ids[j] for j in chain) for chain in chains},
        "max_dense": all(space.maximal),
    }
