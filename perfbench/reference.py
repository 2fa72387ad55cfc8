"""A fixed pure-Python workload that measures how fast the machine runs now.

    python3 perfbench/reference.py

The workloads time it between the program's calls and scale every timing
by how long it took (see ``workloads.Speed``), so that a slow or fast spell
of a shared machine moves the reference and the program together and
cancels out.  It does the kind of work lgroup does: it builds trees of
frozen dataclasses, recurses over them, hashes them into dicts and caches,
and reads them back in a scattered order, so that it feels a neighbour's
load on the processor's caches as lgroup does.  It never touches lgroup,
so a change to lgroup cannot move it.  Run as a script it is a fresh
interpreter that imports a few standard modules and runs ``work``, like a
CLI call; the batch workload calls ``work`` in its own process.
"""

import argparse  # noqa: F401  (start-up work comparable to a CLI call's)
import dataclasses
import functools
import itertools
import json  # noqa: F401
import random


@dataclasses.dataclass(frozen=True)
class Node:
    value: int
    children: tuple = ()


def _tree(v):
    """A small tree over the coordinates of ``v``: a product of two
    chains, one of them nested."""
    chain = Node(v[-1])
    for x in v[2:-1]:
        chain = Node(x, (chain,))
    return Node(0, (Node(v[0]), Node(v[1], (chain,))))


@functools.lru_cache(maxsize=None)
def _size(node):
    return 1 + sum(_size(c) for c in node.children)


def _meet(a, b):
    return Node(min(a.value, b.value), tuple(_meet(x, y) for x, y in zip(a.children, b.children)))


def work(size):
    """Meets of every tree over {0, 1, 2}^size with a fixed pivot, hashed
    into a dict and read back in a scrambled order.  ``size`` 5 takes about
    10 ms on a 2-vCPU 2.0 GHz Xeon VM; the time grows fourfold with each
    step."""
    _size.cache_clear()
    pivot = _tree((1, 2) + (1,) * (size - 2))
    trees = [_tree(v) for v in itertools.product(range(3), repeat=size)]
    seen = {}
    for t in trees:
        m = _meet(t, pivot)
        seen[t] = (m, _size(m))
    random.Random(size).shuffle(trees)
    return sum(seen[t][1] for t in trees)


if __name__ == "__main__":
    work(6)
