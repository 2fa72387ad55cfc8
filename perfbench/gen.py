"""Seeded inputs for the three workloads.

The cost of a call is set mostly by the shape of the structure tree, so
every CLI run walks the same list of shape classes in the same order, and
every batch round draws each structure of one fixed pool once.  The seed
varies the rest: factor order and which factors are folded together,
elements, batch units, and task ideals and targets.  That keeps the medians
of one seed close to those of another while every seed still produces
different instances.  Everything here is plain JSON data; the program only
ever sees the files or objects built from it.
"""

from __future__ import annotations

import itertools
import json
import random

import oracle as O

Z2 = {"prod": ["Z", "Z"]}
ZL = {"prod": ["Z", {"lex": "Z"}]}

# (atoms, lex(Z) factors, sizes of the sub-products folded out of the
# factors).  A lex(Z) factor is two atoms.  Two of the five classes carry lex
# factors and two nest products.
#
# The first class of each list is the cheapest, and every crt task of its
# instances is incompatible, so each run has the same mix of solved and
# refused systems whatever the seed.
WIDE_CLASSES = [
    (9, 1, ()),
    (9, 0, ()),
    (10, 2, ()),
    (9, 0, (3, 2)),
    (9, 0, (4,)),
]

# (depth, bottom, plain Z factors beside the tower).  Depth stays at or
# below 70 because the cost of a call grows about cubically with it: the
# commands on one tower of depth 100 took 12.5 s, as long as those on the
# other four classes together, so a 30 s run would measure one cycle, not
# two.  A tower inside a product multiplies the lattice, so it stays
# shallow.
DEEP_CLASSES = [
    (40, ZL, 0),
    (70, "Z", 0),
    (50, Z2, 0),
    (40, "Z", 1),
    (60, "Z", 0),
]

MODES = ("keimel", "strong", "zeroset")
BOUND = 3


def rand_elem(rng, s, bound=BOUND):
    if O.is_atom(s):
        return rng.randint(-bound, bound)
    if O.is_prod(s):
        return tuple(rand_elem(rng, c, bound) for c in s["prod"])
    return (rng.randint(-bound, bound), rand_elem(rng, s["lex"], bound))


def rand_unit(rng, s):
    if O.is_atom(s):
        return rng.randint(1, 3)
    if O.is_prod(s):
        return tuple(rand_unit(rng, c) for c in s["prod"])
    return (rng.randint(1, 3), rand_unit(rng, s["lex"]))


def pattern_unit(s):
    """The unit whose coordinates run 1, 2, 3, 1, 2, 3, ... in tree order.

    Coordinates in 1..3 make most quotient groups differ, so caches see
    little reuse inside one call.  How many differ, and so how much work a
    call does, depends on where coordinates repeat; a fixed pattern keeps
    that work the same from seed to seed."""
    it = itertools.cycle((1, 2, 3))

    def fill(t):
        if O.is_atom(t):
            return next(it)
        if O.is_prod(t):
            return tuple(fill(c) for c in t["prod"])
        return (next(it), fill(t["lex"]))

    return fill(s)


def rand_ideal(rng, s):
    if O.is_atom(s):
        return rng.choice(("zero", "all"))
    if O.is_prod(s):
        return {"prod": [rand_ideal(rng, c) for c in s["prod"]]}
    if rng.random() < 0.15:
        return "all"
    return {"bottom": rand_ideal(rng, s["lex"])}


def elem_in(rng, s, ideal):
    if ideal == "zero":
        return O.zero(s)
    if ideal == "all":
        return rand_elem(rng, s)
    if O.is_prod(s):
        return tuple(elem_in(rng, c, p) for c, p in zip(s["prod"], ideal["prod"]))
    return (0, elem_in(rng, s["lex"], ideal["bottom"]))


def set_top(e, path, value):
    if path:
        parts = list(e)
        parts[path[0]] = set_top(parts[path[0]], path[1:], value)
        return tuple(parts)
    return value if isinstance(e, int) else (value, e[1])


def below_max(rng, s, ideal, path):
    """``ideal`` shrunk so that it lies in the maximal ideal at ``path``."""
    if path:
        parts = list(ideal["prod"]) if isinstance(ideal, dict) else [ideal] * len(s["prod"])
        i = path[0]
        parts[i] = below_max(rng, s["prod"][i], parts[i], path[1:])
        return {"prod": parts}
    if O.is_atom(s):
        return "zero"
    return {"bottom": rand_ideal(rng, s["lex"])} if ideal == "all" else ideal


def generator(rng, s):
    """An element vanishing at a random half of the top coordinates."""
    h = rand_elem(rng, s)
    for c in O.max_coords(s):
        value = 0 if rng.random() < 0.5 else rng.choice((-1, 1)) * rng.randint(1, BOUND)
        h = set_top(h, c, value)
    return h


def make_task(rng, s, mode, incompatible, size):
    """A constraint system around one base element.

    Each target is the base plus an element of its constraint's ideal (of
    the generator's principal ideal, for zero-set tasks), so the system is
    compatible.  An incompatible one moves one target by 1 at a top
    coordinate that lies under both ideals of a pair, which every solver
    must reject.
    """
    base = rand_elem(rng, s)
    if incompatible:
        i, j = sorted(rng.sample(range(size), 2))
        c = rng.choice(O.max_coords(s))
    if mode == "zeroset":
        gens = [generator(rng, s) for _ in range(size)]
        if incompatible:
            gens[i], gens[j] = set_top(gens[i], c, 0), set_top(gens[j], c, 0)
        ideals = [O.principal(s, h) for h in gens]
    else:
        ideals = [rand_ideal(rng, s) for _ in range(size)]
        if incompatible:
            ideals[i] = below_max(rng, s, ideals[i], c)
            ideals[j] = below_max(rng, s, ideals[j], c)
    targets = [O.add(s, base, elem_in(rng, s, I)) for I in ideals]
    if incompatible:
        targets[j] = O.add(s, targets[j], set_top(O.zero(s), c, 1))
    if mode == "zeroset":
        return {"mode": "zeroset", "generators": gens, "targets": targets}
    return {"mode": mode, "ideals": ideals, "targets": targets}


def split(rng, n, k):
    """n as k positive parts."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def wide_structure(rng, atoms, lexes, folds):
    factors = ["Z"] * (atoms - 2 * lexes) + [{"lex": "Z"}] * lexes
    rng.shuffle(factors)
    groups = []
    for size in folds:
        groups.append({"prod": factors[:size]})
        factors = factors[size:]
    groups += factors
    rng.shuffle(groups)
    return {"prod": groups}


def deep_structure(rng, depth, bottom, extra):
    s = bottom
    for _ in range(depth):
        s = {"lex": s}
    if not extra:
        return s
    factors = ["Z"] * extra
    factors.insert(rng.randint(0, extra), s)
    return {"prod": factors}


def cli_instances(workload, seed):
    """An endless seeded stream of instances, one shape class after the
    other, each a dict with the tree, unit, named elements and one task per
    crt mode, plus the file text of each task."""
    rng = random.Random(f"{workload}:{seed}")
    classes = WIDE_CLASSES if workload == "wide" else DEEP_CLASSES
    build = wide_structure if workload == "wide" else deep_structure
    for k in itertools.count():
        s = build(rng, *classes[k % len(classes)])
        unit = pattern_unit(s)
        mv = O.gamma(s, unit, "clamp", rand_elem(rng, s), None)
        elements = {"a": rand_elem(rng, s), "b": rand_elem(rng, s), "c": mv}
        inst = {"structure": s, "unit": unit, "elements": elements, "tasks": {}, "texts": {}}
        for mode in MODES:
            incompatible = k % len(classes) == 0
            task = make_task(rng, s, mode, incompatible, rng.randint(3, 6))
            inst["tasks"][mode] = (task, incompatible)
            doc = {
                "structure": s,
                "unit": unit,
                "elements": {"a": elements["a"], "b": elements["b"], "c": {"mv": True, "value": mv}},
                "task": task,
            }
            inst["texts"][mode] = json.dumps(doc, sort_keys=True)
        yield inst


def rand_shape(rng, atoms, depth):
    if atoms == 1:
        return "Z"
    if rng.random() < 0.3 and (depth > 1 or atoms == 2):
        return {"lex": rand_shape(rng, atoms - 1, depth - 1)}
    if depth == 1:
        return {"prod": ["Z"] * atoms}
    parts = split(rng, atoms, rng.randint(2, min(atoms, 4)))
    return {"prod": [rand_shape(rng, p, depth - 1) for p in parts]}


def batch_pool():
    """42 structures: seven of each size from 3 to 8 atoms, depth at most
    3, three of every seven with a lex node.

    The pool is the same for every seed, like the CLI shape classes; the
    seed draws the stream of operations from it."""
    rng = random.Random("batch-pool")
    pool = []
    for atoms in range(3, 9):
        for k in range(7):
            while True:
                s = rand_shape(rng, atoms, 3)
                if O.has_lex(s) == (k < 3):
                    break
            pool.append(s)
    return pool


GAMMA_OPS = ("oplus", "neg", "odot", "mv_join", "mv_meet")


def _rounds(rng, n):
    """(round, index) with indices 0..n-1 in a fresh seeded order each
    round, endlessly."""
    for r in itertools.count():
        order = list(range(n))
        rng.shuffle(order)
        for index in order:
            yield r, index


def batch_ops(seed, pool):
    """An endless seeded stream of operations on structures of ``pool``.

    Every round of ``len(pool)`` operations draws each structure once, in
    a seeded order.  Which structures get a strong or a zero-set task, and
    which quarter of the tasks are incompatible, follows a fixed pattern
    over the structure and the round, so every run sees the same mix of
    sizes, modes and outcomes."""
    rng = random.Random(f"batch:{seed}")
    for r, index in _rounds(rng, len(pool)):
        s = pool[index]
        unit = rand_unit(rng, s)
        j = index + r
        mode = ("strong", "zeroset")[j % 2]
        incompatible = j // 2 % 4 == 0
        task = make_task(rng, s, mode, incompatible, rng.randint(2, 6))
        if mode == "zeroset":
            # the classical solver gets the same system through the
            # principal ideals of the generators
            ideals = [O.principal(s, h) for h in task["generators"]]
            keimel = {"mode": "keimel", "ideals": ideals, "targets": task["targets"]}
        else:
            keimel = dict(task, mode="keimel")
        interval = [O.gamma(s, unit, "clamp", rand_elem(rng, s), None) for _ in range(6)]
        yield {
            "pool": index,
            "structure": s,
            "unit": unit,
            "elements": [rand_elem(rng, s) for _ in range(3)],
            "keimel": keimel,
            "task": task,
            "incompatible": incompatible,
            "gamma": [(GAMMA_OPS[g % len(GAMMA_OPS)], *rng.sample(interval, 2)) for g in range(20)],
        }
