"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import collections
import contextlib
import io
import os
import pathlib
import random
import subprocess
import sys
from collections import namedtuple
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

import lgroup.core
import lgroup.ideals
from lgroup import (
    Atom,
    AtomIdeal,
    Lex,
    LexIdeal,
    Prod,
    ProdIdeal,
    UnitalGroup,
    Z,
    all_ideal,
    atom_count,
    compute_spectrum,
    enumerate_ideals,
    ideal_count,
    lex,
    principal_ideal,
    prod,
    validate_unital_group,
    zero_ideal,
)
from lgroup.cli import main
from lgroup.laws import random_element

# the interned node classes, each with its own table
NODE_CLASSES = (Atom, Prod, Lex, AtomIdeal, ProdIdeal, LexIdeal)

A2 = validate_unital_group(prod(Z, Z), (1, 1))
C3 = validate_unital_group(prod(Z, Z, Z), (1, 2, 1))
LEX = validate_unital_group(lex(Z), (1, 0))
MIX = validate_unital_group(prod(Z, lex(Z)), (1, (1, 0)))
CHAIN3 = validate_unital_group(lex(lex(Z)), (2, (-1, 5)))

GALLERY_GROUPS = {"a2": A2, "c3": C3, "lex": LEX, "mix": MIX}


def random_structure(rng: random.Random, max_depth: int = 3, max_width: int = 4):
    if max_depth <= 1 or rng.random() < 0.3:
        return Atom()
    if rng.random() < 0.4:
        return Lex(random_structure(rng, max_depth - 1, max_width))
    width = rng.randint(2, max_width)
    return Prod(
        tuple(random_structure(rng, max_depth - 1, max_width) for _ in range(width))
    )


def random_unit(rng: random.Random, structure):
    if isinstance(structure, Atom):
        return rng.randint(1, 3)
    if isinstance(structure, Prod):
        return tuple(random_unit(rng, c) for c in structure.children)
    return (rng.randint(1, 3), random_element(rng, structure.bottom, 2))


def random_group(rng: random.Random, max_atoms: int = 7) -> UnitalGroup:
    while True:
        structure = random_structure(rng)
        if atom_count(structure) <= max_atoms:
            return UnitalGroup(structure, random_unit(rng, structure))


def seeded_tree_group(seed: int) -> UnitalGroup:
    """A group on a random tree up to depth 6, deeper and wider than
    ``random_group``'s, with no bound on its atoms."""
    rng = random.Random(seed)
    structure = random_structure(rng, max_depth=6, max_width=3)
    return UnitalGroup(structure, random_unit(rng, structure))


def tall_groups(max_height: int = 30) -> list:
    """A lex tower and a product nest prod(Z, prod(Z, ...)) over Z of every
    height from 1 to ``max_height``, with unit integers cycling 1, 2, 3."""
    out = []
    for height in range(1, max_height + 1):
        tower, tower_unit = Atom(), 1
        nest, nest_unit = Atom(), 2
        for level in range(height):
            tower, tower_unit = Lex(tower), (level % 3 + 1, tower_unit)
            nest, nest_unit = Prod((Atom(), nest)), (level % 3 + 1, nest_unit)
        out += [UnitalGroup(tower, tower_unit), UnitalGroup(nest, nest_unit)]
    return out


# the gallery, seeded random groups, and lex towers and product nests up to
# height 12: where the closed forms are checked against their oracles
ORACLE_GROUPS = (
    [A2, C3, LEX, MIX, CHAIN3]
    + [random_group(random.Random(seed)) for seed in range(20)]
    + tall_groups(12)
)


class Count(int):
    """An int subclass: it passes as an integer, as bool does not."""


Pair = namedtuple("Pair", "first second")

MALFORMED = st.sampled_from([True, False, None, "x", "ab", 1.0, [], [0, 0], ()])


def _near(bound):
    return st.integers(bound - 1, bound + 1)


def _integer(bound):
    n = st.one_of(_near(0), _near(bound), st.integers(min(0, bound) - 3, max(0, bound) + 3))
    return n.flatmap(lambda k: st.sampled_from([k, Count(k)]))


def _or_malformed(good, bad, malformed):
    if not malformed:
        return good
    return st.integers(0, 7).flatmap(lambda k: st.one_of(bad, MALFORMED) if k == 0 else good)


def operands(s, u, malformed):
    """Values about [0, u] in s: integers at, just inside and just outside
    each bound (a lex top tying with 0 or u's top included), int
    subclasses, namedtuples and, when ``malformed``, bad parts anywhere."""
    if isinstance(s, Atom):
        return _or_malformed(_integer(u), st.nothing(), malformed)
    if isinstance(s, Prod):
        parts = st.tuples(*map(operands, s.children, u, [malformed] * len(u)))
        good = parts.flatmap(lambda t: st.sampled_from([t, Pair(*t)] if len(t) == 2 else [t]))
        bad = parts.flatmap(lambda t: st.sampled_from([t[:-1], t + (0,), list(t)]))
        return _or_malformed(good, bad, malformed)
    top = _integer(u[0])
    pair = st.tuples(top, operands(s.bottom, u[1], malformed))
    good = pair.flatmap(lambda t: st.sampled_from([t, Pair(*t)]))
    bad = st.one_of(
        pair.map(lambda t: t[:1]),
        pair.map(lambda t: t + (0,)),
        st.tuples(MALFORMED, operands(s.bottom, u[1], malformed)),
    )
    return _or_malformed(good, bad, malformed)


def tower_instance(height: int, level: str = "lex", list_unit: bool = False) -> str:
    """Instance text for a tree of lex levels, or of prod levels each with a
    Z beside the rest, over Z, optionally listing the unit as an element;
    built as text, since the encoder recurses."""
    structure, unit = '"Z"', "1"
    for _ in range(height):
        if level == "lex":
            structure = '{"lex": %s}' % structure
        else:
            structure = '{"prod": ["Z", %s]}' % structure
        unit = "[1, %s]" % unit
    elements = ', "elements": {"u": %s}' % unit if list_unit else ""
    return '{"structure": %s, "unit": %s%s}' % (structure, unit, elements)


def some_ideals(rng: random.Random, G: UnitalGroup, count: int = 8) -> list:
    """Every ideal of G when there are at most 64; otherwise the primes,
    zero, the whole group and ``count`` principal ideals of random elements
    (so the rng is only drawn from for large lattices)."""
    if ideal_count(G.structure) <= 64:
        return list(enumerate_ideals(G).ideals)
    out = list(compute_spectrum(G).primes)
    out += [zero_ideal(G), all_ideal(G)]
    for _ in range(count):
        out.append(principal_ideal(G.structure, random_element(rng, G.structure, 1)))
    return out


class CliResult(NamedTuple):
    exit_code: int
    stdout_bytes: bytes
    # stdout and stderr interleaved in the order they were written
    output: str


class _Tee(io.StringIO):
    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(args) -> CliResult:
    """Run ``lgroup.cli.main(args)`` in this process and capture what it
    writes and the code it exits with."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, out.getvalue().encode("utf-8"), both.getvalue())


# run as ``python -m lgroup`` runs, then write the child's own peak
# resident set, the VmHWM line of its /proc/self/status, last on stderr
_PEAK_CHILD = (
    "import atexit, runpy, sys\n"
    "def peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        sys.stderr.write(next(l for l in status if l.startswith('VmHWM:')))\n"
    "atexit.register(peak)\n"
    "runpy.run_module('lgroup', run_name='__main__', alter_sys=True)\n"
)


def run_with_peak(args, on_stdout) -> tuple:
    """Run ``python -m lgroup *args`` in a child, handing its stdout to
    ``on_stdout`` in chunks as it comes, and return (exit code, stderr, the
    child's own peak resident set in kB).  The peak is read in the child,
    from its /proc/self/status at exit: ``ru_maxrss`` of the children
    carries the parent's peak across fork and exec (a child of an 80 MB
    parent read 93.6 MB by it and 13.6 MB by VmHWM).  Skips the test where
    there is no /proc."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("the peak resident set is read from /proc/self/status")
    src = pathlib.Path(lgroup.core.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-c", _PEAK_CHILD, *args]
    pipe = subprocess.PIPE
    with subprocess.Popen(command, stdout=pipe, stderr=pipe, env=env) as child:
        for chunk in iter(lambda: child.stdout.read(1 << 16), b""):
            on_stdout(chunk)
        *err, peak = child.stderr.read().decode().splitlines()
    return child.returncode, "\n".join(err), int(peak.split()[1])


@pytest.fixture
def validation_walks(monkeypatch):
    """Count the top-level validation walks (``path == ()``) made while a
    test runs, as a Counter keyed by ``"check_element"`` and ``"check_ideal"``.

    Both checkers are rebound in every loaded ``lgroup`` namespace, the way
    a tracer binds its wrappers, since modules import them by name.  Reset
    the counter with ``clear()`` before the call of interest.
    """
    counts = collections.Counter()
    for module, name in ((lgroup.core, "check_element"), (lgroup.ideals, "check_ideal")):
        walk = getattr(module, name)

        def counted(structure, value, path=(), walk=walk, name=name):
            if path == ():
                counts[name] += 1
            return walk(structure, value, path)

        for loaded in [m for n, m in sys.modules.items() if n.split(".")[0] == "lgroup"]:
            if vars(loaded).get(name) is walk:
                monkeypatch.setattr(loaded, name, counted)
    return counts
