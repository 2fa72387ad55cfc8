import ast
import pathlib
import random

import pytest

from conftest import CHAIN3, random_group
from lgroup import GALLERY_NAMES, Z, gallery_instance, laws, lex, validate_unital_group

SRC = pathlib.Path(laws.__file__).parent


def _groups(max_atoms):
    # the interval check pairs every element of a slice of [0, u], so it
    # gets smaller random groups than the rest
    rng = random.Random(5261)
    gallery = [gallery_instance(name).group for name in GALLERY_NAMES]
    return gallery + [CHAIN3] + [random_group(rng, max_atoms) for _ in range(40)]


@pytest.mark.parametrize("label, check", laws.LAWS, ids=[label for label, _ in laws.LAWS])
def test_laws_hold(label, check):
    groups = _groups(3 if check is laws.interval_algebra else 4)
    broken = [(G, errors) for G in groups if (errors := check(G))]
    assert not broken, broken[:3]


@pytest.mark.parametrize("unit", [(2, 0), (2, 1), (3, -5)])
def test_interval_maximality_witness_may_leave_the_slice(unit):
    # on lex(Z) with unit (2, 0), x = (1, -3) doubles and clamps to (2, -6),
    # whose complement (0, 6) lies in the maximal ideal but outside the
    # slice [-3, 3] of coordinates that the traces are taken on
    assert laws.interval_algebra(validate_unital_group(lex(Z), unit)) == []


def test_only_the_lattice_and_the_laws_enumerate():
    # the package root re-exports both; nothing else may reach the lattice
    # or build a quotient, which evaluation reads off top positions instead
    users = {"enumerate_ideals": set(), "quotient": set()}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias) and path.name == "__init__.py":
                continue
            for key in ("id", "attr", "name"):
                if getattr(node, key, None) in users:
                    users[getattr(node, key)].add(path.name)
    assert users == {name: {"ideals.py", "laws.py"} for name in users}
