import ast
import pathlib
import random
import time

import pytest

from conftest import CHAIN3, random_group
from lgroup import GALLERY_NAMES, TooLarge, Z, gallery_instance, laws, lex, prod, validate_unital_group

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


def _tower(depth):
    s, unit = Z, 1
    for _ in range(depth):
        s, unit = lex(s), (1, unit)
    return validate_unital_group(s, unit)


@pytest.mark.parametrize(
    "check, G, count, items",
    [
        # 24 s of sweeping on the 10 primes of Z^10, 27 s on this 7-atom group
        (laws.spectral_axioms, validate_unital_group(prod(*[Z] * 10), (1,) * 10), 4**10,
         "pairs of sets of primes"),
        (laws.interval_algebra, random_group(random.Random(6)), 96 * 586**2, "(ideal, point, point) triples"),
        # over 13 s on Z^7, against about 2 s on Z^6, which still sweeps
        (laws.ideal_lattice, validate_unital_group(prod(*[Z] * 7), (1,) * 7), 128**3 + 128 * 3**7,
         "ideal triples and (ideal, point) pairs"),
        # 4.0 s on Z^8, against 0.9 s on Z^7, which still sweeps
        (laws.riesz_splitting, validate_unital_group(prod(*[Z] * 8), (1,) * 8), 256 * 3**8 + 9 * 256**2,
         "(ideal, point) pairs and splits"),
        # 27 ideals, but the box of 26 atoms ran out of memory
        (laws.ideal_lattice, _tower(25), 27**3 + 27 * 3**26, "ideal triples and (ideal, point) pairs"),
        # 145 s of sweeping on 202 ideals and 201 primes
        (laws.quotient_spectra, _tower(200), 202 * 201**2, "(ideal, prime, prime) triples"),
    ],
    ids=[
        "spectral-axioms", "interval-algebra", "ideal-lattice", "riesz-splitting",
        "ideal-lattice-tower", "quotient-spectra-tower",
    ],
)
def test_the_wide_sweeps_are_refused_within_a_second(check, G, count, items):
    start = time.perf_counter()
    with pytest.raises(TooLarge) as refused:
        check(G)
    assert time.perf_counter() - start < 1
    assert refused.value.count == count > refused.value.limit
    assert str(refused.value) == f"{count} {items} exceed the enumeration limit of {refused.value.limit}"


@pytest.mark.parametrize(
    "check, G",
    [(laws.riesz_splitting, validate_unital_group(prod(*[Z] * 7), (1,) * 7)), (laws.ideal_lattice, _tower(8))],
    ids=["riesz-splitting", "ideal-lattice-tower"],
)
def test_the_sweeps_just_under_their_limits_still_answer(check, G):
    # Z^7 splits each ideal's first three members of the box once, and the
    # 3^9 box of lex^8 is still tested against its 10 ideals
    assert check(G) == []
