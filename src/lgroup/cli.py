"""Command-line front end.

Commands: ``analyze`` (ideal/spectrum/radical summary plus value tables),
``spectrum`` (DOT or JSON export), ``crt`` (runs an instance's task block;
exit 0 solved, 1 hypothesis violated, 2 not strongly semisimple, 3 invalid
input), ``gallery`` (print a built-in instance), and ``selftest`` (run the
exhaustive law suites on the gallery).
"""

from __future__ import annotations

import json
import random
import sys

import click

from .core import LGroupError, elements_in_box, random_element
from .crt import (
    CongruenceSystem,
    NotStronglySemisimple,
    keimel_patch,
    riesz_split,
    strong_patch,
    zero_set_patch,
)
from .gallery import GALLERY_NAMES, gallery_instance, gallery_json
from .ideals import (
    all_ideal,
    contains,
    enumerate_ideals,
    ideal_count,
    ideal_join,
    ideal_label,
    ideal_leq,
    ideal_meet,
    principal_ideal,
)
from .mv import GammaAlgebra, mv_ideal_correspondence
from .semisimple import (
    archimedean_falsify,
    is_semisimple,
    is_strongly_semisimple,
    radical,
)
from .serialize import (
    Instance,
    ParseError,
    PatchTask,
    ZeroSetTask,
    certificate_to_json,
    dumps_canonical,
    element_to_json,
    instance_to_json,
    loads_instance,
)
from .spectrum import (
    closure,
    compute_spectrum,
    quotient_spectrum_correspondence,
    spectral_axioms_report,
    specialization_dot,
    spectrum_json,
    vanishing_locus,
)
from .yosida import yosida_table


@click.group()
def main():
    """Exact ideal, spectrum, and congruence-patching computations on a
    decidable class of unital lattice-ordered Abelian groups."""


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_instance(handle.read())
    except OSError as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        sys.exit(3)
    except (ParseError, LGroupError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@main.command()
@click.argument("file")
def analyze(file):
    """Summarise an instance: ideals, spectrum, radical, semisimplicity,
    and the value tables of its listed elements."""
    instance = _load(file)
    G = instance.group
    space = compute_spectrum(G)
    click.echo(f"structure: {G.structure!r}")
    click.echo(f"unit: {json.dumps(element_to_json(G.structure, G.unit))}")
    count = ideal_count(G.structure)
    # every ideal is principal; enumerate_ideals' flags and selftest check it
    click.echo(f"ideals: {count} ({count - 1} proper, all principal)")
    click.echo(f"spec: {len(space)} primes, {len(space.max_ideals())} maximal")
    for i, (p, mx) in enumerate(zip(space.primes, space.maximal)):
        flag = " (maximal)" if mx else ""
        click.echo(f"  p{i} = {ideal_label(p)}{flag}")
    click.echo(f"radical: {ideal_label(radical(G))}")
    click.echo(f"semisimple: {str(is_semisimple(G)).lower()}")
    strong, witness = is_strongly_semisimple(G)
    suffix = "" if strong else f" (witness: {ideal_label(witness)})"
    click.echo(f"strongly semisimple: {str(strong).lower()}{suffix}")
    if instance.elements:
        click.echo("values on the maximal spectrum:")
        for name in sorted(instance.elements):
            entry = instance.elements[name]
            table = yosida_table(G, entry.value, space)
            rendered = ", ".join(
                f"p{space.index(m)} -> {v.numerator}/{v.denominator}"
                for m, v in table.items()
            )
            tag = " [mv]" if entry.mv else ""
            click.echo(f"  {name}{tag}: {rendered}")


@main.command()
@click.argument("file")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dot", "json"]),
    default="json",
    show_default=True,
    help="specialization diagram (dot) or closure tables (json)",
)
def spectrum(file, fmt):
    """Export the prime spectrum of an instance."""
    instance = _load(file)
    space = compute_spectrum(instance.group)
    if fmt == "dot":
        click.echo(specialization_dot(space), nl=False)
    else:
        click.echo(dumps_canonical(spectrum_json(space)), nl=False)


@main.command()
@click.argument("file")
def crt(file):
    """Run the instance's task block and print a solution or certificate."""
    instance = _load(file)
    G = instance.group
    task = instance.task
    if task is None:
        click.echo("error: instance has no task block", err=True)
        sys.exit(3)
    try:
        if isinstance(task, PatchTask):
            system = CongruenceSystem.of(zip(task.ideals, task.targets))
            solver = keimel_patch if task.mode == "keimel" else strong_patch
            result = solver(G, system)
        else:
            result = zero_set_patch(G, task.generators, task.targets)
    except LGroupError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    if result.solved:
        payload = {"solution": element_to_json(G.structure, result.solution)}
        if isinstance(task, ZeroSetTask):
            payload["unique"] = result.unique
        click.echo(dumps_canonical(payload), nl=False)
        sys.exit(0)
    cert = result.certificate
    click.echo(dumps_canonical(certificate_to_json(G.structure, cert)), nl=False)
    sys.exit(2 if isinstance(cert, NotStronglySemisimple) else 1)


@main.command()
@click.option("--name", required=True, type=click.Choice(list(GALLERY_NAMES)))
def gallery(name):
    """Print a built-in instance file."""
    click.echo(gallery_json(name), nl=False)


def _check_spectral(G):
    report = spectral_axioms_report(G)
    errors = [f"law {law.name} failed" for law in report.failures()]
    if report.max_dense != is_semisimple(G):
        errors.append("density of the maximal spectrum disagrees with semisimplicity")
    return errors


def _check_quotient_spectra(G):
    errors = []
    for I in enumerate_ideals(G).ideals:
        check = quotient_spectrum_correspondence(G, I)
        if not check.passed:
            errors.append(f"quotient spectrum mismatch at {ideal_label(I)}")
    return errors


def _check_ideal_lattice(G):
    errors = []
    lattice = enumerate_ideals(G)
    ideals = lattice.ideals
    for I in ideals:
        for J in ideals:
            for K in ideals:
                lhs = ideal_meet(I, ideal_join(J, K))
                rhs = ideal_join(ideal_meet(I, J), ideal_meet(I, K))
                if lhs != rhs:
                    errors.append("distributivity failed")
    if not all(lattice.principal):
        errors.append("an enumerated ideal has no principal witness")
    for g in elements_in_box(G.structure, 1):
        P = principal_ideal(G.structure, g)
        for I in ideals:
            if contains(G.structure, I, g) != ideal_leq(P, I):
                errors.append(f"principal ideal of {g!r} is not least")
    return errors


def _check_semisimplicity(G):
    errors = []
    space = compute_spectrum(G)
    dense = closure(space, space.max_ideals()) == frozenset(space.primes)
    if is_semisimple(G) != dense:
        errors.append("semisimple <-> dense maximal spectrum failed")
    strong, _ = is_strongly_semisimple(G)
    maxset = frozenset(space.max_ideals())
    cocompact = all(
        vanishing_locus(space, P) == closure(space, vanishing_locus(space, P) & maxset)
        for P in enumerate_ideals(G).ideals
    )
    if strong != cocompact:
        errors.append("strong semisimplicity disagrees with the co-compact density test")
    if strong and not is_semisimple(G):
        errors.append("strongly semisimple but not semisimple")
    witness = archimedean_falsify(G)
    if (witness is None) != is_semisimple(G):
        errors.append("archimedean search disagrees with the radical")
    return errors


def _check_riesz(G):
    errors = []
    ideals = enumerate_ideals(G).ideals
    box = list(elements_in_box(G.structure, 1))
    for I in ideals:
        for J in ideals:
            members_i = [a for a in box if contains(G.structure, I, a)]
            members_j = [b for b in box if contains(G.structure, J, b)]
            for a in members_i[:3]:
                for b in members_j[:3]:
                    d = G.add(a, b)
                    if not contains(G.structure, ideal_join(I, J), d):
                        errors.append("sum escaped the join")
                        continue
                    x, y = riesz_split(G, d, I, J)
                    if G.add(x, y) != d:
                        errors.append("riesz split does not re-sum")
    return errors


def _check_mv(G):
    errors = []
    report = mv_ideal_correspondence(G)
    if not report.passed:
        errors.append("interval ideal correspondence failed")
    alg = GammaAlgebra(G)
    rng = random.Random(4257)
    u = G.unit
    for _ in range(200):
        x = alg.clamp(random_element(rng, G.structure, 4))
        y = alg.clamp(random_element(rng, G.structure, 4))
        z = alg.clamp(random_element(rng, G.structure, 4))
        if alg.oplus(x, y) != alg.oplus(y, x):
            errors.append("oplus not commutative")
        if alg.oplus(alg.oplus(x, y), z) != alg.oplus(x, alg.oplus(y, z)):
            errors.append("oplus not associative")
        if alg.neg(alg.neg(x)) != x:
            errors.append("involution failed")
        if alg.oplus(x, u) != u:
            errors.append("unit not absorbing")
        lhs = alg.oplus(alg.neg(alg.oplus(alg.neg(x), y)), y)
        rhs = alg.oplus(alg.neg(alg.oplus(alg.neg(y), x)), x)
        if lhs != rhs:
            errors.append("characteristic identity failed")
        if alg.mv_join(x, y) != G.join(x, y):
            errors.append("interval order disagrees with the group order")
    return errors


def _check_crt_regressions():
    errors = []
    lexg = gallery_instance("lex").group
    task = gallery_instance("lex").task
    res = strong_patch(lexg, CongruenceSystem.of(zip(task.ideals, task.targets)))
    if res.solved or not isinstance(res.certificate, NotStronglySemisimple):
        errors.append("the impossible pair was not refused")
    elif res.certificate.keimel_hypothesis_holds:
        errors.append("refusal diagnostic claims the classical hypothesis holds")
    kres = keimel_patch(lexg, CongruenceSystem.of(zip(task.ideals, task.targets)))
    if kres.solved:
        errors.append("classical solver accepted the impossible pair")
    for g in elements_in_box(lexg.structure, 2):
        if all(
            contains(lexg.structure, I, lexg.sub(g, t))
            for I, t in zip(task.ideals, task.targets)
        ):
            errors.append("an element satisfied the impossible pair")
    a2 = gallery_instance("a2")
    res = keimel_patch(a2.group, CongruenceSystem.of(zip(a2.task.ideals, a2.task.targets)))
    if res.solution != (5, 4):
        errors.append("classical task solution drifted")
    c3 = gallery_instance("c3")
    res = zero_set_patch(c3.group, c3.task.generators, c3.task.targets)
    if res.solution != (2, 4, 1) or not res.unique:
        errors.append("zero-set task solution drifted")
    mix = gallery_instance("mix")
    res = keimel_patch(mix.group, CongruenceSystem.of(zip(mix.task.ideals, mix.task.targets)))
    if not res.solved:
        errors.append("mix task became unsolvable")
    rng = random.Random(90125)
    for name in ("a2", "c3"):
        G = gallery_instance(name).group
        ideals = enumerate_ideals(G).ideals
        everything = all_ideal(G.structure)
        for _ in range(30):
            base = random_element(rng, G.structure, 3)
            system = []
            for _ in range(rng.randint(1, 3)):
                I = rng.choice(ideals)
                noise = random_element(rng, G.structure, 3)
                # the first half of a split against the improper ideal is
                # the I-portion of the noise, so the target stays congruent
                shifted = G.add(base, riesz_split(G, noise, I, everything)[0])
                system.append((I, base if rng.random() < 0.5 else shifted))
            result = keimel_patch(G, system)
            if result.solution is None:
                errors.append("a compatible random system was refused")
                continue
            for I, t in system:
                if not contains(G.structure, I, G.sub(result.solution, t)):
                    errors.append("random system solution fails a congruence")
    return errors


def _check_roundtrip():
    errors = []
    for name in GALLERY_NAMES:
        text = gallery_json(name)
        parsed = loads_instance(text)
        again = dumps_canonical(instance_to_json(parsed))
        if again != text:
            errors.append(f"gallery {name} does not round-trip byte-stably")
    return errors


@main.command()
def selftest():
    """Run the exhaustive law suites on the gallery; exit 1 on violation."""
    failures = 0
    suites = []
    for name in GALLERY_NAMES:
        G = gallery_instance(name).group
        suites.extend(
            [
                (f"{name}: spectral axioms", lambda G=G: _check_spectral(G)),
                (f"{name}: quotient spectra", lambda G=G: _check_quotient_spectra(G)),
                (f"{name}: ideal lattice", lambda G=G: _check_ideal_lattice(G)),
                (f"{name}: semisimplicity", lambda G=G: _check_semisimplicity(G)),
                (f"{name}: riesz splitting", lambda G=G: _check_riesz(G)),
                (f"{name}: interval algebra", lambda G=G: _check_mv(G)),
            ]
        )
    suites.append(("patching regressions", _check_crt_regressions))
    suites.append(("serialization round trips", _check_roundtrip))
    for label, check in suites:
        errors = check()
        if errors:
            failures += 1
            click.echo(f"[FAIL] {label}: {'; '.join(sorted(set(errors))[:3])}")
        else:
            click.echo(f"[ok] {label}")
    if failures:
        click.echo(f"{failures} suite(s) failed", err=True)
        sys.exit(1)
    click.echo("all suites passed")


if __name__ == "__main__":
    main()
