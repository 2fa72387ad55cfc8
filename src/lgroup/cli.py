"""Command-line front end.

Commands: ``analyze`` (ideal/spectrum/radical summary plus value tables),
``spectrum`` (DOT or JSON export), ``crt`` (runs an instance's task block;
exit 0 solved, 1 hypothesis violated, 2 not strongly semisimple, 3 invalid
input), ``gallery`` (print a built-in instance), and ``selftest`` (run the
exhaustive law checks of ``lgroup.laws`` on the gallery).  Only
``selftest`` imports ``lgroup.laws``: the other commands read their
answers off the structure tree and never enumerate.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from .core import LGroupError
from .crt import (
    CongruenceSystem,
    NotStronglySemisimple,
    keimel_patch,
    strong_patch,
    zero_set_patch,
)
from .gallery import GALLERY_NAMES, gallery_instance, gallery_json
from .ideals import ideal_count
from .semisimple import is_semisimple, is_strongly_semisimple, radical
from .serialize import (
    Instance,
    ParseError,
    PatchTask,
    ZeroSetTask,
    certificate_to_json,
    dumps_canonical,
    element_to_json,
    loads_instance,
)
from .spectrum import compute_spectrum, specialization_dot, spectrum_json
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
    # every ideal is principal; the ideal-lattice law of selftest checks it
    click.echo(f"ideals: {count} ({count - 1} proper, all principal)")
    click.echo(f"spec: {len(space)} primes, {len(space.max_ideals())} maximal")
    for i, (p, mx) in enumerate(zip(space.primes, space.maximal)):
        flag = " (maximal)" if mx else ""
        click.echo(f"  p{i} = {p!r}{flag}")
    click.echo(f"radical: {radical(G)!r}")
    click.echo(f"semisimple: {str(is_semisimple(G)).lower()}")
    strong, witness = is_strongly_semisimple(G)
    suffix = "" if strong else f" (witness: {witness!r})"
    click.echo(f"strongly semisimple: {str(strong).lower()}{suffix}")
    if instance.elements:
        click.echo("values on the maximal spectrum:")
        # the maximal primes are the uncovered ones, in table order
        labels = [f"p{i}" for i, c in enumerate(space.cover) if c is None]
        for name in sorted(instance.elements):
            entry = instance.elements[name]
            table = yosida_table(G, entry.value, space)
            rendered = ", ".join(
                f"{label} -> {v.numerator}/{v.denominator}"
                for label, v in zip(labels, table.values())
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


@main.command()
def selftest():
    """Run the exhaustive law suites on the gallery; exit 1 on violation."""
    from . import laws

    groups = {name: gallery_instance(name).group for name in GALLERY_NAMES}
    suites = [
        (f"{name}: {label}", functools.partial(check, G))
        for name, G in groups.items()
        for label, check in laws.LAWS
    ]
    failures = 0
    for label, check in suites + list(laws.SUITES):
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
