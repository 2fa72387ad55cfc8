"""Command-line front end.

Commands: ``analyze`` (ideal/spectrum/radical summary plus value tables),
``spectrum`` (DOT or JSON export), ``crt`` (runs an instance's task block;
exit 0 solved, 1 hypothesis violated, 2 not strongly semisimple, 3 invalid
input), ``gallery`` (print a built-in instance), and ``selftest`` (run the
exhaustive law checks of ``lgroup.laws`` on the gallery).  A usage error
(a missing argument, an unknown option, command or format) also exits 3,
with its message on stderr.

Every call is a fresh process, so each command imports only what it runs.
Reading an instance and its spectrum needs ``serialize`` and ``spectrum``
(with the ``core`` and ``ideals`` they import), imported here; ``analyze``
adds ``semisimple`` and ``yosida``, ``crt`` adds ``crt``, and ``gallery``
and ``selftest`` load their own modules.  Only ``selftest`` imports
``lgroup.laws``: the other commands read their answers off the structure
tree and never enumerate.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import LGroupError
from .ideals import ideal_count
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

INVALID_INPUT = 3  # the exit code of bad input and of usage errors


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, not 2: exit 2 means
    "not strongly semisimple" to ``crt``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(INVALID_INPUT, f"{self.prog}: error: {message}\n")


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(INVALID_INPUT)


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_instance(handle.read())
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except (ParseError, LGroupError) as exc:
        _fail(str(exc))


def analyze(args) -> int:
    """Summarise an instance: ideals, spectrum, radical, semisimplicity,
    and the value tables of its listed elements."""
    from .semisimple import is_semisimple, is_strongly_semisimple, radical
    from .yosida import yosida_table

    instance = _load(args.file)
    G = instance.group
    space = compute_spectrum(G)
    print(f"structure: {G.structure!r}")
    print(f"unit: {json.dumps(element_to_json(G.structure, G.unit))}")
    count = ideal_count(G.structure)
    # every ideal is principal; the ideal-lattice law of selftest checks it
    print(f"ideals: {count} ({count - 1} proper, all principal)")
    print(f"spec: {len(space)} primes, {len(space.max_ideals())} maximal")
    for i, (p, mx) in enumerate(zip(space.primes, space.maximal)):
        flag = " (maximal)" if mx else ""
        print(f"  p{i} = {p!r}{flag}")
    print(f"radical: {radical(G)!r}")
    print(f"semisimple: {str(is_semisimple(G)).lower()}")
    strong, witness = is_strongly_semisimple(G)
    suffix = "" if strong else f" (witness: {witness!r})"
    print(f"strongly semisimple: {str(strong).lower()}{suffix}")
    if instance.elements:
        print("values on the maximal spectrum:")
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
            print(f"  {name}{tag}: {rendered}")
    return 0


def spectrum(args) -> int:
    """Export the prime spectrum of an instance."""
    space = compute_spectrum(_load(args.file).group)
    if args.format == "dot":
        sys.stdout.write(specialization_dot(space))
    else:
        sys.stdout.write(dumps_canonical(spectrum_json(space)))
    return 0


def crt(args) -> int:
    """Run the instance's task block and print a solution or certificate."""
    from .crt import (
        NotStronglySemisimple,
        keimel_patch,
        strong_patch,
        zero_set_patch,
    )

    instance = _load(args.file)
    G = instance.group
    task = instance.task
    if task is None:
        _fail("instance has no task block")
    try:
        if isinstance(task, PatchTask):
            solver = keimel_patch if task.mode == "keimel" else strong_patch
            result = solver(G, zip(task.ideals, task.targets))
        else:
            result = zero_set_patch(G, task.generators, task.targets)
    except LGroupError as exc:
        _fail(str(exc))
    if result.solved:
        payload = {"solution": element_to_json(G.structure, result.solution)}
        if isinstance(task, ZeroSetTask):
            payload["unique"] = result.unique
        sys.stdout.write(dumps_canonical(payload))
        return 0
    cert = result.certificate
    sys.stdout.write(dumps_canonical(certificate_to_json(G.structure, cert)))
    return 2 if isinstance(cert, NotStronglySemisimple) else 1


def _gallery_name(name: str) -> str:
    from .gallery import GALLERY_NAMES

    if name not in GALLERY_NAMES:
        choices = ", ".join(map(repr, GALLERY_NAMES))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")
    return name


def gallery(args) -> int:
    """Print a built-in instance file."""
    from .gallery import gallery_json

    sys.stdout.write(gallery_json(args.name))
    return 0


def selftest(args) -> int:
    """Run the exhaustive law suites on the gallery; exit 1 on violation."""
    from . import laws
    from .gallery import GALLERY_NAMES, gallery_instance

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
            print(f"[FAIL] {label}: {'; '.join(sorted(set(errors))[:3])}")
        else:
            print(f"[ok] {label}")
    if failures:
        print(f"{failures} suite(s) failed", file=sys.stderr)
        return 1
    print("all suites passed")
    return 0


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = _Parser(
        prog=prog,
        allow_abbrev=False,
        description="Exact ideal, spectrum, and congruence-patching computations "
        "on a decidable class of unital lattice-ordered Abelian groups.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(run):
        summary = " ".join(run.__doc__.split())
        sub = commands.add_parser(
            run.__name__, help=summary, description=summary, allow_abbrev=False
        )
        sub.set_defaults(run=run)
        return sub

    command(analyze).add_argument("file")
    sub = command(spectrum)
    sub.add_argument("file")
    sub.add_argument(
        "--format",
        choices=("dot", "json"),
        default="json",
        help="specialization diagram (dot) or closure tables (json); default: json",
    )
    command(crt).add_argument("file")
    command(gallery).add_argument(
        "--name", required=True, type=_gallery_name, help="name of a built-in instance"
    )
    command(selftest)
    return parser


def main(args=None, prog_name=None):
    """Run one command with ``args`` (default: ``sys.argv[1:]``); always
    ends in ``SystemExit`` with the command's exit code."""
    parsed = _parser(prog_name or "lgroup").parse_args(args)
    sys.exit(parsed.run(parsed))


if __name__ == "__main__":
    main()
