"""The ``argparse`` front end of ``lgroup``.

``cli.main`` reads the argv shapes that the commands take itself and
imports this module only for every other argv: ``--help``, ``--``,
``--format=...``, an abbreviation, a missing or extra argument,
``gallery`` and ``selftest``.  So every usage error, help text and exit
code is argparse's, and a cold ``analyze``, ``spectrum`` or ``crt`` call
compiles none of it.  ``gallery`` and ``selftest`` live here, as only
this parser runs them; the help texts are the commands' docstrings.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .cli import INVALID_INPUT, analyze, crt, spectrum


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


def _parser(prog: str):
    class _Parser(argparse.ArgumentParser):
        """An argument parser whose usage errors exit 3, not 2: exit 2 means
        "not strongly semisimple" to ``crt``."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(INVALID_INPUT, f"{self.prog}: error: {message}\n")

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
