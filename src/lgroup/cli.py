"""Command-line front end.

Commands: ``analyze`` (ideal/spectrum/radical summary plus value tables),
``spectrum`` (DOT or JSON export), ``crt`` (runs an instance's task block;
exit 0 solved, 1 hypothesis violated, 2 not strongly semisimple, 3 invalid
input), ``gallery`` (print a built-in instance), and ``selftest`` (run the
exhaustive law checks of ``lgroup.laws`` on the gallery).  A usage error
(a missing argument, an unknown option, command or format) also exits 3,
with its message on stderr.

Every call is a fresh process, so each command imports and compiles
only what it runs.  ``main`` reads the argv shapes that the commands take
itself: ``analyze FILE``, ``crt FILE``, ``spectrum FILE``, and
``spectrum`` with ``--format dot|json`` before or after FILE, where FILE
does not start with ``-``.  Every other argv (``--help``, ``--``,
``--format=...``, an abbreviation, a missing or extra argument,
``gallery`` and ``selftest``) goes to the ``argparse`` parser of
``lgroup.argparser``, which ``main`` imports for it alone, with the
``gallery`` and ``selftest`` commands, so every usage error, help text
and exit code is argparse's.  Reading an instance needs ``serialize``
(with the ``core`` it imports), imported here; ``spectrum`` adds
``spectrum``, ``analyze`` adds ``spectrum`` and ``semisimple``, and
``crt`` adds ``crt`` with the ``semisimple`` it imports, each inside its
command.  ``analyze`` prints each value as g's top integer over the
unit's in lowest terms, from ``core.top_values`` and the unit's stored
integers, so it loads neither ``lgroup.yosida`` nor ``fractions``.  No
command but ``selftest`` loads ``lgroup.ideals`` (with ``lgroup.laws``):
the others read their answers off the structure tree and never
enumerate.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

from .core import LGroupError, ideal_count, top_values
from .serialize import (
    Instance,
    PatchTask,
    ZeroSetTask,
    certificate_to_json,
    dumps_canonical,
    element_to_json,
    loads_instance,
)

INVALID_INPUT = 3  # the exit code of bad input and of usage errors


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(INVALID_INPUT)


def _load(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return loads_instance(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        _fail(f"cannot read {path}: {exc}")
    except LGroupError as exc:  # a ParseError too
        _fail(str(exc))


def _ratio(g: int, u: int) -> str:
    """g/u in lowest terms for a positive u, as ``numerator/denominator``
    of ``Fraction(g, u)``."""
    d = math.gcd(g, u)
    return f"{g // d}/{u // d}"


def analyze(args) -> int:
    """Summarise an instance: ideals, spectrum, radical, semisimplicity,
    and the value tables of its listed elements."""
    from .semisimple import is_semisimple, is_strongly_semisimple, radical
    from .spectrum import compute_spectrum

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
        # the maximal primes are the uncovered ones, in table order, and
        # g's value at each is its top integer over the unit's (see
        # ``lgroup.yosida``); the unit's are positive
        labels = [f"p{i}" for i, c in enumerate(space.cover) if c is None]
        for name in sorted(instance.elements):
            entry = instance.elements[name]
            values = zip(top_values(G.structure, entry.value), G._tops)
            rendered = ", ".join(f"{label} -> {_ratio(*v)}" for label, v in zip(labels, values))
            tag = " [mv]" if entry.mv else ""
            print(f"  {name}{tag}: {rendered}")
    return 0


def spectrum(args) -> int:
    """Export the prime spectrum of an instance."""
    from .spectrum import compute_spectrum, specialization_dot, spectrum_json

    space = compute_spectrum(_load(args.file).group)
    if args.format == "dot":
        sys.stdout.write(specialization_dot(space))
    else:
        # the text grows as the cube of the tree's height (220 MB for a
        # product nest at the parser's 400 levels): written in pieces, it
        # is never held whole
        dumps_canonical(spectrum_json(space), sys.stdout.write)
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


def _fast_path(args):
    """The parsed arguments of the argv shapes the commands take, as the
    argparse parser would give them, or None for any other argv."""
    if len(args) == 2 and args[0] in ("analyze", "crt", "spectrum"):
        command, file = args
        fmt = "json"
    elif len(args) == 4 and args[0] == "spectrum" and args[1] == "--format":
        command, _, fmt, file = args
    elif len(args) == 4 and args[0] == "spectrum" and args[2] == "--format":
        command, file, _, fmt = args
    else:
        return None
    if file.startswith("-") or fmt not in ("dot", "json"):
        return None
    parsed = SimpleNamespace(command=command, file=file)
    if command == "spectrum":
        parsed.format = fmt
    parsed.run = {"analyze": analyze, "crt": crt, "spectrum": spectrum}[command]
    return parsed


def main(args=None, prog_name=None):
    """Run one command with ``args`` (default: ``sys.argv[1:]``); always
    ends in ``SystemExit`` with the command's exit code."""
    args = sys.argv[1:] if args is None else args
    parsed = _fast_path(args)
    if parsed is None:
        from .argparser import _parser

        parsed = _parser(prog_name or "lgroup").parse_args(args)
    sys.exit(parsed.run(parsed))


if __name__ == "__main__":
    main()
