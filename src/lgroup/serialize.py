"""JSON interchange for structures, elements, ideals, and instance files.

The instance-file schema:

    {
      "structure": "Z" | {"prod": [structure, ...]} | {"lex": structure},
      "unit":      element,
      "ideals":    {name: ideal, ...}              (optional)
      "elements":  {name: element
                    | {"mv": true, "value": element}, ...}   (optional)
      "task":      {"mode": "keimel" | "strong",
                    "ideals": [ideal, ...], "targets": [element, ...]}
                 | {"mode": "zeroset",
                    "generators": [element, ...], "targets": [element, ...]}
                                                   (optional)
    }

Elements are integers for atoms, arrays of child elements for products,
and [top, bottom] pairs for lexicographic extensions.  Ideals are "zero" |
"all" | {"prod": [...]} | {"bottom": ideal}; the two string shorthands are
accepted at any position and normalised structurally.  Unknown keys are
rejected everywhere.  Serialisation is canonical (sorted keys, two-space
indent, trailing newline), so equal values always produce identical bytes.
"""

from __future__ import annotations

import json
from typing import Union

from .core import (
    Atom,
    Element,
    Lex,
    LGroupError,
    NotAStrongUnit,
    Prod,
    Structure,
    UnitalGroup,
    _is_int,
    _Record,
    _trusted_group,
)
from .ideals import (
    AtomIdeal,
    Ideal,
    LexIdeal,
    ProdIdeal,
    all_ideal,
    zero_ideal,
)


class ParseError(LGroupError):
    """Malformed instance input, with a JSON-path diagnostic."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def structure_to_json(structure: Structure):
    if isinstance(structure, Atom):
        return "Z"
    if isinstance(structure, Prod):
        return {"prod": [structure_to_json(c) for c in structure.children]}
    return {"lex": structure_to_json(structure.bottom)}


MAX_HEIGHT = 400
"""The tallest structure tree the parser accepts.  An atom has height 0 and
every prod or lex level adds 1.  The library walks trees by recursion, and
taller trees can exhaust Python's default recursion limit of 1000 frames;
every command, run in a process of its own, answers at this height with
room to spare."""


def structure_from_json(obj, path: str = "structure") -> Structure:
    return _structure_from_json(obj, path, 0)


def _structure_from_json(obj, path: str, height: int) -> Structure:
    # height: how many levels down the tree obj sits
    if obj == "Z":
        return Atom()
    if isinstance(obj, dict):
        if set(obj) in ({"prod"}, {"lex"}) and height >= MAX_HEIGHT:
            raise ParseError(path, f"structure taller than {MAX_HEIGHT} levels")
        if set(obj) == {"prod"}:
            kids = obj["prod"]
            if not isinstance(kids, list) or len(kids) < 2:
                raise ParseError(path, "prod needs a list of at least 2 structures")
            return Prod(
                tuple(
                    _structure_from_json(k, f"{path}.prod[{i}]", height + 1)
                    for i, k in enumerate(kids)
                )
            )
        if set(obj) == {"lex"}:
            return Lex(_structure_from_json(obj["lex"], f"{path}.lex", height + 1))
        raise ParseError(path, f"unknown structure keys {sorted(obj)}")
    raise ParseError(path, f"expected \"Z\", prod, or lex, got {obj!r}")


def element_to_json(structure: Structure, e: Element):
    if isinstance(structure, Atom):
        return e
    if isinstance(structure, Prod):
        return [element_to_json(c, p) for c, p in zip(structure.children, e)]
    return [e[0], element_to_json(structure.bottom, e[1])]


def element_from_json(structure: Structure, obj, path: str = "element") -> Element:
    if isinstance(structure, Atom):
        if not _is_int(obj):
            raise ParseError(path, f"expected an integer, got {obj!r}")
        return obj
    if isinstance(structure, Prod):
        n = len(structure.children)
        if not isinstance(obj, list) or len(obj) != n:
            raise ParseError(path, f"expected an array of {n} elements")
        return tuple(
            element_from_json(c, o, f"{path}[{i}]")
            for i, (c, o) in enumerate(zip(structure.children, obj))
        )
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(path, "expected a [top, bottom] pair")
    if not _is_int(obj[0]):
        raise ParseError(f"{path}[0]", f"expected an integer, got {obj[0]!r}")
    return (obj[0], element_from_json(structure.bottom, obj[1], f"{path}[1]"))


def ideal_to_json(I: Ideal):
    # canonical form compacts the trivial and improper ideals to their
    # shorthands at every level, so serialisation is byte-stable
    return _ideal_json(I)[0]


def _ideal_json(I: Ideal):
    """(canonical JSON, is zero, is whole) of I, from one post-order walk."""
    if isinstance(I, AtomIdeal):
        return ("all" if I.full else "zero"), not I.full, I.full
    if isinstance(I, LexIdeal):
        if I.inner is None:
            return "all", False, True
        inner, is_zero, _ = _ideal_json(I.inner)
        return ("zero" if is_zero else {"bottom": inner}), is_zero, False
    parts = list(map(_ideal_json, I.parts))
    is_zero = all(z for _, z, _ in parts)
    is_all = all(a for _, _, a in parts)
    if is_zero:
        return "zero", True, False
    if is_all:
        return "all", False, True
    return {"prod": [obj for obj, _, _ in parts]}, False, False


def ideal_from_json(structure: Structure, obj, path: str = "ideal") -> Ideal:
    if obj == "zero":
        return zero_ideal(structure)
    if obj == "all":
        return all_ideal(structure)
    if isinstance(obj, dict) and set(obj) == {"prod"}:
        if not isinstance(structure, Prod):
            raise ParseError(path, "prod ideal against a non-product structure")
        kids = obj["prod"]
        n = len(structure.children)
        if not isinstance(kids, list) or len(kids) != n:
            raise ParseError(path, f"expected {n} component ideals")
        return ProdIdeal(
            tuple(
                ideal_from_json(c, k, f"{path}.prod[{i}]")
                for i, (c, k) in enumerate(zip(structure.children, kids))
            )
        )
    if isinstance(obj, dict) and set(obj) == {"bottom"}:
        if not isinstance(structure, Lex):
            raise ParseError(path, "bottom ideal against a non-lex structure")
        return LexIdeal(ideal_from_json(structure.bottom, obj["bottom"], f"{path}.bottom"))
    raise ParseError(path, f"expected \"zero\", \"all\", prod, or bottom, got {obj!r}")


class ElementEntry(_Record):
    __slots__ = ("value", "mv")
    _defaults = {"mv": False}


class PatchTask(_Record):
    __slots__ = ("mode", "ideals", "targets")  # mode: "keimel" or "strong"


class ZeroSetTask(_Record):
    __slots__ = ("generators", "targets")


Task = Union[PatchTask, ZeroSetTask]


class Instance(_Record):
    """A parsed instance file; mutable, so unhashable."""

    __slots__ = ("group", "ideals", "elements", "task")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, group: UnitalGroup, ideals=None, elements=None, task=None):
        self.group, self.task = group, task
        self.ideals = {} if ideals is None else ideals
        self.elements = {} if elements is None else elements


def _require_keys(obj: dict, allowed: set, path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(path, f"unknown keys {sorted(unknown)}")


# the list each task mode pairs with its targets
_TASK_LISTS = {"keimel": "ideals", "strong": "ideals", "zeroset": "generators"}


def _parse_task(structure: Structure, obj, path: str) -> Task:
    if not isinstance(obj, dict):
        raise ParseError(path, "task must be an object")
    mode = obj.get("mode")
    key = _TASK_LISTS.get(mode) if isinstance(mode, str) else None
    if key is None:
        raise ParseError(
            f"{path}.mode", f"expected keimel, strong, or zeroset, got {mode!r}"
        )
    _require_keys(obj, {"mode", key, "targets"}, path)
    items, targets = obj.get(key), obj.get("targets")
    if not isinstance(items, list) or not isinstance(targets, list):
        raise ParseError(path, f"{key} and targets must be arrays")
    if len(items) != len(targets):
        raise ParseError(path, f"{key} and targets must have equal length")
    parse = ideal_from_json if key == "ideals" else element_from_json
    items = tuple(
        parse(structure, x, f"{path}.{key}[{i}]") for i, x in enumerate(items)
    )
    targets = tuple(
        element_from_json(structure, t, f"{path}.targets[{i}]")
        for i, t in enumerate(targets)
    )
    if key == "generators":
        return ZeroSetTask(items, targets)
    return PatchTask(mode, items, targets)


def instance_from_json(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ParseError("$", "instance file must be a JSON object")
    _require_keys(obj, {"structure", "unit", "ideals", "elements", "task"}, "$")
    if "structure" not in obj or "unit" not in obj:
        raise ParseError("$", "structure and unit are required")
    structure = structure_from_json(obj["structure"])
    unit = element_from_json(structure, obj["unit"], "unit")
    try:
        # element_from_json has checked the unit's shape
        group = _trusted_group(structure, unit)
    except NotAStrongUnit as exc:
        raise ParseError("unit", str(exc)) from exc
    instance = Instance(group)
    ideals = obj.get("ideals", {})
    if not isinstance(ideals, dict):
        raise ParseError("ideals", "must be an object of named ideals")
    for name, raw in ideals.items():
        instance.ideals[name] = ideal_from_json(structure, raw, f"ideals.{name}")
    elements = obj.get("elements", {})
    if not isinstance(elements, dict):
        raise ParseError("elements", "must be an object of named elements")
    for name, raw in elements.items():
        path = f"elements.{name}"
        if isinstance(raw, dict):
            _require_keys(raw, {"mv", "value"}, path)
            if raw.get("mv") is not True or "value" not in raw:
                raise ParseError(path, "tagged entries need \"mv\": true and a value")
            value = element_from_json(structure, raw["value"], f"{path}.value")
            instance.elements[name] = ElementEntry(value, mv=True)
        else:
            instance.elements[name] = ElementEntry(
                element_from_json(structure, raw, path)
            )
    if "task" in obj:
        instance.task = _parse_task(structure, obj["task"], "task")
    return instance


def instance_to_json(instance: Instance) -> dict:
    structure = instance.group.structure
    out: dict = {
        "structure": structure_to_json(structure),
        "unit": element_to_json(structure, instance.group.unit),
    }
    if instance.ideals:
        out["ideals"] = {
            name: ideal_to_json(I) for name, I in instance.ideals.items()
        }
    if instance.elements:
        rendered = {}
        for name, entry in instance.elements.items():
            value = element_to_json(structure, entry.value)
            rendered[name] = {"mv": True, "value": value} if entry.mv else value
        out["elements"] = rendered
    task = instance.task
    if isinstance(task, PatchTask):
        out["task"] = {
            "mode": task.mode,
            "ideals": [ideal_to_json(I) for I in task.ideals],
            "targets": [element_to_json(structure, t) for t in task.targets],
        }
    elif isinstance(task, ZeroSetTask):
        out["task"] = {
            "mode": "zeroset",
            "generators": [element_to_json(structure, g) for g in task.generators],
            "targets": [element_to_json(structure, t) for t in task.targets],
        }
    return out


def certificate_to_json(structure: Structure, cert) -> dict:
    """Structured rendering of a patching failure certificate."""
    from .crt import (
        Incompatible,
        IncompatibleOnZeroSets,
        MaxHypothesisViolated,
        NotStronglySemisimple,
    )

    if isinstance(cert, Incompatible):
        return {
            "kind": "incompatible",
            "i": cert.i,
            "j": cert.j,
            "difference": element_to_json(structure, cert.difference),
            "join_ideal": ideal_to_json(cert.join_ideal),
        }
    if isinstance(cert, MaxHypothesisViolated):
        return {
            "kind": "max-hypothesis-violated",
            "i": cert.i,
            "j": cert.j,
            "maximal": ideal_to_json(cert.maximal),
        }
    if isinstance(cert, NotStronglySemisimple):
        out = {
            "kind": "not-strongly-semisimple",
            "witness": ideal_to_json(cert.witness),
            "keimel_hypothesis_holds": cert.keimel_hypothesis_holds,
            "solution_exists": cert.solution_exists,
        }
        if cert.incompatible_pair is not None:
            out["incompatible_pair"] = list(cert.incompatible_pair)
        return out
    if isinstance(cert, IncompatibleOnZeroSets):
        return {
            "kind": "incompatible-on-zero-sets",
            "i": cert.i,
            "j": cert.j,
            "maximal": ideal_to_json(cert.maximal),
        }
    raise LGroupError(f"unknown certificate {cert!r}")


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def loads_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    except RecursionError:
        # the decoder refuses nesting deeper than the recursion limit
        raise ParseError("$", "invalid JSON: nested too deeply") from None
    return instance_from_json(obj)
