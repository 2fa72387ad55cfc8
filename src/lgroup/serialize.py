"""JSON interchange for structures, elements, ideals, instance files and
certificates.

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
indent, trailing newline), so equal values always produce identical bytes:
``dumps_canonical`` writes the bytes of the stdlib's ``json.dumps`` with
those settings, in one pass over an explicit stack, so nesting of any
depth exports.

Output is rendered from the values, not by a walk of the structure: an
ideal node is its canonical form, a tuple the array of its items' forms,
and an integer, boolean or string itself (an element is checked against
its structure first).  A certificate is its ``kind`` and every field of
its record that is not None, so a new field renders with no change here.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Union

from .core import Atom, Element, Lex, LGroupError, NotAStrongUnit, Prod, ShapeMismatch, Structure
from .core import _Ideal, _is_int, _Record, _trusted_group, check_element
from .core import Ideal, LexIdeal, ProdIdeal, UnitalGroup, all_ideal, check_ideal, zero_ideal


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
    if isinstance(structure, Lex):
        return {"lex": structure_to_json(structure.bottom)}
    raise ShapeMismatch((), f"expected a structure, got {structure!r}")


MAX_HEIGHT = 400
"""The tallest structure tree the parser accepts.  An atom has height 0 and
every prod or lex level adds 1.  The library walks trees by recursion, and
taller trees can exhaust Python's default recursion limit of 1000 frames;
every command, run in a process of its own, answers at this height with
room to spare."""

MAX_INT_BITS = 12_900
"""The longest integer, in bits (3,884 digits), that an element may hold.
Each integer printed is an input one, a sum or difference of two, or a
reduced fraction of them, so it stays under the 4,300 digits to which
Python limits conversion to text; that guard is process-global, so it is
left as it is."""


def structure_from_json(obj, path: str = "structure") -> Structure:
    return _structure_from_json(obj, path, 0)


def _structure_from_json(obj, path: str, height: int) -> Structure:
    # height: how many levels down the tree obj sits
    if obj == "Z":
        return Atom()
    if not isinstance(obj, dict):
        raise ParseError(path, f"expected \"Z\", prod, or lex, got {obj!r}")
    if set(obj) not in ({"prod"}, {"lex"}):
        raise ParseError(path, f"unknown structure keys {sorted(obj)}")
    if height >= MAX_HEIGHT:
        raise ParseError(path, f"structure taller than {MAX_HEIGHT} levels")
    if "lex" in obj:
        return Lex(_structure_from_json(obj["lex"], f"{path}.lex", height + 1))
    kids = obj["prod"]
    if not isinstance(kids, list) or len(kids) < 2:
        raise ParseError(path, "prod needs a list of at least 2 structures")
    parts = enumerate(kids)
    return Prod(tuple(_structure_from_json(k, f"{path}.prod[{i}]", height + 1) for i, k in parts))


def _to_json(value):
    """The JSON form of a value made of ideal nodes, tuples and scalars."""
    if isinstance(value, _Ideal):
        return ideal_to_json(value)
    if isinstance(value, tuple):
        return list(map(_to_json, value))
    return value


def element_to_json(structure: Structure, e: Element):
    """``e`` as JSON, after one walk checking it against ``structure``
    (raising ShapeMismatch at the first malformed position)."""
    check_element(structure, e)
    return _to_json(e)


def element_from_json(structure: Structure, obj, path: str = "element") -> Element:
    if isinstance(structure, Atom):
        if not _is_int(obj):
            raise ParseError(path, f"expected an integer, got {obj!r}")
        if obj.bit_length() > MAX_INT_BITS:
            raise ParseError(path, f"integer longer than {MAX_INT_BITS} bits")
        return obj
    if isinstance(structure, Prod):
        n = len(structure.children)
        if not isinstance(obj, list) or len(obj) != n:
            raise ParseError(path, f"expected an array of {n} elements")
        parts = enumerate(zip(structure.children, obj))
        return tuple(element_from_json(c, o, f"{path}[{i}]") for i, (c, o) in parts)
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(path, "expected a [top, bottom] pair")
    top = element_from_json(Atom(), obj[0], f"{path}[0]")  # the dominant integer
    return (top, element_from_json(structure.bottom, obj[1], f"{path}[1]"))


def ideal_to_json(I: Ideal):
    """The canonical form: the zero and improper ideals are their shorthands
    at every level, read off the flags each ideal node stores, so
    serialisation is byte-stable and descends only into mixed nodes.
    Anything but an ideal node is refused with ShapeMismatch."""
    if not isinstance(I, _Ideal):
        raise ShapeMismatch((), f"expected an ideal, got {I!r}")
    if I._zero:
        return "zero"
    if not I._mask:
        return "all"
    if type(I) is ProdIdeal:
        return {"prod": list(map(ideal_to_json, I.parts))}
    return {"bottom": ideal_to_json(I.inner)}


def ideal_from_json(structure: Structure, obj, path: str = "ideal") -> Ideal:
    if obj == "zero":
        return zero_ideal(structure)
    if obj == "all":
        return all_ideal(structure)
    if not isinstance(obj, dict) or set(obj) not in ({"prod"}, {"bottom"}):
        raise ParseError(path, f"expected \"zero\", \"all\", prod, or bottom, got {obj!r}")
    if "bottom" in obj:
        if not isinstance(structure, Lex):
            raise ParseError(path, "bottom ideal against a non-lex structure")
        return LexIdeal(ideal_from_json(structure.bottom, obj["bottom"], f"{path}.bottom"))
    if not isinstance(structure, Prod):
        raise ParseError(path, "prod ideal against a non-product structure")
    kids, n = obj["prod"], len(structure.children)
    if not isinstance(kids, list) or len(kids) != n:
        raise ParseError(path, f"expected {n} component ideals")
    parts = enumerate(zip(structure.children, kids))
    return ProdIdeal(tuple(ideal_from_json(c, k, f"{path}.prod[{i}]") for i, (c, k) in parts))


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
        raise ParseError(f"{path}.mode", f"expected keimel, strong, or zeroset, got {mode!r}")
    _require_keys(obj, {"mode", key, "targets"}, path)
    items, targets = obj.get(key), obj.get("targets")
    if not isinstance(items, list) or not isinstance(targets, list):
        raise ParseError(path, f"{key} and targets must be arrays")
    if len(items) != len(targets):
        raise ParseError(path, f"{key} and targets must have equal length")
    parse = ideal_from_json if key == "ideals" else element_from_json
    items = tuple(parse(structure, x, f"{path}.{key}[{i}]") for i, x in enumerate(items))
    targets = tuple(
        element_from_json(structure, t, f"{path}.targets[{i}]") for i, t in enumerate(targets)
    )
    return ZeroSetTask(items, targets) if key == "generators" else PatchTask(mode, items, targets)


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
        path, mv = f"elements.{name}", isinstance(raw, dict)
        if mv:
            _require_keys(raw, {"mv", "value"}, path)
            if raw.get("mv") is not True or "value" not in raw:
                raise ParseError(path, "tagged entries need \"mv\": true and a value")
            raw, path = raw["value"], f"{path}.value"
        instance.elements[name] = ElementEntry(element_from_json(structure, raw, path), mv)
    _check_intervals(instance)
    if "task" in obj:
        instance.task = _parse_task(structure, obj["task"], "task")
    return instance


def _check_intervals(instance: Instance) -> None:
    """Refuse an mv element outside [0, u], by one call of the tree's
    interval kernel each; a malformed one (None) is left to its shape
    check."""
    G = instance.group
    for name, e in instance.elements.items():
        if e.mv and G.structure._between(e.value, G.unit, True, True) is False:
            shown = _to_json(e.value)
            raise ParseError(f"elements.{name}.value", f"{shown!r} is not between 0 and the unit")


def instance_to_json(instance: Instance) -> dict:
    if not isinstance(instance, Instance):
        raise ShapeMismatch((), f"expected an instance, got {instance!r}")
    structure, task = instance.group.structure, instance.task
    element = partial(element_to_json, structure)
    for I in (*instance.ideals.values(), *getattr(task, "ideals", ())):
        check_ideal(structure, I)  # as element_to_json checks each element
    _check_intervals(instance)  # as loads_instance does
    out: dict = {"structure": structure_to_json(structure), "unit": element(instance.group.unit)}
    if instance.ideals:
        out["ideals"] = {name: ideal_to_json(I) for name, I in instance.ideals.items()}
    if instance.elements:
        out["elements"] = {
            name: {"mv": True, "value": element(e.value)} if e.mv else element(e.value)
            for name, e in instance.elements.items()
        }
    if task is not None:
        mode = getattr(task, "mode", "zeroset")  # a zero-set task has no mode field
        key = _TASK_LISTS[mode]
        render = element if key == "generators" else ideal_to_json
        out["task"] = {
            "mode": mode,
            key: list(map(render, getattr(task, key))),
            "targets": list(map(element, task.targets)),
        }
    return out


def certificate_to_json(structure: Structure, cert) -> dict:
    """A patching failure certificate, a record whose class names its
    ``kind`` (a ``Violation``'s kind is a field, so it is refused), as its
    kind and every field of its record that is not None."""
    if not isinstance(cert, _Record) or not isinstance(getattr(type(cert), "kind", None), str):
        raise LGroupError(f"unknown certificate {cert!r}")
    out = {"kind": cert.kind}
    for name, value in zip(cert.__slots__, cert._values()):
        if value is not None:
            out[name] = _to_json(value)
    if hasattr(cert, "solution_exists"):
        out["solution_exists"] = cert.solution_exists
    return out


_escape = json.encoder.encode_basestring_ascii  # the C encoder's string writer
_LITERALS = {None: "null", True: "true", False: "false"}
_PIECE = 1 << 16  # the least text, in characters, of each piece but the last


def dumps_canonical(obj, write=None):
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline: the
    stdlib's bytes, written in one pass with no recursion, so any depth
    exports.  Strings, integers, booleans, None, and non-empty lists, tuples
    and dicts are written here, each open container as the iterator of its
    items on one explicit stack, and a list of strings with one join.  Any
    other value is the stdlib's own text, indented to its place, and a
    document with a key that is not a string is the stdlib's throughout.

    With ``write``, the same text goes to ``write`` in pieces, and the call
    returns None: the pieces written so far are joined and handed over at
    the first container boundary after about 64 KB (a flat container's text
    is written whole), and the rest, with the final newline, at the end.
    So the text is never held whole.  The stdlib's text for a key that is
    not a string is written only while nothing has been: once a piece is
    out, such a key raises its TypeError, and what was written is a prefix
    of the document, never followed by a second one."""
    out, open_ids, wrote = [], set(), False
    stack = [(iter((("", obj),)), "", None)]  # (prefixed items, closing text, id) per container
    try:
        while stack:
            if write is not None and len(out) > 255:
                text = "".join(out)
                out.clear()
                if len(text) < _PIECE:
                    out.append(text)
                else:
                    write(text)
                    wrote = True
            items, close, key = stack[-1]
            for prefix, value in items:
                kind = type(value)
                if kind is str:
                    out.append(prefix + _escape(value))
                elif kind is int:
                    out.append(prefix + int.__repr__(value))
                elif kind is bool or value is None:
                    out.append(prefix + _LITERALS[value])
                elif value and kind in (list, tuple, dict):
                    if id(value) in open_ids:
                        raise ValueError("Circular reference detected")
                    pad, brackets = "\n" + "  " * len(stack), "{}" if kind is dict else "[]"
                    if kind is dict:
                        keys = sorted(value)
                        prefixes = [f",{pad}{_escape(k)}: " for k in keys]
                        parts = map(value.get, keys)
                    elif all(type(x) is str for x in value):
                        body = f",{pad}".join(map(_escape, value))
                        out.append(f"{prefix}[{pad}{body}{pad[:-2]}]")
                        continue
                    else:
                        prefixes, parts = [f",{pad}"] * len(value), value
                    open_ids.add(id(value))
                    prefixes[0] = prefixes[0][1:]
                    out.append(prefix + brackets[0])
                    stack.append((zip(prefixes, parts), pad[:-2] + brackets[1], id(value)))
                    break
                else:
                    text = json.dumps(value, indent=2, sort_keys=True)
                    out.append(prefix + text.replace("\n", "\n" + "  " * (len(stack) - 1)))
            else:
                out.append(close)
                open_ids.discard(key)
                stack.pop()
    except TypeError:  # a key that is not a string: the stdlib converts or refuses it
        if wrote:
            raise
        out = [json.dumps(obj, indent=2, sort_keys=True)]
    out.append("\n")
    if write is None:
        return "".join(out)
    write("".join(out))
    return None


def loads_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except TypeError:  # not text at all
        raise ParseError("$", f"expected JSON text, got {type(text).__name__}") from None
    except ValueError as exc:  # malformed text, or an integer too long to convert
        raise ParseError("$", f"invalid JSON: {exc}") from exc
    except RecursionError:
        # the decoder refuses nesting deeper than the recursion limit
        raise ParseError("$", "invalid JSON: nested too deeply") from None
    return instance_from_json(obj)
