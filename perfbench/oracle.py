"""Independent answers for generated instances.

Everything here works on the generator's own JSON tree -- ``"Z"``,
``{"prod": [...]}`` or ``{"lex": ...}`` -- and never imports lgroup, so a
defect in the library cannot hide itself by also breaking the oracle.
Elements are nested tuples (JSON arrays are converted with ``as_tuple``);
ideals are JSON ideals: ``"zero"``, ``"all"``, ``{"prod": [...]}`` or
``{"bottom": ideal}``.

The counting rules follow from the shape of the class:

* ideals:  Z -> 2, prod -> product of the children, lex -> child + 1;
* primes:  Z -> 1, prod -> sum, lex -> child + 1;
* maximal: Z -> 1, prod -> sum, lex -> 1;
* semisimple <=> strongly semisimple <=> the tree has no lex node.

A maximal ideal sits at each "top coordinate": an atom or a lex node reached
from the root through products only.  The value of an element there is its
integer at that coordinate (the dominant one, for a lex node) divided by the
unit's.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def is_atom(s) -> bool:
    return s == "Z"


def is_prod(s) -> bool:
    return isinstance(s, dict) and "prod" in s


def ideal_count(s) -> int:
    if is_atom(s):
        return 2
    if is_prod(s):
        return math.prod(ideal_count(c) for c in s["prod"])
    return ideal_count(s["lex"]) + 1


def prime_count(s) -> int:
    if is_atom(s):
        return 1
    if is_prod(s):
        return sum(prime_count(c) for c in s["prod"])
    return prime_count(s["lex"]) + 1


def maximal_count(s) -> int:
    if is_atom(s):
        return 1
    if is_prod(s):
        return sum(maximal_count(c) for c in s["prod"])
    return 1


def has_lex(s) -> bool:
    if is_atom(s):
        return False
    if is_prod(s):
        return any(has_lex(c) for c in s["prod"])
    return True


def specialization_pairs(s) -> int:
    """Pairs p < q of primes: a lex node puts every prime of its bottom
    under its one maximal prime; products never relate two children."""
    if is_atom(s):
        return 0
    if is_prod(s):
        return sum(specialization_pairs(c) for c in s["prod"])
    return specialization_pairs(s["lex"]) + prime_count(s["lex"])


def cover_edges(s) -> int:
    """Cover pairs of the specialization order (the DOT edges)."""
    if is_atom(s):
        return 0
    if is_prod(s):
        return sum(cover_edges(c) for c in s["prod"])
    return cover_edges(s["lex"]) + maximal_count(s["lex"])


def max_coords(s, path=()) -> list:
    """Paths (product indices) of the top coordinates, in tree order."""
    if is_prod(s):
        out = []
        for i, c in enumerate(s["prod"]):
            out.extend(max_coords(c, path + (i,)))
        return out
    return [path]


def top(e, path) -> int:
    """The integer of ``e`` at a top coordinate."""
    for i in path:
        e = e[i]
    return e if isinstance(e, int) else e[0]


def values(s, unit, e) -> list:
    """Sorted values of ``e`` over the maximal spectrum."""
    return sorted(Fraction(top(e, c), top(unit, c)) for c in max_coords(s))


def zero_set(s, e) -> frozenset:
    """Top coordinates where ``e`` vanishes."""
    return frozenset(c for c in max_coords(s) if top(e, c) == 0)


def as_tuple(e):
    return tuple(as_tuple(x) for x in e) if isinstance(e, (list, tuple)) else e


# -- element arithmetic ------------------------------------------------------


def zero(s):
    if is_atom(s):
        return 0
    if is_prod(s):
        return tuple(zero(c) for c in s["prod"])
    return (0, zero(s["lex"]))


def add(s, g, h):
    if is_atom(s):
        return g + h
    if is_prod(s):
        return tuple(add(c, a, b) for c, a, b in zip(s["prod"], g, h))
    return (g[0] + h[0], add(s["lex"], g[1], h[1]))


def neg(s, g):
    if is_atom(s):
        return -g
    if is_prod(s):
        return tuple(neg(c, a) for c, a in zip(s["prod"], g))
    return (-g[0], neg(s["lex"], g[1]))


def sub(s, g, h):
    return add(s, g, neg(s, h))


def meet(s, g, h):
    if is_atom(s):
        return min(g, h)
    if is_prod(s):
        return tuple(meet(c, a, b) for c, a, b in zip(s["prod"], g, h))
    if g[0] != h[0]:
        return g if g[0] < h[0] else h
    return (g[0], meet(s["lex"], g[1], h[1]))


def join(s, g, h):
    if is_atom(s):
        return max(g, h)
    if is_prod(s):
        return tuple(join(c, a, b) for c, a, b in zip(s["prod"], g, h))
    if g[0] != h[0]:
        return g if g[0] > h[0] else h
    return (g[0], join(s["lex"], g[1], h[1]))


def gamma(s, unit, op, x, y):
    """The interval operations of [0, unit], from their definitions."""
    if op == "clamp":
        return join(s, zero(s), meet(s, x, unit))
    if op == "oplus":
        return meet(s, unit, add(s, x, y))
    if op == "neg":
        return sub(s, unit, x)
    if op == "odot":
        return join(s, zero(s), sub(s, add(s, x, y), unit))
    if op == "mv_join":
        inner = gamma(s, unit, "oplus", sub(s, unit, x), y)
        return gamma(s, unit, "oplus", sub(s, unit, inner), y)
    if op == "mv_meet":
        return sub(s, unit, gamma(s, unit, "mv_join", sub(s, unit, x), sub(s, unit, y)))
    raise ValueError(op)


# -- ideals ------------------------------------------------------------------


def contains(s, ideal, g) -> bool:
    if ideal == "all":
        return True
    if is_atom(s):
        return g == 0
    if is_prod(s):
        parts = ["zero"] * len(s["prod"]) if ideal == "zero" else ideal["prod"]
        return all(contains(c, p, a) for c, p, a in zip(s["prod"], parts, g))
    inner = "zero" if ideal == "zero" else ideal["bottom"]
    return g[0] == 0 and contains(s["lex"], inner, g[1])


def principal(s, g):
    if is_atom(s):
        return "all" if g != 0 else "zero"
    if is_prod(s):
        return {"prod": [principal(c, a) for c, a in zip(s["prod"], g)]}
    return "all" if g[0] != 0 else {"bottom": principal(s["lex"], g[1])}


# -- expected answers and output checks -----------------------------------


def expected(s) -> dict:
    return {
        "ideals": ideal_count(s),
        "primes": prime_count(s),
        "maximal": maximal_count(s),
        "semisimple": not has_lex(s),
        "pairs": specialization_pairs(s),
        "covers": cover_edges(s),
    }


def expected_crt(s, task, incompatible) -> tuple:
    """(exit code, certificate kind or None) the crt command must give."""
    mode = task["mode"]
    if incompatible:
        kind = {
            "keimel": "incompatible",
            "strong": "max-hypothesis-violated",
            "zeroset": "incompatible-on-zero-sets",
        }[mode]
        return 1, kind
    if mode != "keimel" and has_lex(s):
        return 2, "not-strongly-semisimple"
    return 0, None


def solution_errors(s, task, solution, unique=None) -> list:
    """Re-check a returned solution constraint by constraint."""
    targets = [as_tuple(t) for t in task["targets"]]
    errors = []
    if task["mode"] == "zeroset":
        gens = [as_tuple(h) for h in task["generators"]]
        for k, (h, t) in enumerate(zip(gens, targets)):
            if any(top(solution, c) != top(t, c) for c in zero_set(s, h)):
                errors.append(f"solution misses target {k} on its zero set")
        covered = frozenset().union(*(zero_set(s, h) for h in gens))
        if unique != (covered == frozenset(max_coords(s))):
            errors.append(f"unique flag {unique} is wrong")
    else:
        for k, (ideal, t) in enumerate(zip(task["ideals"], targets)):
            if not contains(s, ideal, sub(s, solution, t)):
                errors.append(f"solution fails constraint {k}")
    return errors


def check_patch(s, task, incompatible, kind, solution=None, unique=None, hypothesis_holds=None) -> list:
    """Check one patch outcome: ``kind`` is None for a solution, else the
    certificate kind.  The CLI and library paths both end here."""
    want_code, want_kind = expected_crt(s, task, incompatible)
    if kind != want_kind:
        return [f"{task['mode']} gave {kind or 'a solution'}, expected {want_kind or 'a solution'}"]
    if want_kind is None:
        return solution_errors(s, task, solution, unique)
    if want_code == 2 and hypothesis_holds is not True:
        return [f"{task['mode']} says a compatible system fails the pairwise hypothesis"]
    return []


def check_crt(s, task, incompatible, code, stdout) -> list:
    import json

    want_code, _ = expected_crt(s, task, incompatible)
    if code != want_code:
        return [f"crt exit {code}, expected {want_code}"]
    payload = json.loads(stdout)
    kind = payload.get("kind")
    solution = as_tuple(payload["solution"]) if kind is None else None
    hypothesis = payload.get("keimel_hypothesis_holds")
    return check_patch(s, task, incompatible, kind, solution, payload.get("unique"), hypothesis)


_IDEALS = re.compile(r"^ideals: (\d+) \((\d+) proper, all principal\)$", re.M)
_SPEC = re.compile(r"^spec: (\d+) primes, (\d+) maximal$", re.M)
_VALUE = re.compile(r"p\d+ -> (-?\d+)/(\d+)")


def check_analyze(s, unit, elements, stdout) -> list:
    want = expected(s)
    errors = []
    m = _IDEALS.search(stdout)
    if not m or int(m.group(1)) != want["ideals"] or int(m.group(2)) != want["ideals"] - 1:
        errors.append(f"ideal count, expected {want['ideals']}")
    m = _SPEC.search(stdout)
    if not m or (int(m.group(1)), int(m.group(2))) != (want["primes"], want["maximal"]):
        errors.append(f"spectrum, expected {want['primes']} primes, {want['maximal']} maximal")
    flag = str(want["semisimple"]).lower()
    if f"\nsemisimple: {flag}\n" not in stdout:
        errors.append(f"semisimple should be {flag}")
    if f"\nstrongly semisimple: {flag}" not in stdout:
        errors.append(f"strongly semisimple should be {flag}")
    for name, value in elements.items():
        line = re.search(rf"^  {re.escape(name)}( \[mv\])?: (.*)$", stdout, re.M)
        got = sorted(Fraction(int(a), int(b)) for a, b in _VALUE.findall(line.group(2))) if line else None
        if got != values(s, unit, as_tuple(value)):
            errors.append(f"values of {name}")
    return errors


def check_spectrum_json(s, stdout) -> list:
    import json

    return check_spectrum_data(s, json.loads(stdout))


def check_spectrum_data(s, data) -> list:
    want = expected(s)
    got = (
        len(data["primes"]),
        sum(1 for p in data["primes"] if p["maximal"]),
        len(data["specialization"]),
        data["max_dense"],
    )
    if got != (want["primes"], want["maximal"], want["pairs"], want["semisimple"]):
        return [f"spectrum json (primes, maximal, pairs, dense) {got}"]
    return []


def check_spectrum_dot(s, stdout) -> list:
    want = expected(s)
    got = (
        len(re.findall(r"^  p\d+ \[label=", stdout, re.M)),
        stdout.count("shape=doublecircle"),
        len(re.findall(r"^  p\d+ -> p\d+;$", stdout, re.M)),
    )
    if got != (want["primes"], want["maximal"], want["covers"]):
        return [f"spectrum dot (nodes, maximal, edges) {got}"]
    return []
