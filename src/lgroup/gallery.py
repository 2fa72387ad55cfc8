"""Built-in instances used by the command line and the self tests.

* ``a2``    -- Z^2: semisimple, two maximal ideals; ships a solvable
  classical task.
* ``c3``    -- Z^3 with unit (1, 2, 1); ships a zero-set task whose zero
  sets cover the maximal spectrum, so the solution is unique.
* ``lex``   -- Z x-> Z: the smallest non-semisimple member; its task is
  the classic impossible pair of constraints on the trivial ideal, which
  the strong solver must refuse.
* ``mix``   -- Z x (Z x-> Z): semisimplicity fails in one coordinate only.
* ``chang`` -- the unit interval view of ``lex``: the canonical algebra
  with nontrivial radical (its infinitesimals).
"""

from __future__ import annotations

from .core import LGroupError
from .serialize import Instance, dumps_canonical, instance_from_json

_A2 = {
    "structure": {"prod": ["Z", "Z"]},
    "unit": [1, 1],
    "ideals": {
        "m1": {"prod": ["zero", "all"]},
        "m2": {"prod": ["all", "zero"]},
    },
    "elements": {"g1": [5, 7], "g2": [3, 4]},
    "task": {
        "mode": "keimel",
        "ideals": [{"prod": ["zero", "all"]}, {"prod": ["all", "zero"]}],
        "targets": [[5, 7], [3, 4]],
    },
}

_C3 = {
    "structure": {"prod": ["Z", "Z", "Z"]},
    "unit": [1, 2, 1],
    "elements": {
        "h1": [0, 0, 1],
        "h2": [1, 0, 0],
        "g1": [2, 4, 6],
        "g2": [0, 4, 1],
    },
    "task": {
        "mode": "zeroset",
        "generators": [[0, 0, 1], [1, 0, 0]],
        "targets": [[2, 4, 6], [0, 4, 1]],
    },
}

_LEX = {
    "structure": {"lex": "Z"},
    "unit": [1, 0],
    "ideals": {"max": {"bottom": "all"}, "trivial": "zero"},
    "elements": {"eps": [0, 1], "g1": [0, 0], "g2": [0, 1]},
    "task": {
        "mode": "strong",
        "ideals": ["zero", "zero"],
        "targets": [[0, 0], [0, 1]],
    },
}

_MIX = {
    "structure": {"prod": ["Z", {"lex": "Z"}]},
    "unit": [1, [1, 0]],
    "elements": {"a": [3, [7, -2]], "b": [5, [4, 9]]},
    "task": {
        "mode": "keimel",
        "ideals": [
            {"prod": ["zero", "all"]},
            {"prod": ["all", {"bottom": "all"}]},
        ],
        "targets": [[3, [7, -2]], [5, [4, 9]]],
    },
}

_CHANG = {
    "structure": {"lex": "Z"},
    "unit": [1, 0],
    "elements": {
        "eps": {"mv": True, "value": [0, 1]},
        "coeps": {"mv": True, "value": [1, -1]},
        "top": {"mv": True, "value": [1, 0]},
    },
}

_GALLERY = {"a2": _A2, "c3": _C3, "lex": _LEX, "mix": _MIX, "chang": _CHANG}

GALLERY_NAMES = tuple(sorted(_GALLERY))


def _entry(name: str) -> dict:
    """The document of a built-in instance; an unknown name is refused with
    an LGroupError that lists the known ones."""
    try:
        return _GALLERY[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be a key
        known = ", ".join(GALLERY_NAMES)
        raise LGroupError(f"unknown gallery instance {name!r}; known: {known}") from None


def gallery_json(name: str) -> str:
    """Canonical instance-file text for a built-in instance."""
    return dumps_canonical(_entry(name))


def gallery_instance(name: str) -> Instance:
    return instance_from_json(_entry(name))
