"""Radicals, semisimplicity, and strong semisimplicity.

Semisimplicity is decided through the radical, the intersection of all
maximal ideals, which ``core._max_meet`` builds in closed form.  Strong
semisimplicity needs no further work in this class, since it coincides
with semisimplicity (see ``is_strongly_semisimple``).  The Archimedean
search for an infinitesimal pair (``archimedean_falsify``) is kept as an
independent cross-check, not a decision procedure: it lives in
``lgroup.laws`` with the other checks, so a command that decides
semisimplicity never compiles it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .core import Ideal, UnitalGroup, _group_structure, _max_meet, _store
from .core import is_zero_ideal, zero_ideal


def radical(G: UnitalGroup) -> Ideal:
    """Intersection of all maximal ideals.

    Every maximal ideal sits at one top position (see ``lgroup.yosida``),
    so this is their meet at every position: zero at each atom and
    bottom(all) at each lex node reached through products alone.  Like
    the ideals, it depends on the tree alone, which stores it on first use
    (see ``lgroup.core``).
    """
    s = _group_structure(G)
    return s._radical or _store(s, "_radical", _max_meet(s, -1))


def is_semisimple(G: UnitalGroup) -> bool:
    return is_zero_ideal(radical(G))


def is_strongly_semisimple(G: UnitalGroup) -> Tuple[bool, Optional[Ideal]]:
    """Check that every quotient by a principal ideal is semisimple.

    A group here is semisimple exactly when its tree has no lex node, a
    quotient of such a tree again has none, and every ideal is principal;
    the quotient by the zero ideal is G itself.  So this holds exactly
    when G is semisimple, and on failure the witness, the least failing
    ideal, is always the zero ideal, stored on the tree as the radical is.
    """
    if is_semisimple(G):
        return True, None
    return False, zero_ideal(G)
