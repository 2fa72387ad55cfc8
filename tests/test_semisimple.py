import random

from conftest import A2, C3, GALLERY_GROUPS, LEX, MIX, random_element, random_group
from lgroup import (
    Atom,
    AtomIdeal,
    LexIdeal,
    Prod,
    ProdIdeal,
    UnitalGroup,
    Z,
    add,
    archimedean_falsify,
    closure,
    compute_spectrum,
    dominated,
    enumerate_ideals,
    ideal_leq,
    ideal_meet,
    is_semisimple,
    is_strongly_semisimple,
    is_zero_ideal,
    leq,
    lex,
    prod,
    quotient,
    radical,
    scale,
    zero_ideal,
)

LEX_MAX = LexIdeal(AtomIdeal(True))


def test_radical_examples():
    assert radical(A2) == zero_ideal(A2.structure)
    assert radical(LEX) == LEX_MAX
    assert radical(MIX) == ProdIdeal((AtomIdeal(False), LEX_MAX))


def _nest(level, height):
    # a lex tower, or a product nest with a Z beside each level, over Z
    structure, unit = Z, 1
    for _ in range(height):
        if level == "lex":
            structure, unit = lex(structure), (1, unit)
        else:
            structure, unit = prod(Z, structure), (1, unit)
    return UnitalGroup(structure, unit)


def test_radical_by_direct_meet():
    # oracle: recompute the meet of the maximal primes by hand
    rng = random.Random(3571)
    groups = list(GALLERY_GROUPS.values()) + [random_group(rng) for _ in range(120)]
    groups += [_nest("lex", 30), _nest("prod", 30)]
    for G in groups:
        maxes = compute_spectrum(G).max_ideals()
        out = maxes[0]
        for m in maxes[1:]:
            out = ideal_meet(out, m)
        assert radical(G) == out


def test_semisimple_examples():
    assert is_semisimple(C3)
    assert not is_semisimple(LEX)
    assert not is_semisimple(MIX)


def test_strongly_semisimple_examples():
    assert is_strongly_semisimple(C3) == (True, None)
    assert is_strongly_semisimple(LEX) == (False, zero_ideal(LEX.structure))
    assert is_strongly_semisimple(MIX) == (False, zero_ideal(MIX.structure))


def test_strongly_semisimple_witness_quotient_fails():
    ok, witness = is_strongly_semisimple(MIX)
    assert not ok
    q = quotient(MIX, witness)
    assert not is_semisimple(q.group)


def test_archimedean_falsify_examples():
    assert archimedean_falsify(LEX) == ((0, 1), (1, 0))
    assert archimedean_falsify(C3) is None
    assert archimedean_falsify(MIX) == ((0, (0, 1)), (0, (1, 0)))


def test_archimedean_witness_is_genuine():
    for G in (LEX, MIX):
        g, h = archimedean_falsify(G)
        assert G.lt(G.zero(), g)
        # bounded independent check of unbounded domination
        for n in range(1, 40):
            assert leq(G.structure, scale(G.structure, n, g), h)
        assert dominated(G.structure, g, h)


def test_dominated_decision():
    assert dominated(LEX.structure, (0, 1), (1, 0))
    assert not dominated(LEX.structure, (1, 0), (2, 0))
    assert dominated(LEX.structure, (0, 0), (0, 0))
    assert not dominated(LEX.structure, (0, 1), (0, 5))
    # negative dominant component: the first multiple decides
    assert dominated(LEX.structure, (-1, 0), (-1, 0))
    assert not dominated(LEX.structure, (-1, 1), (-1, 0))
    assert dominated(LEX.structure, (-2, 7), (-1, -7))
    assert not dominated(LEX.structure, (-1, 0), (-2, 0))


def _tied_negative_top(structure, g, h):
    """Whether g and h share a negative top coordinate at some lex node."""
    if isinstance(structure, Atom):
        return False
    if isinstance(structure, Prod):
        return any(map(_tied_negative_top, structure.children, g, h))
    return g[0] == h[0] < 0 or _tied_negative_top(structure.bottom, g[1], h[1])


def test_dominated_matches_every_multiple_up_to_the_coordinate_bound():
    # h's coordinates lie in [-4, 4], and a pair that is not dominated
    # already fails at a multiple n <= |c| + 1 for a coordinate c of h, so
    # the multiples 1..5 decide domination exactly
    rng = random.Random(779)
    answers, ties = set(), 0
    for _ in range(150):
        G = random_group(rng)
        s = G.structure
        for _ in range(20):
            g = random_element(rng, s, 3)
            if rng.random() < 0.5:
                h = random_element(rng, s, 4)
            else:
                # h near g: dominant components often tie, and about
                # half of the ties are negative
                h = add(s, g, random_element(rng, s, 1))
            expected = all(leq(s, scale(s, n, g), h) for n in range(1, 6))
            assert dominated(s, g, h) == expected, (s, g, h)
            answers.add(expected)
            ties += _tied_negative_top(s, g, h)
    assert answers == {True, False}
    assert ties > 100


def test_semisimple_iff_max_dense_on_random_instances():
    rng = random.Random(777)
    for _ in range(60):
        G = random_group(rng)
        space = compute_spectrum(G)
        dense = closure(space, space.max_ideals()) == frozenset(space.primes)
        assert is_semisimple(G) == dense


def test_strong_semisimplicity_definition_sweep():
    # direct transcription of the definition as an oracle; the witness is
    # the lattice-least failing ideal, ties broken by enumeration order
    rng = random.Random(6007)
    groups = list(GALLERY_GROUPS.values()) + [random_group(rng) for _ in range(120)]
    for G in groups:
        failures = []
        for P in enumerate_ideals(G).ideals:
            q = quotient(G, P)
            if not q.trivial and not is_zero_ideal(radical(q.group)):
                failures.append(P)
        least = [
            f for f in failures if not any(g != f and ideal_leq(g, f) for g in failures)
        ]
        expected = (True, None) if not failures else (False, least[0])
        assert is_strongly_semisimple(G) == expected


def test_strong_semisimplicity_via_maximal_intersections():
    # equivalent form: every principal ideal is the meet of the maximal
    # ideals containing it
    from lgroup import all_ideal, ideal_leq, ideal_meet

    rng = random.Random(424)
    groups = list(GALLERY_GROUPS.values()) + [random_group(rng) for _ in range(25)]
    for G in groups:
        maxes = compute_spectrum(G).max_ideals()
        every = True
        for P in enumerate_ideals(G).ideals:
            hull = all_ideal(G.structure)
            for m in maxes:
                if ideal_leq(P, m):
                    hull = ideal_meet(hull, m)
            if hull != P:
                every = False
                break
        assert is_strongly_semisimple(G)[0] == every
