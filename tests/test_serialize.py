import builtins
import collections
import json
import pathlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ORACLE_GROUPS, random_element, random_group, seeded_tree_group, some_ideals
from oracles import certificate_to_json_by_kind, element_to_json_by_walk, ideal_to_json_by_walk
from lgroup import (
    GALLERY_NAMES,
    AtomIdeal,
    Instance,
    LexIdeal,
    LGroupError,
    ParseError,
    PatchResult,
    PatchTask,
    ProdIdeal,
    ShapeMismatch,
    ZeroSetTask,
    certificate_to_json,
    dumps_canonical,
    element_from_json,
    element_to_json,
    enumerate_ideals,
    gallery_instance,
    gallery_json,
    ideal_from_json,
    ideal_to_json,
    instance_to_json,
    keimel_patch,
    lex,
    loads_instance,
    prod,
    strong_patch,
    structure_from_json,
    structure_to_json,
    UnitalGroup,
    Violation,
    compute_spectrum,
    spectrum_json,
    zero_ideal,
    zero_set_patch,
    Z,
)
from lgroup.serialize import MAX_HEIGHT, MAX_INT_BITS

DATA = pathlib.Path(__file__).parent / "data"

MIX_STRUCTURE = prod(Z, lex(Z))


def test_structure_round_trip():
    for s in (Z, prod(Z, Z, Z), lex(lex(Z)), MIX_STRUCTURE):
        assert structure_from_json(structure_to_json(s)) == s


def test_structure_errors():
    with pytest.raises(ParseError):
        structure_from_json({"prod": ["Z"]})
    with pytest.raises(ParseError):
        structure_from_json({"weird": 1})
    with pytest.raises(ParseError):
        structure_from_json(3)


def test_ideal_to_json_matches_the_two_pass_form():
    rng = random.Random(3571)
    for _ in range(120):
        for I in enumerate_ideals(random_group(rng)).ideals:
            assert ideal_to_json(I) == ideal_to_json_by_walk(I)


def test_structure_height_limit():
    tower = "Z"
    for _ in range(MAX_HEIGHT):
        tower = {"lex": tower}
    assert structure_from_json(tower) is not None
    with pytest.raises(ParseError) as info:
        structure_from_json({"prod": ["Z", tower]})
    assert info.value.path == "structure.prod[1]" + ".lex" * (MAX_HEIGHT - 1)
    with pytest.raises(TypeError):  # the height count is not a parameter
        structure_from_json(tower, "structure", MAX_HEIGHT + 1)


def test_element_round_trip():
    e = (4, (-2, 7))
    assert element_from_json(MIX_STRUCTURE, element_to_json(MIX_STRUCTURE, e)) == e


def test_element_to_json_matches_the_structure_walk():
    rng = random.Random(2501)
    for G in ORACLE_GROUPS:
        for _ in range(10):
            e = random_element(rng, G.structure, 3)
            assert element_to_json(G.structure, e) == element_to_json_by_walk(G.structure, e)


# (structure, malformed element, path, message): the walk of the structure
# truncated, passed a bool through, or raised TypeError
MALFORMED_ELEMENTS = [
    (prod(Z, Z), (1, 2, 3), (), "root: expected a 2-tuple, got (1, 2, 3)"),
    (MIX_STRUCTURE, (0, (True, 0)), (1, "top"), "root[1].top: expected an integer, got True"),
    (MIX_STRUCTURE, 5, (), "root: expected a 2-tuple, got 5"),
    (lex(Z), [1, 2], (), "root: expected a (top, bottom) pair, got [1, 2]"),
]


@pytest.mark.parametrize(
    "structure, e, path, message",
    MALFORMED_ELEMENTS,
    ids=["long tuple", "bool top", "int for a pair", "list for a pair"],
)
def test_element_to_json_refuses_a_malformed_element(structure, e, path, message):
    with pytest.raises(ShapeMismatch) as info:
        element_to_json(structure, e)
    assert (info.value.path, str(info.value)) == (path, message)


def test_element_rejects_booleans_and_bad_arity():
    with pytest.raises(ParseError):
        element_from_json(Z, True)
    with pytest.raises(ParseError):
        element_from_json(prod(Z, Z), [1])
    with pytest.raises(ParseError):
        element_from_json(lex(Z), [1, 2, 3])


def test_ideal_shorthands_parse_anywhere():
    parsed = ideal_from_json(MIX_STRUCTURE, {"prod": ["zero", "all"]})
    assert parsed == ProdIdeal((AtomIdeal(False), LexIdeal(None)))
    assert ideal_from_json(MIX_STRUCTURE, "zero") == zero_ideal(MIX_STRUCTURE)
    with pytest.raises(ParseError):
        ideal_from_json(Z, {"bottom": "all"})
    with pytest.raises(ParseError):
        ideal_from_json(lex(Z), {"prod": ["zero", "zero"]})


def test_ideal_serialization_compacts_canonically():
    assert ideal_to_json(zero_ideal(MIX_STRUCTURE)) == "zero"
    assert ideal_to_json(ProdIdeal((AtomIdeal(False), LexIdeal(None)))) == {
        "prod": ["zero", "all"]
    }
    assert ideal_to_json(LexIdeal(AtomIdeal(True))) == {"bottom": "all"}


def test_gallery_round_trips_byte_stably():
    for name in GALLERY_NAMES:
        text = gallery_json(name)
        parsed = loads_instance(text)
        assert dumps_canonical(instance_to_json(parsed)) == text


def test_data_files_round_trip_byte_stably():
    paths = [p for p in sorted(DATA.glob("*.json")) if p.stem != "crt_invalid"]
    assert len(paths) == 4
    for path in paths:
        text = path.read_text()
        assert dumps_canonical(instance_to_json(loads_instance(text))) == text, path.name
    with pytest.raises(ParseError):
        loads_instance((DATA / "crt_invalid.json").read_text())


@pytest.mark.parametrize("where", ["ideals", "task"])
def test_instance_to_json_refuses_an_ideal_that_does_not_fit(where):
    # a three-part ideal on a two-part product rendered as text that does
    # not load back; it is refused before anything is rendered
    G = UnitalGroup(MIX_STRUCTURE, (1, (1, 0)))
    bad = ProdIdeal((AtomIdeal(False), AtomIdeal(True), AtomIdeal(False)))
    if where == "ideals":
        instance = Instance(G, ideals={"x": bad})
    else:
        instance = Instance(G, task=PatchTask("keimel", (zero_ideal(G), bad), ((0, (0, 0)),) * 2))
    with pytest.raises(ShapeMismatch) as info:
        instance_to_json(instance)
    assert info.value.path == ()
    assert str(info.value) == "root: expected a 2-part product ideal, got (zero,all,zero)"


def _stdlib_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text()
    | st.sampled_from(["", "\u00e9\n\"\\", "\x00\x1f\u2028", "\U0001f600", "p10"])
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.dictionaries(st.integers() | st.booleans(), inner, max_size=3),
    max_leaves=25,
)


@given(_DOCUMENTS)
@settings(max_examples=150, deadline=None)
def test_dumps_canonical_writes_the_stdlib_bytes(obj):
    assert dumps_canonical(obj) == _stdlib_canonical(obj)


def test_dumps_canonical_matches_the_stdlib_on_every_output():
    documents = [json.loads(path.read_text()) for path in sorted(DATA.rglob("*.json"))]
    for name in GALLERY_NAMES:
        instance = gallery_instance(name)
        documents += [instance_to_json(instance), spectrum_json(compute_spectrum(instance.group))]
    for doc in documents:
        assert dumps_canonical(doc) == _stdlib_canonical(doc)


def test_dumps_canonical_exports_any_depth():
    doc = []
    for _ in range(5000):
        doc = [doc]
    with pytest.raises(RecursionError):
        _stdlib_canonical(doc)
    opening = [" " * (2 * i) + "[" for i in range(5000)]
    closing = [" " * (2 * i) + "]" for i in reversed(range(5000))]
    assert dumps_canonical(doc) == "\n".join([*opening, " " * 10000 + "[]", *closing]) + "\n"
    # the deepest maximal ideal of a 600-level product nest: five lines a level
    ideal = AtomIdeal(False)
    for _ in range(600):
        ideal = ProdIdeal((AtomIdeal(True), ideal))
    text = dumps_canonical(ideal_to_json(ideal))
    assert text.count("\n") == 5 * 600 + 1
    assert text.startswith('{\n  "prod": [\n    "all",\n    {\n') and text.endswith("]\n}\n")


def test_the_spectrum_of_a_350_level_tower_exports_in_under_1_5_s():
    # 351 primes, each ideal nested to its depth: 33.6 MB of text, written
    # in 0.4-0.9 s on a shared 2-vCPU machine, where the stdlib's encoder
    # takes 2.4-3.4 s
    s, u = Z, 1
    for _ in range(350):
        s, u = lex(s), (1, u)
    doc = spectrum_json(compute_spectrum(UnitalGroup(s, u)))
    start = time.perf_counter()
    text = dumps_canonical(doc)
    assert time.perf_counter() - start < 1.5
    assert len(text) == 33_615_525  # as the stdlib writes it


@given(_DOCUMENTS)
@settings(max_examples=100, deadline=None)
def test_dumps_canonical_writes_the_same_text_in_pieces(obj):
    pieces = []
    assert dumps_canonical(obj, pieces.append) is None
    assert "".join(pieces) == _stdlib_canonical(obj)


def test_the_pieces_join_to_the_text_on_the_goldens_and_a_350_level_tower():
    documents = [json.loads(path.read_text()) for path in sorted(DATA.rglob("*.json"))]
    s, u = Z, 1
    for _ in range(350):
        s, u = lex(s), (1, u)
    documents.append(spectrum_json(UnitalGroup(s, u)))
    for doc in documents:
        pieces = []
        assert dumps_canonical(doc, pieces.append) is None
        assert "".join(pieces) == dumps_canonical(doc)
        # each piece but the last is handed over once 64 KB are pending
        assert all(len(piece) >= 1 << 16 for piece in pieces[:-1])
    assert len(pieces) > 100  # the tower's 33.6 MB


def test_a_key_that_is_not_a_string_is_written_as_the_stdlib_writes_it_until_a_piece_is_out():
    small = {"b": {1: 2, 3: [True]}}
    pieces = []
    dumps_canonical(small, pieces.append)
    assert pieces == [_stdlib_canonical(small)]
    # past the first piece, the key raises, and what was written is a
    # prefix of the stdlib's text, never followed by a second document
    large = {"a": [[i] for i in range(20_000)], "b": {1: 2}}
    pieces.clear()
    with pytest.raises(TypeError):
        dumps_canonical(large, pieces.append)
    assert pieces and _stdlib_canonical(large).startswith("".join(pieces))


def _certificates(rng, G):
    """The certificates of the three solvers on four systems of two to four
    constraints around a common base, each target moved by a random
    element, and on zero sets of random generators: most are refused."""
    s = G.structure
    ideals = some_ideals(rng, G)
    for _ in range(4):
        base = random_element(rng, s, 1)
        n = rng.randint(2, 4)
        system = [(rng.choice(ideals), G.add(base, random_element(rng, s, 1))) for _ in range(n)]
        yield keimel_patch(G, system).certificate
        yield strong_patch(G, system).certificate
        generators = [random_element(rng, s, 1) for _ in system]
        yield zero_set_patch(G, generators, [t for _, t in system]).certificate


def test_certificates_render_as_the_per_kind_renderer():
    rng = random.Random(2502)
    kinds = collections.Counter()
    for G in ORACLE_GROUPS + [seeded_tree_group(seed) for seed in range(2500, 2520)]:
        for cert in _certificates(rng, G):
            if cert is not None:
                rendered = certificate_to_json(G.structure, cert)
                assert rendered == certificate_to_json_by_kind(G.structure, cert), cert
                kinds[rendered["kind"]] += 1
    assert sum(kinds.values()) >= 500
    assert len(kinds) == 4 and min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize(
    "value", [None, "incompatible", (0, 1), PatchResult(), Violation("incompatible", (), "")]
)
def test_a_non_certificate_is_refused(value):
    with pytest.raises(LGroupError) as info:
        certificate_to_json(Z, value)
    assert type(info.value) is LGroupError
    assert str(info.value) == f"unknown certificate {value!r}"


def test_a_certificate_renders_with_no_import(monkeypatch):
    # a certificate's class names its kind, so no call looks up crt's
    # classes by an import, the first call included
    G = UnitalGroup(prod(Z, Z), (1, 1))
    cert = keimel_patch(G, [(zero_ideal(G), (1, 0)), (zero_ideal(G), (0, 1))]).certificate
    imported, real = [], builtins.__import__

    def counted(name, *args, **kwargs):
        imported.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counted)
    first = certificate_to_json(G.structure, cert)
    again = certificate_to_json(G.structure, cert)
    monkeypatch.undo()
    assert imported == [] and again == first and first["kind"] == "incompatible"


def test_an_integer_up_to_the_bound_round_trips_and_a_longer_one_is_refused():
    big = 2**MAX_INT_BITS - 1  # MAX_INT_BITS bits, 3,884 digits
    for value in (big, -big):
        doc = {
            "structure": {"prod": ["Z", {"lex": "Z"}]},
            "unit": [1, [1, 0]],
            "elements": {"g": [value, [-value, value]]},
        }
        text = dumps_canonical(doc)
        instance = loads_instance(text)
        assert instance.elements["g"].value == (value, (-value, value))
        assert dumps_canonical(instance_to_json(instance)) == text
    s = prod(Z, lex(Z))
    for obj, path in (
        ([big + 1, [0, 0]], "element[0]"),
        ([0, [-big - 1, 0]], "element[1][0]"),
        ([0, [0, 2**MAX_INT_BITS]], "element[1][1]"),
    ):
        with pytest.raises(ParseError) as info:
            element_from_json(s, obj)
        assert info.value.path == path
        assert str(info.value) == f"{path}: integer longer than {MAX_INT_BITS} bits"


def test_unknown_keys_rejected():
    base = json.loads(gallery_json("a2"))
    base["bogus"] = 1
    with pytest.raises(ParseError):
        loads_instance(json.dumps(base))
    base = json.loads(gallery_json("a2"))
    base["task"]["extra"] = 1
    with pytest.raises(ParseError):
        loads_instance(json.dumps(base))


def test_invalid_unit_rejected_at_parse():
    with pytest.raises(ParseError):
        loads_instance(json.dumps({"structure": {"lex": "Z"}, "unit": [0, 5]}))


def test_task_validation():
    base = {"structure": "Z", "unit": 1, "task": {"mode": "zeroset", "generators": [1], "targets": []}}
    with pytest.raises(ParseError):
        loads_instance(json.dumps(base))
    base["task"] = {"mode": "sideways"}
    with pytest.raises(ParseError):
        loads_instance(json.dumps(base))


E = [0, [0, 0]]
MODE_MSG = "expected keimel, strong, or zeroset, got "
# (id, task block on prod(Z, lex(Z)), the parsed task or (path, message))
TASK_BLOCKS = [
    ("not an object", 5, ("task", "task must be an object")),
    ("unknown mode", {"mode": "sideways"}, ("task.mode", MODE_MSG + "'sideways'")),
    ("list mode", {"mode": ["keimel"], "ideals": [], "targets": []},
     ("task.mode", MODE_MSG + "['keimel']")),
    ("object mode", {"mode": {"a": 1}}, ("task.mode", MODE_MSG + "{'a': 1}")),
    ("missing mode", {"ideals": [], "targets": []}, ("task.mode", MODE_MSG + "None")),
    ("keimel stray key", {"mode": "keimel", "ideals": [], "targets": [], "extra": 1},
     ("task", "unknown keys ['extra']")),
    ("strong stray key", {"mode": "strong", "ideals": [], "targets": [], "generators": []},
     ("task", "unknown keys ['generators']")),
    ("zeroset stray key", {"mode": "zeroset", "generators": [], "targets": [], "ideals": []},
     ("task", "unknown keys ['ideals']")),
    ("keimel ideals not an array", {"mode": "keimel", "ideals": "zero", "targets": []},
     ("task", "ideals and targets must be arrays")),
    ("strong targets missing", {"mode": "strong", "ideals": []},
     ("task", "ideals and targets must be arrays")),
    ("zeroset generators not an array", {"mode": "zeroset", "generators": {"a": 1}, "targets": []},
     ("task", "generators and targets must be arrays")),
    ("keimel unequal lengths", {"mode": "keimel", "ideals": ["zero"], "targets": []},
     ("task", "ideals and targets must have equal length")),
    ("zeroset unequal lengths", {"mode": "zeroset", "generators": [], "targets": [E]},
     ("task", "generators and targets must have equal length")),
    ("bad nested ideal",
     {"mode": "strong", "ideals": ["zero", {"prod": ["all", {"bottom": "bogus"}]}], "targets": [E, E]},
     ("task.ideals[1].prod[1].bottom", "expected \"zero\", \"all\", prod, or bottom, got 'bogus'")),
    ("bad nested generator", {"mode": "zeroset", "generators": [E, [0, [0, True]]], "targets": [E, E]},
     ("task.generators[1][1][1]", "expected an integer, got True")),
    ("bad nested target", {"mode": "keimel", "ideals": ["zero"], "targets": [[0, [1.5, 0]]]},
     ("task.targets[0][1][0]", "expected an integer, got 1.5")),
    ("valid strong",
     {"mode": "strong", "ideals": ["zero", {"prod": ["all", "zero"]}], "targets": [[1, [0, 2]], [0, [1, -1]]]},
     PatchTask(
         "strong",
         (zero_ideal(MIX_STRUCTURE), ProdIdeal((AtomIdeal(True), LexIdeal(AtomIdeal(False))))),
         ((1, (0, 2)), (0, (1, -1))),
     )),
    ("valid zeroset", {"mode": "zeroset", "generators": [[1, [0, 0]]], "targets": [[2, [1, 3]]]},
     ZeroSetTask(((1, (0, 0)),), ((2, (1, 3)),))),
]


@pytest.mark.parametrize(
    "block, expected", [row[1:] for row in TASK_BLOCKS], ids=[row[0] for row in TASK_BLOCKS]
)
def test_task_blocks_parse_or_raise_with_a_path(block, expected):
    text = json.dumps({"structure": {"prod": ["Z", {"lex": "Z"}]}, "unit": [1, [1, 0]], "task": block})
    if not isinstance(expected, tuple):
        assert loads_instance(text).task == expected
        return
    with pytest.raises(ParseError) as info:
        loads_instance(text)
    path, message = expected
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


def test_mv_tagged_elements():
    inst = gallery_instance("chang")
    assert inst.elements["eps"].mv is True
    assert inst.elements["eps"].value == (0, 1)
    bad = {
        "structure": {"lex": "Z"},
        "unit": [1, 0],
        "elements": {"x": {"mv": False, "value": [0, 1]}},
    }
    with pytest.raises(ParseError):
        loads_instance(json.dumps(bad))


def test_gallery_tasks_parse_to_expected_modes():
    assert isinstance(gallery_instance("a2").task, PatchTask)
    assert gallery_instance("a2").task.mode == "keimel"
    assert gallery_instance("lex").task.mode == "strong"
    assert isinstance(gallery_instance("c3").task, ZeroSetTask)
    assert gallery_instance("chang").task is None
