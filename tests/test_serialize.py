import json
import random

import pytest

from conftest import random_group
from oracles import ideal_to_json_by_walk
from lgroup import (
    GALLERY_NAMES,
    AtomIdeal,
    LexIdeal,
    ParseError,
    PatchTask,
    ProdIdeal,
    ZeroSetTask,
    dumps_canonical,
    element_from_json,
    element_to_json,
    enumerate_ideals,
    gallery_instance,
    gallery_json,
    ideal_from_json,
    ideal_to_json,
    instance_to_json,
    lex,
    loads_instance,
    prod,
    structure_from_json,
    structure_to_json,
    zero_ideal,
    Z,
)
from lgroup.serialize import MAX_HEIGHT

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
