import ast
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import lgroup
import lgroup.ideals
import lgroup.spectrum
from lgroup import GALLERY_NAMES, compute_spectrum, gallery_json, neg, scale, yosida_table, zero
from conftest import ORACLE_GROUPS, invoke, random_group, run_with_peak, tower_instance
from lgroup.laws import random_element
from lgroup.serialize import MAX_HEIGHT, MAX_INT_BITS, ElementEntry, Instance
from lgroup.serialize import dumps_canonical, instance_to_json

DATA = pathlib.Path(__file__).parent / "data"


def test_gallery_prints_canonical_instances():
    for name in GALLERY_NAMES:
        result = invoke(["gallery", "--name", name])
        assert result.exit_code == 0
        assert result.output == gallery_json(name)


def test_analyze_a2(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    result = invoke(["analyze", str(path)])
    assert result.exit_code == 0
    assert "ideals: 4 (3 proper, all principal)" in result.output
    assert "spec: 2 primes, 2 maximal" in result.output
    assert "semisimple: true" in result.output
    assert "strongly semisimple: true" in result.output


def test_analyze_lex_reports_witness(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(gallery_json("lex"))
    result = invoke(["analyze", str(path)])
    assert result.exit_code == 0
    assert "radical: bottom(all)" in result.output
    assert "semisimple: false" in result.output
    assert "strongly semisimple: false (witness: bottom(zero))" in result.output


def test_analyze_prints_the_values_of_yosida_table(tmp_path):
    # analyze reduces g's top integer over the unit's itself, with no
    # Fraction: each value line must read as yosida_table's Fractions, on
    # zero and negative integers and on unit integers above 1
    rng = random.Random(7121)
    path = tmp_path / "values.json"
    for G in ORACLE_GROUPS + [random_group(rng) for _ in range(30)]:
        s, u = G.structure, G.unit
        values = [zero(s), u, neg(s, u), scale(s, 6, u)] + [random_element(rng, s, 5) for _ in range(4)]
        elements = {f"e{i}": ElementEntry(v) for i, v in enumerate(values)}
        path.write_text(dumps_canonical(instance_to_json(Instance(G, elements=elements))))
        result = invoke(["analyze", str(path)])
        assert result.exit_code == 0, result.output
        printed = result.output.split("values on the maximal spectrum:\n")[1].splitlines()
        space = compute_spectrum(G)
        expected = [
            f"  {name}: " + ", ".join(
                f"p{space.primes.index(m)} -> {v.numerator}/{v.denominator}"
                for m, v in yosida_table(G, entry.value, space).items()
            )
            for name, entry in sorted(elements.items())
        ]
        assert printed == expected, G


# the gallery, and a forest whose longest chain has 14 primes
@pytest.mark.parametrize("name", GALLERY_NAMES + ("forest",))
def test_outputs_match_golden_bytes(tmp_path, name):
    # stdout of analyze and of both spectrum exports, byte for byte
    path = tmp_path / f"{name}.json"
    if name in GALLERY_NAMES:
        path.write_text(gallery_json(name))
    else:
        path.write_text((DATA / f"{name}.json").read_text())
    commands = {
        "analyze.txt": ["analyze", str(path)],
        "spectrum.json": ["spectrum", str(path), "--format", "json"],
        "spectrum.dot": ["spectrum", str(path), "--format", "dot"],
    }
    for suffix, args in commands.items():
        result = invoke(args)
        assert result.exit_code == 0, result.output
        golden = (DATA / "cli_golden" / f"{name}.{suffix}").read_bytes()
        assert result.stdout_bytes == golden, f"{name}.{suffix}"


def test_entry_points_never_enumerate_the_lattice(tmp_path, monkeypatch):
    # Z^24 has 2^24 ideals; every answer here must come from the tree
    def refuse(structure):
        raise AssertionError("the ideal lattice was enumerated")

    monkeypatch.setattr(lgroup.ideals, "_enumerate", refuse)
    n = 24
    ideals = [{"prod": ["all"] * i + ["zero"] + ["all"] * (n - 1 - i)} for i in range(2)]
    targets = [[5] * n, [3] * n]
    doc = {
        "structure": {"prod": ["Z"] * n},
        "unit": [1] * n,
        "task": {"mode": "strong", "ideals": ideals, "targets": targets},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    result = invoke(["analyze", str(path)])
    assert result.exit_code == 0, result.output
    assert "ideals: 16777216 (16777215 proper, all principal)" in result.output
    assert "spec: 24 primes, 24 maximal" in result.output
    assert "strongly semisimple: true" in result.output
    result = invoke(["spectrum", str(path)])
    assert result.exit_code == 0, result.output
    result = invoke(["crt", str(path)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"solution": [5] + [3] * (n - 1)}


def test_spectrum_exports_never_compare_ideals(tmp_path, monkeypatch):
    # the exports read the order off the cover chains of the tree
    def refuse(*args):
        raise AssertionError("the spectrum export compared ideals")

    monkeypatch.setattr(lgroup.spectrum, "ideal_leq", refuse)
    monkeypatch.setattr(lgroup.spectrum, "closure", refuse)
    path = tmp_path / "tower.json"
    path.write_text(tower_instance(70))
    for fmt in ("json", "dot"):
        result = invoke(["spectrum", str(path), "--format", fmt])
        assert result.exit_code == 0, result.output
    assert "p69 -> p70;" in result.output


def _c3_task_docs() -> dict:
    """The c3 gallery instance with three more tasks: a solvable strong
    one, a strong one breaking the maximal hypothesis, and zero sets that
    overlap where the targets differ."""
    c3 = json.loads(gallery_json("c3"))
    m1, m2 = ({"prod": ["all"] * i + ["zero"] + ["all"] * (2 - i)} for i in range(2))
    docs = {}
    for name, ideals, targets in (
        ("c3_strong", [m1, m2], [[1, 2, 3], [9, 9, 1]]),
        ("c3_violated", [m1, m1], [[5, 0, 0], [7, 0, 0]]),
    ):
        task = {"mode": "strong", "ideals": ideals, "targets": targets}
        docs[name] = {**c3, "task": task}
    task = {**c3["task"], "generators": [[0, 0, 1], [0, 0, 1]]}
    docs["c3_overlap"] = {**c3, "task": task}
    return docs


def test_entry_points_build_no_quotient(tmp_path, monkeypatch):
    # values, zero sets and the strong hypothesis are read off top
    # positions: analyze with listed elements and crt in every mode keep
    # their stdout and exit codes when building a quotient fails
    docs = {name: json.loads(gallery_json(name)) for name in GALLERY_NAMES}
    docs["forest"] = json.loads((DATA / "forest.json").read_text())
    docs.update({p.stem: json.loads(p.read_text()) for p in DATA.glob("crt_*.json")})
    docs.update(_c3_task_docs())
    calls = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        calls += [["crt", str(path)]] if "task" in doc else []
        calls += [["analyze", str(path)]] if "elements" in doc else []
    expected = [invoke(args) for args in calls]
    assert {r.exit_code for r in expected} == {0, 1, 2, 3}
    assert sum("values on the maximal spectrum" in r.output for r in expected) >= 6

    def refuse(*args):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(lgroup.ideals, "_quotient", refuse)
    for args, before in zip(calls, expected):
        result = invoke(args)
        assert (result.exit_code, result.stdout_bytes) == (
            before.exit_code,
            before.stdout_bytes,
        ), (args, result.output)
        golden = DATA / "cli_golden" / f"{pathlib.Path(args[1]).stem}.analyze.txt"
        if args[0] == "analyze" and golden.exists():
            assert result.stdout_bytes == golden.read_bytes()


# crt's stdout and exit code for each kind of certificate
CERTIFICATE_GOLDENS = {
    "crt_incompatible": 1,
    "c3_violated": 1,
    "crt_not_strongly_semisimple": 2,
    "c3_overlap": 1,
}


@pytest.mark.parametrize("name, code", CERTIFICATE_GOLDENS.items())
def test_certificates_match_golden_bytes(tmp_path, name, code):
    path = DATA / f"{name}.json"
    if not path.exists():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_c3_task_docs()[name]))
    result = invoke(["crt", str(path)])
    assert result.exit_code == code
    assert result.stdout_bytes == (DATA / "cli_golden" / f"{name}.crt.json").read_bytes()


def _run_alone(*args) -> subprocess.CompletedProcess:
    # one CLI call in a process of its own, as the installed command runs
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "lgroup", *args], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("level", ["lex", "prod"])
def test_trees_answer_up_to_the_height_limit(tmp_path, level):
    # at the limit analyze and the dot export answer; one level more is
    # refused at parse time with the path of the offending level (exit 3)
    assert MAX_HEIGHT == 400
    path = tmp_path / "tall.json"
    path.write_text(tower_instance(MAX_HEIGHT, level, list_unit=True))
    result = _run_alone("analyze", str(path))
    assert result.returncode == 0, result.stderr[-2000:]
    # the unit's value is 1 at every maximal prime
    values = result.stdout.split("  u: ")[1]
    assert values.count(" -> 1/1") == (1 if level == "lex" else MAX_HEIGHT + 1)
    result = _run_alone("spectrum", str(path), "--format", "dot")
    assert result.returncode == 0, result.stderr[-2000:]
    # a lex tower is one chain of 401 primes; a product nest is 401 maximal
    # primes, one per Z, and no edge
    assert result.stdout.count(" -> ") == (MAX_HEIGHT if level == "lex" else 0)
    step = ".lex" if level == "lex" else ".prod[1]"
    path.write_text(tower_instance(MAX_HEIGHT + 1, level))
    for args in (["analyze", str(path)], ["spectrum", str(path), "--format", "dot"]):
        result = invoke(args)
        assert result.exit_code == 3, result.output
        assert f"structure{step * MAX_HEIGHT}: structure taller than" in result.output


@pytest.mark.parametrize("level, height", [("lex", 350), ("prod", 300)])
def test_one_process_answers_two_commands_on_a_tall_tree(tmp_path, level, height):
    # the second command parses an equal tree again; the spectrum cache
    # finds it without comparing the trees level by level
    path = tmp_path / "tall.json"
    path.write_text(tower_instance(height, level))
    for args in (["analyze", str(path)], ["spectrum", "--format", "dot", str(path)]):
        result = invoke(args)
        assert result.exit_code == 0, result.output[-2000:]
    assert result.stdout_bytes.count(b" -> ") == (height if level == "lex" else 0)


def test_nesting_beyond_the_decoder_is_a_parse_error(tmp_path):
    path = tmp_path / "abyss.json"
    path.write_text(tower_instance(5000))
    result = invoke(["analyze", str(path)])
    assert result.exit_code == 3, result.output
    assert "nested too deeply" in result.output


def test_spectrum_dot(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(gallery_json("lex"))
    result = invoke(["spectrum", str(path), "--format", "dot"])
    assert result.exit_code == 0
    assert "doublecircle" in result.output
    assert "p0 -> p1;" in result.output


def test_spectrum_json(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(gallery_json("mix"))
    result = invoke(["spectrum", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["primes"]) == 3
    assert payload["max_dense"] is False


def test_crt_exit_codes_on_canned_files():
    result = invoke(["crt", str(DATA / "crt_solved.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload == {"solution": [2, 4, 1], "unique": True}

    result = invoke(["crt", str(DATA / "crt_incompatible.json")])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["kind"] == "incompatible"
    assert payload["difference"] == [2, 3]

    result = invoke(["crt", str(DATA / "crt_not_strongly_semisimple.json")])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["kind"] == "not-strongly-semisimple"
    assert payload["witness"] == "zero"
    assert payload["solution_exists"] is False

    result = invoke(["crt", str(DATA / "crt_invalid.json")])
    assert result.exit_code == 3


def test_crt_solves_the_mix_task(tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(gallery_json("mix"))
    result = invoke(["crt", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"solution": [3, [4, 9]]}


def test_crt_missing_file_and_missing_task(tmp_path):
    result = invoke(["crt", str(tmp_path / "nope.json")])
    assert result.exit_code == 3
    path = tmp_path / "chang.json"
    path.write_text(gallery_json("chang"))
    result = invoke(["crt", str(path)])
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "args",
    [
        ["crt"],
        ["crt", "--bogus", "FILE"],
        ["spectrum", "FILE", "--format", "xml"],
        ["frobnicate"],
        [],
        ["spectrum", "FILE", "--form", "dot"],
        ["gallery", "--nam", "mix"],
    ],
    ids=[
        "missing-file",
        "unknown-option",
        "bad-format",
        "unknown-command",
        "no-command",
        "abbreviated-option",
        "abbreviated-gallery-option",
    ],
)
def test_usage_errors_exit_3(tmp_path, args):
    # exit 2 means "not strongly semisimple" to crt, so a usage error is
    # invalid input: exit 3, the message on stderr, nothing on stdout
    path = tmp_path / "mix.json"
    path.write_text(gallery_json("mix"))
    result = invoke([str(path) if arg == "FILE" else arg for arg in args])
    assert result.exit_code == 3
    assert result.stdout_bytes == b""
    assert "lgroup" in result.output and "error: " in result.output


def test_help_exits_0():
    for args in (["--help"], ["crt", "--help"]):
        result = invoke(args)
        assert result.exit_code == 0
        assert result.stdout_bytes.startswith(b"usage: lgroup")


def test_analyze_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = invoke(["analyze", str(path)])
    assert result.exit_code == 3


def test_an_mv_element_outside_the_unit_interval_exits_3(tmp_path):
    # an mv element must lie in [0, u]; the bounds themselves load
    path = tmp_path / "mv.json"
    text = '{"structure": {"lex": "Z"}, "unit": [1, 0], "elements": {"x": {"mv": true, "value": %s}}}'
    for value in ("[5, -3]", "[0, -1]", "[1, 1]", "[-1, 7]"):
        path.write_text(text % value)
        for command in ("analyze", "spectrum", "crt"):
            result = invoke([command, str(path)])
            assert result.exit_code == 3 and result.stdout_bytes == b""
            assert result.output == f"error: elements.x.value: {value} is not between 0 and the unit\n"
    for value in ("[0, 0]", "[1, 0]", "[0, 5]", "[1, -5]"):
        path.write_text(text % value)
        result = invoke(["analyze", str(path)])
        assert result.exit_code == 0 and "x [mv]: p1 -> " in result.output
    # what instance_to_json writes loads back, so it refuses the same entry
    G = lgroup.UnitalGroup(lgroup.lex(lgroup.Z), (1, 0))
    instance = Instance(G, elements={"x": ElementEntry((5, -3), mv=True)})
    with pytest.raises(lgroup.ParseError) as info:
        instance_to_json(instance)
    assert str(info.value) == "elements.x.value: [5, -3] is not between 0 and the unit"


@pytest.mark.parametrize(
    "content, message",
    [
        (b'{"structure": "Z", "unit": 1}\xff', "cannot read {path}: 'utf-8' codec can't decode"),
        (b'{"structure": "Z", "unit": ' + b"9" * 4301 + b"}", "$: invalid JSON: Exceeds the limit"),
    ],
    ids=["not-utf-8", "integer-beyond-the-conversion-limit"],
)
def test_undecodable_input_exits_3(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for command in ("analyze", "spectrum", "crt"):
        result = invoke([command, str(path)])
        assert result.exit_code == 3
        assert result.output.startswith("error: " + message.format(path=path))


def test_an_output_integer_beyond_the_conversion_limit_is_refused_at_input(tmp_path):
    # incompatible targets 4,300 nines apart from their negation: the
    # certificate's difference would print 4,301 digits, beyond Python's
    # conversion limit, so the parser refuses the targets themselves
    nines = "9" * 4300
    path = tmp_path / "huge.json"
    path.write_text(
        '{"structure": {"prod": ["Z", "Z"]}, "unit": [1, 1], "task": {"mode": "keimel", '
        f'"ideals": ["zero", "zero"], "targets": [[{nines}, 0], [-{nines}, 0]]}}}}'
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for command in ("analyze", "spectrum", "crt"):
        args = [sys.executable, "-m", "lgroup", command, str(path)]
        result = subprocess.run(args, capture_output=True, text=True, env=env)
        assert result.returncode == 3 and result.stdout == ""
        message = f"task.targets[0][0]: integer longer than {MAX_INT_BITS} bits"
        assert result.stderr == f"error: {message}\n"


def test_selftest_passes():
    # every suite reports [ok], in the same order, byte for byte
    result = invoke(["selftest"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (DATA / "cli_golden" / "selftest.out").read_bytes()


# what ``from lgroup import *`` bound when the package imported every
# module: the public names and the nine library modules, and ``TooLarge``
# and ``laws``, the home of the law-only names
PUBLIC_NAMES = sorted([
    "core", "crt", "gallery", "ideals", "laws", "mv", "semisimple", "serialize",
    "spectrum", "yosida",
    "Atom", "AtomIdeal", "Certificate", "CongruenceSystem", "Element",
    "ElementEntry", "GALLERY_NAMES", "GammaAlgebra", "Ideal", "IdealLattice",
    "Incompatible", "IncompatibleOnZeroSets", "Instance",
    "InternalInvariantViolation", "LGroupError", "LengthMismatch", "Lex",
    "LexIdeal", "MaxHypothesisViolated", "NotAStrongUnit", "NotInJoin",
    "NotMaximal", "NotStronglySemisimple", "OutOfInterval", "ParseError",
    "PatchResult", "PatchTask", "Prod", "ProdIdeal", "QuotientResult",
    "ShapeMismatch", "SpectrumSpace", "Structure", "TooLarge", "UnitalGroup", "UnknownPrime",
    "Violation", "Z", "ZeroSetTask", "absval", "add", "all_ideal",
    "archimedean_falsify", "atom_count", "canonical_generator",
    "certificate_to_json", "check_element", "check_ideal", "closure",
    "compute_spectrum", "congruent", "contains", "dominated", "dumps_canonical",
    "element_from_json", "element_to_json", "elements_in_box", "enumerate_ideals",
    "full_generator", "gallery_instance", "gallery_json", "holder_eval",
    "ideal_count", "ideal_from_json", "ideal_join", "ideal_leq", "ideal_meet",
    "ideal_of_locus", "ideal_to_json", "instance_from_json", "instance_to_json",
    "is_all_ideal", "is_chain", "is_proper", "is_semisimple",
    "is_strongly_semisimple", "is_zero_ideal", "join", "keimel_patch", "leq", "lex",
    "loads_instance", "lt", "meet", "neg", "principal_ideal", "principal_zero_set",
    "prod", "quotient", "radical", "riesz_split", "scale", "specialization_dot",
    "spectrum_json", "strong_patch", "structure_from_json", "structure_to_json",
    "sub", "unital_group_violations", "validate_unital_group", "vanishing_locus",
    "yosida_table", "zero", "zero_ideal", "zero_set_patch",
])


def _ran(code, *args) -> set:
    # the modules whose bodies ran in a fresh ``python -c code *args``; a
    # lazy module that nothing used is in sys.modules, but not a ModuleType
    report = (
        "\nimport sys, types\n"
        "print(*sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType),"
        " file=sys.stderr)\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code + report, *args], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(result.stderr.splitlines()[-1].split())


def _ran_as_main(*args, codes=(0, 1, 2)) -> set:
    # the modules whose bodies ran in a fresh ``python -m lgroup *args``
    code = (
        "import runpy\n"
        "try:\n"
        "    runpy.run_module('lgroup', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code in {codes!r}, exc.code\n"
    )
    return _ran(code, *args)


def test_entry_points_never_load_the_law_checkers(tmp_path):
    # the law checkers enumerate, and only they use the interval algebra:
    # only selftest may import either
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    commands = [[a.format(a2=path) for a in args] for name, args in COMMANDS.items() if name != "selftest"]
    code = (
        "import json, sys\n"
        "from lgroup.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code in (0, 1, 2), args\n"
    )
    ran = _ran(code, json.dumps(commands))
    assert "lgroup.cli" in ran and not ran & {"lgroup.laws", "lgroup.mv"}
    # each command runs only the modules it needs: the spectrum export runs
    # neither the patch solvers nor the gallery, and no argument parser
    # beyond the standard library's
    ran = _ran_as_main("spectrum", str(path), codes=(0,))
    assert {"lgroup.serialize", "lgroup.spectrum"} <= ran
    assert not ran & {
        "click", "lgroup.crt", "lgroup.semisimple", "lgroup.yosida", "lgroup.gallery", "lgroup.laws"
    }
    # the package alone runs none of its modules, yet binds what it did
    # when it imported them all
    assert {m for m in _ran("import lgroup") if m.startswith("lgroup")} == {"lgroup"}
    assert sorted(lgroup.__all__) == PUBLIC_NAMES
    star = {}
    exec("from lgroup import *", star)
    assert sorted(name for name in star if name != "__builtins__") == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(lgroup))


# every command, run alone; the crt files cover the three task modes
COMMANDS = {
    "analyze": ["analyze", "{a2}"],
    "spectrum-json": ["spectrum", "{a2}"],
    "spectrum-dot": ["spectrum", "{a2}", "--format", "dot"],
    "crt-keimel": ["crt", str(DATA / "crt_incompatible.json")],
    "crt-strong": ["crt", str(DATA / "crt_not_strongly_semisimple.json")],
    "crt-zeroset": ["crt", str(DATA / "crt_solved.json")],
    "gallery": ["gallery", "--name", "mix"],
    "selftest": ["selftest"],
}


def _loaded_after_start_up(tmp_path, args, codes=(0, 1, 2)) -> tuple:
    """The modules a fresh interpreter loads to run ``lgroup *args``, and
    the number of product arities whose straight-line kernels it compiled
    (the entries of ``core._straight_factory``'s cache).  A lazy
    module that ``import lgroup`` registered and nothing used is in
    ``sys.modules`` but did not run, so it is not listed."""
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    code = (
        "import runpy, sys, types\n"
        "before = set(sys.modules)\n"
        "try:\n"
        "    runpy.run_module('lgroup', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code in {codes!r}, exc.code\n"
        "print(sys.modules['lgroup.core']._straight_factory.cache_info().currsize, file=sys.stderr)\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n not in before and type(m) is types.ModuleType), file=sys.stderr)\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [a.format(a2=path) for a in args]
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr[-2000:]
    *_, compiled, loaded = result.stderr.splitlines()
    return set(loaded.split()), int(compiled)


@pytest.mark.parametrize("args", COMMANDS.values(), ids=COMMANDS)
def test_commands_load_no_code_generation(tmp_path, args):
    # dataclasses, and the inspect it loads, cost a cold call more than
    # its own work; only modules loaded after start-up count
    loaded, _ = _loaded_after_start_up(tmp_path, args)
    assert "lgroup.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def _assert_makes_no_fractions(loaded):
    # no command prints a Fraction: analyze reduces its values itself, and
    # lgroup.yosida, which makes Fractions, stays a lazy module; fractions,
    # with the decimal it loads, costs a cold call milliseconds
    assert "lgroup.cli" in loaded
    assert not loaded & {"fractions", "decimal", "numbers", "lgroup.yosida"}


@pytest.mark.parametrize("mode", ["crt-keimel", "crt-strong", "crt-zeroset"])
def test_crt_loads_no_fractions(tmp_path, mode):
    loaded, _ = _loaded_after_start_up(tmp_path, COMMANDS[mode])
    assert "lgroup.crt" in loaded
    _assert_makes_no_fractions(loaded)


@pytest.mark.parametrize("shape", ["analyze", "spectrum-json", "spectrum-dot", "spectrum-format-first"])
def test_analyze_and_spectrum_load_no_fractions(tmp_path, shape):
    loaded, _ = _loaded_after_start_up(tmp_path, FAST_SHAPES[shape])
    assert "lgroup.spectrum" in loaded
    _assert_makes_no_fractions(loaded)


# the library modules, besides the package and ``cli``, whose bodies each
# command runs: the ideal closed forms and the top integers live in
# ``core``, so no command runs ``ideals``, the patch solvers run neither
# ``spectrum`` nor ``yosida``, and ``analyze`` reduces its values itself
COMMAND_MODULES = {
    "analyze": {"core", "serialize", "spectrum", "semisimple"},
    "spectrum-json": {"core", "serialize", "spectrum"},
    "spectrum-dot": {"core", "serialize", "spectrum"},
    **{mode: {"core", "serialize", "crt", "semisimple"} for mode in COMMANDS if mode.startswith("crt")},
}


@pytest.mark.parametrize("name", COMMAND_MODULES)
def test_each_command_runs_only_its_modules(tmp_path, name):
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    ran = _ran_as_main(*(a.format(a2=path) for a in COMMANDS[name]))
    expected = {"lgroup", "lgroup.cli", *(f"lgroup.{m}" for m in COMMAND_MODULES[name])}
    assert {m for m in ran if m.startswith("lgroup")} == expected


# the names that moved from ``ideals`` to ``core``, whose one home it is,
# and ``top_values``, which moved from ``yosida``, which imports it for
# its own use
MOVED_TO_CORE = (
    "CACHE_SIZE", "_structure_of", "zero_ideal", "all_ideal", "_max_meet",
    "is_zero_ideal", "is_all_ideal", "is_proper", "check_ideal", "ideal_join",
    "ideal_meet", "ideal_leq", "principal_ideal", "ideal_count", "top_values",
)


def test_every_moved_name_is_one_object_under_each_module():
    import lgroup.core
    import lgroup.yosida

    assert lgroup.yosida.top_values is lgroup.core.top_values
    for name in MOVED_TO_CORE:
        obj = getattr(lgroup.core, name)
        if name in lgroup.__all__:
            assert getattr(lgroup, name) is obj, name
    # reading a public name of core runs core alone
    code = "import lgroup\nlgroup.zero_ideal, lgroup.ideal_count, lgroup.TooLarge\n"
    assert {m for m in _ran(code) if m.startswith("lgroup")} == {"lgroup", "lgroup.core"}


def test_the_console_script_builds_products_with_the_loops():
    # the installed ``lgroup`` script is a one-shot process, as ``python -m
    # lgroup`` is: its target lowers the bound before it runs cli.main
    pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = pyproject.split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    module, function = json.loads(section.partition("lgroup = ")[2]).split(":")
    argv = ["spectrum", "--format=json", str(DATA / "forest.json")]
    # what the script that pip writes does, with sys.argv[0] its own path
    code = (
        "import importlib, sys\n"
        "sys.argv[0] = 'lgroup'\n"
        "try:\n"
        f"    sys.exit(importlib.import_module({module!r}).{function}())\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(sys.modules['lgroup.core']._straight_factory.cache_info().currsize, file=sys.stderr)\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)
    assert script.returncode == 0, script.stderr[-2000:]
    assert script.stderr.splitlines()[-1] == b"0"  # no arity compiled
    as_main = subprocess.run([sys.executable, "-m", "lgroup", *argv], capture_output=True, env=env)
    assert as_main.returncode == 0 and script.stdout == as_main.stdout


# the argv shapes that cli.main reads itself, each on a product instance
FAST_SHAPES = {
    **{name: args for name, args in COMMANDS.items() if name not in ("gallery", "selftest")},
    "spectrum-format-first": ["spectrum", "--format", "json", "{a2}"],
}


@pytest.mark.parametrize("args", FAST_SHAPES.values(), ids=FAST_SHAPES)
def test_a_cold_call_loads_no_argparse_and_compiles_no_kernels(tmp_path, args):
    # argparse, with the gettext and locale it loads, costs a cold call
    # about 5 ms, and a one-shot process builds its products with the loops
    loaded, compiled = _loaded_after_start_up(tmp_path, args)
    assert "lgroup.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}
    assert compiled == 0


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), (["spectrum", "{a2}", "--format", "xml"], 3), (COMMANDS["gallery"], 0)],
    ids=["help", "usage-error", "gallery"],
)
def test_every_other_argv_goes_to_argparse(tmp_path, args, code):
    loaded, _ = _loaded_after_start_up(tmp_path, args, codes=(code,))
    assert "argparse" in loaded


def test_a_300_level_nest_exports_its_spectrum_in_bounded_memory(tmp_path):
    # 93.9 MB of JSON, written in pieces: the child peaked at 51 MB by
    # VmHWM (Python 3.11 on a shared 2-vCPU machine), where joining the
    # whole text before writing it peaked at 344 MB
    path = tmp_path / "nest.json"
    path.write_text(tower_instance(300, "prod"))
    digest, size = hashlib.sha256(), [0]

    def consume(chunk):
        digest.update(chunk)
        size[0] += len(chunk)

    code, err, peak = run_with_peak(["spectrum", str(path), "--format", "json"], consume)
    assert code == 0, err
    # the bytes that the whole text, written at once, made
    assert size[0] == 93_883_717
    assert digest.hexdigest() == "e7091ff19da06a2abfd982b993f4835c02cb840e3701bdde6c23af604001e11e"
    assert peak < 100_000


# the syntax-tree nodes (``ast.walk``) of the lgroup modules whose bodies
# each command runs in a fresh interpreter: every cold call compiles them
# again, and compiling costs by the node, not by the line (comments and
# docstrings cost almost nothing), so a change that compiles more for a
# command must raise its budget here
COLD_NODE_BUDGET = {"analyze": 12161, "spectrum": 12049, "crt": 11987}


@pytest.mark.parametrize("command", COLD_NODE_BUDGET)
def test_commands_compile_no_more_nodes_than_their_budget(tmp_path, command):
    path = tmp_path / "mix.json"
    path.write_text(gallery_json("mix"))
    # a module that never ran is still a lazy module, and reading any
    # attribute of it would run it
    code = (
        "import runpy, sys, types\n"
        "try:\n"
        "    runpy.run_module('lgroup', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "ran = [m.__file__ for n, m in sys.modules.items()\n"
        "       if n.partition('.')[0] == 'lgroup' and type(m) is types.ModuleType]\n"
        "print(*ran, sep='\\n', file=sys.stderr)\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code, command, str(path)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr[-2000:]
    ran = {pathlib.Path(f) for f in result.stderr.splitlines() if f.endswith(".py")}
    assert {"__init__.py", "cli.py"} <= {f.name for f in ran}
    nodes = sum(sum(1 for _ in ast.walk(ast.parse(f.read_text(encoding="utf-8")))) for f in ran)
    assert nodes <= COLD_NODE_BUDGET[command]


def test_no_module_imports_dataclasses():
    package = pathlib.Path(lgroup.__file__).parent
    for source in package.glob("*.py"):
        text = source.read_text(encoding="utf-8")
        assert "import dataclasses" not in text, source.name
        assert "from dataclasses" not in text, source.name


def test_no_module_imports_a_sibling_name_it_never_uses():
    # each name has one home: a module imports a name, a sibling's or any
    # other module's, to use it, never to offer it as its own (the package
    # root alone publishes), so no import outlives the code that used it;
    # ``import a.b`` binds ``a``, and ``__future__`` binds nothing
    package = pathlib.Path(lgroup.__file__).parent
    unused = []
    for source in sorted(package.glob("*.py")):
        if source.name == "__init__.py":
            continue
        tree = ast.parse(source.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{source.name}: {name}" for name in bound if name not in used]
    assert unused == []


def test_rebinding_in_loaded_modules_reaches_every_call(tmp_path):
    # a tracer or a mock rebinds a function in every lgroup module loaded
    # when it starts; the package registers its modules at once, so the
    # calls of modules whose bodies run later go through the new binding,
    # and the package's own names follow their home modules
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    code = (
        "import importlib, sys\n"
        "import lgroup.cli\n"
        "modules = [m for n, m in list(sys.modules.items()) if n.startswith('lgroup')]\n"
        "names = [('spectrum', 'compute_spectrum'), ('semisimple', 'radical'),\n"
        "         ('semisimple', 'is_strongly_semisimple'), ('yosida', 'top_values'),\n"
        "         ('crt', 'keimel_patch')]\n"
        "calls, saved = [], []\n"
        "def counted(name, fn):\n"
        "    return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)\n"
        "for home, name in names:\n"
        "    fn = getattr(importlib.import_module('lgroup.' + home), name)\n"
        "    wrapper = counted(name, fn)\n"
        "    for m in modules:\n"
        "        if vars(m).get(name) is fn:\n"
        "            setattr(m, name, wrapper)\n"
        "            saved.append((m, name, fn))\n"
        "assert lgroup.compute_spectrum is lgroup.spectrum.compute_spectrum\n"
        "for args in (['analyze', sys.argv[1]], ['crt', sys.argv[1]]):\n"
        "    try:\n"
        "        lgroup.cli.main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, args\n"
        "wrapped = lgroup.keimel_patch\n"
        "for m, name, fn in saved:\n"
        "    setattr(m, name, fn)\n"
        "assert wrapped is not lgroup.keimel_patch is lgroup.crt.keimel_patch\n"
        "print(*sorted(set(calls)))\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1].split() == [
        "compute_spectrum", "is_strongly_semisimple", "keimel_patch", "radical", "top_values"
    ]
