import json
import os
import pathlib
import subprocess
import sys

import pytest
from click.testing import CliRunner

import lgroup
import lgroup.ideals
import lgroup.spectrum
from lgroup import GALLERY_NAMES, gallery_json
from lgroup.cli import main
from lgroup.serialize import MAX_HEIGHT

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def test_gallery_prints_canonical_instances(runner):
    for name in GALLERY_NAMES:
        result = runner.invoke(main, ["gallery", "--name", name])
        assert result.exit_code == 0
        assert result.output == gallery_json(name)


def test_analyze_a2(runner, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    assert "ideals: 4 (3 proper, all principal)" in result.output
    assert "spec: 2 primes, 2 maximal" in result.output
    assert "semisimple: true" in result.output
    assert "strongly semisimple: true" in result.output


def test_analyze_lex_reports_witness(runner, tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(gallery_json("lex"))
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0
    assert "radical: bottom(all)" in result.output
    assert "semisimple: false" in result.output
    assert "strongly semisimple: false (witness: bottom(zero))" in result.output


def _tower(height: int, level: str = "lex", list_unit: bool = False) -> str:
    # instance text for a tree of lex levels, or of prod levels each with a
    # Z beside the rest, over Z, optionally listing the unit as an element;
    # built as text, since the encoder recurses
    structure, unit = '"Z"', "1"
    for _ in range(height):
        if level == "lex":
            structure = '{"lex": %s}' % structure
        else:
            structure = '{"prod": ["Z", %s]}' % structure
        unit = "[1, %s]" % unit
    elements = ', "elements": {"u": %s}' % unit if list_unit else ""
    return '{"structure": %s, "unit": %s%s}' % (structure, unit, elements)


# the gallery, and a forest whose longest chain has 14 primes
@pytest.mark.parametrize("name", GALLERY_NAMES + ("forest",))
def test_outputs_match_golden_bytes(runner, tmp_path, name):
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
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        golden = (DATA / "cli_golden" / f"{name}.{suffix}").read_bytes()
        assert result.stdout_bytes == golden, f"{name}.{suffix}"


def test_entry_points_never_enumerate_the_lattice(runner, tmp_path, monkeypatch):
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
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 0, result.output
    assert "ideals: 16777216 (16777215 proper, all principal)" in result.output
    assert "spec: 24 primes, 24 maximal" in result.output
    assert "strongly semisimple: true" in result.output
    result = runner.invoke(main, ["spectrum", str(path)])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["crt", str(path)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"solution": [5] + [3] * (n - 1)}


def test_spectrum_exports_never_compare_ideals(runner, tmp_path, monkeypatch):
    # the exports read the order off the cover chains of the tree
    def refuse(*args):
        raise AssertionError("the spectrum export compared ideals")

    monkeypatch.setattr(lgroup.spectrum, "ideal_leq", refuse)
    monkeypatch.setattr(lgroup.spectrum, "closure", refuse)
    path = tmp_path / "tower.json"
    path.write_text(_tower(70))
    for fmt in ("json", "dot"):
        result = runner.invoke(main, ["spectrum", str(path), "--format", fmt])
        assert result.exit_code == 0, result.output
    assert "p69 -> p70;" in result.output


def test_entry_points_build_no_quotient(runner, tmp_path, monkeypatch):
    # values, zero sets and the strong hypothesis are read off top
    # positions: analyze with listed elements and crt in every mode keep
    # their stdout and exit codes when building a quotient fails
    docs = {name: json.loads(gallery_json(name)) for name in GALLERY_NAMES}
    docs["forest"] = json.loads((DATA / "forest.json").read_text())
    docs.update({p.stem: json.loads(p.read_text()) for p in DATA.glob("crt_*.json")})
    c3 = docs["c3"]
    m1, m2 = ({"prod": ["all"] * i + ["zero"] + ["all"] * (2 - i)} for i in range(2))
    for name, ideals, targets in (
        ("c3_strong", [m1, m2], [[1, 2, 3], [9, 9, 1]]),
        ("c3_violated", [m1, m1], [[5, 0, 0], [7, 0, 0]]),
    ):
        task = {"mode": "strong", "ideals": ideals, "targets": targets}
        docs[name] = {**c3, "task": task}
    task = {**c3["task"], "generators": [[0, 0, 1], [0, 0, 1]]}
    docs["c3_overlap"] = {**c3, "task": task}
    calls = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        calls += [["crt", str(path)]] if "task" in doc else []
        calls += [["analyze", str(path)]] if "elements" in doc else []
    expected = [runner.invoke(main, args) for args in calls]
    assert {r.exit_code for r in expected} == {0, 1, 2, 3}
    assert sum("values on the maximal spectrum" in r.output for r in expected) >= 6

    def refuse(*args):
        raise AssertionError("a quotient was built")

    monkeypatch.setattr(lgroup.ideals, "_quotient", refuse)
    for args, before in zip(calls, expected):
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout_bytes) == (
            before.exit_code,
            before.stdout_bytes,
        ), (args, repr(result.exception))
        golden = DATA / "cli_golden" / f"{pathlib.Path(args[1]).stem}.analyze.txt"
        if args[0] == "analyze" and golden.exists():
            assert result.stdout_bytes == golden.read_bytes()


def _run_alone(*args) -> subprocess.CompletedProcess:
    # one CLI call in a process of its own, as the installed command runs
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "lgroup", *args], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize("level", ["lex", "prod"])
def test_trees_answer_up_to_the_height_limit(runner, tmp_path, level):
    # at the limit analyze and the dot export answer; one level more is
    # refused at parse time with the path of the offending level (exit 3)
    assert MAX_HEIGHT == 400
    path = tmp_path / "tall.json"
    path.write_text(_tower(MAX_HEIGHT, level, list_unit=True))
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
    path.write_text(_tower(MAX_HEIGHT + 1, level))
    for args in (["analyze", str(path)], ["spectrum", str(path), "--format", "dot"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 3, repr(result.exception)
        assert f"structure{step * MAX_HEIGHT}: structure taller than" in result.output


def test_nesting_beyond_the_decoder_is_a_parse_error(runner, tmp_path):
    path = tmp_path / "abyss.json"
    path.write_text(_tower(5000))
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 3, repr(result.exception)
    assert "nested too deeply" in result.output


def test_spectrum_dot(runner, tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(gallery_json("lex"))
    result = runner.invoke(main, ["spectrum", str(path), "--format", "dot"])
    assert result.exit_code == 0
    assert "doublecircle" in result.output
    assert "p0 -> p1;" in result.output


def test_spectrum_json(runner, tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(gallery_json("mix"))
    result = runner.invoke(main, ["spectrum", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["primes"]) == 3
    assert payload["max_dense"] is False


def test_crt_exit_codes_on_canned_files(runner):
    result = runner.invoke(main, ["crt", str(DATA / "crt_solved.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload == {"solution": [2, 4, 1], "unique": True}

    result = runner.invoke(main, ["crt", str(DATA / "crt_incompatible.json")])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["kind"] == "incompatible"
    assert payload["difference"] == [2, 3]

    result = runner.invoke(main, ["crt", str(DATA / "crt_not_strongly_semisimple.json")])
    assert result.exit_code == 2
    payload = json.loads(result.output)
    assert payload["kind"] == "not-strongly-semisimple"
    assert payload["witness"] == "zero"
    assert payload["solution_exists"] is False

    result = runner.invoke(main, ["crt", str(DATA / "crt_invalid.json")])
    assert result.exit_code == 3


def test_crt_solves_the_mix_task(runner, tmp_path):
    path = tmp_path / "mix.json"
    path.write_text(gallery_json("mix"))
    result = runner.invoke(main, ["crt", str(path)])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload == {"solution": [3, [4, 9]]}


def test_crt_missing_file_and_missing_task(runner, tmp_path):
    result = runner.invoke(main, ["crt", str(tmp_path / "nope.json")])
    assert result.exit_code == 3
    path = tmp_path / "chang.json"
    path.write_text(gallery_json("chang"))
    result = runner.invoke(main, ["crt", str(path)])
    assert result.exit_code == 3


def test_analyze_rejects_malformed_json(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 3


def test_selftest_passes(runner):
    # every suite reports [ok], in the same order, byte for byte
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (DATA / "cli_golden" / "selftest.out").read_bytes()


def test_entry_points_never_load_the_law_checkers(tmp_path):
    # the law checkers enumerate; only selftest may import them
    path = tmp_path / "a2.json"
    path.write_text(gallery_json("a2"))
    code = (
        "import sys\n"
        "from lgroup.cli import main\n"
        "for args in (['analyze', sys.argv[1]], ['spectrum', sys.argv[1]],\n"
        "             ['spectrum', sys.argv[1], '--format', 'dot'], ['crt', sys.argv[1]]):\n"
        "    try:\n"
        "        main(args)\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, args\n"
        "print('lgroup.laws' in sys.modules)\n"
    )
    src = pathlib.Path(lgroup.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines()[-1] == "False"
