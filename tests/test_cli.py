import json
import pathlib

import pytest
from click.testing import CliRunner

import lgroup.ideals
from lgroup import GALLERY_NAMES, gallery_json
from lgroup.cli import main

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


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_outputs_match_golden_bytes(runner, tmp_path, name):
    # stdout of analyze and of both spectrum exports, byte for byte
    path = tmp_path / f"{name}.json"
    path.write_text(gallery_json(name))
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
    result = runner.invoke(main, ["selftest"])
    assert result.exit_code == 0, result.output
    assert "all suites passed" in result.output
    assert "[FAIL]" not in result.output
