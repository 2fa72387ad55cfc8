"""The count of ``tools/code_lines.py`` on a fixed source string."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""The module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """A class docstring."""

    size = 3


def f(x,
      y):
    """A function docstring
    over three
    lines."""
    text = """a string that is not a docstring
    counts every line"""
    return (x +
            y)
'''


def test_counts_code_and_skips_blanks_comments_and_docstrings():
    # import, class, size, def over two lines, text over two lines, return
    # over two lines
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["9", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["10", "total"]]
    assert code_lines.main([]) == 2
