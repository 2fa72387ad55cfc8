"""Property tests of ``lgroup.cli.main`` on hostile input: byte mutations
of the gallery and ``tests/data`` instances, and instance documents with
one value swapped for a hostile scalar or container.  Every run ends in
an exit code from 0 to 3 (solved, violated, not strongly semisimple,
invalid input) and never in a traceback.  Last, the argv shapes that
``main`` reads without argparse: on generated argv, its fast path either
declines or gives what the argparse parser gives."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgroup import GALLERY_NAMES, gallery_json
from lgroup.argparser import _parser
from lgroup.cli import _fast_path, main

DATA = pathlib.Path(__file__).parent / "data"
SOURCES = [gallery_json(name).encode() for name in GALLERY_NAMES] + [
    path.read_bytes() for path in sorted(DATA.glob("*.json"))
]
COMMANDS = [["analyze"], ["spectrum", "--format", "json"], ["spectrum", "--format", "dot"], ["crt"]]


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """The file each example writes its input to."""
    return tmp_path_factory.mktemp("hostile") / "instance.json"


def _run(path, command) -> tuple:
    """The exit code and stderr of ``lgroup COMMAND PATH``, run in process;
    any exception but SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main([command[0], str(path), *command[1:]])
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check(path, command):
    code, err = _run(path, command)
    assert code in (0, 1, 2, 3), (code, err)
    assert "Traceback" not in err


# JSON punctuation, literals, digits and bytes that are not UTF-8
PIECES = st.one_of(
    st.sampled_from([
        b"[", b"]", b"{", b"}", b",", b":", b'"', b"-", b"0", b"9", b"1e999", b"null", b"true",
        b"NaN", b"\xff", b"\xc3", b"\x00", b"Z", b'"lex"', b'"prod"',
    ]),
    st.binary(min_size=1, max_size=4),
)
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.sampled_from("rid"), PIECES), min_size=1, max_size=4)


def _mutate(source: bytes, edits) -> bytes:
    """Each edit replaces, inserts or deletes at a position modulo the length."""
    out = bytearray(source)
    for position, kind, piece in edits:
        at = position % (len(out) + 1)
        if kind == "r":
            out[at : at + len(piece)] = piece
        elif kind == "i":
            out[at:at] = piece
        else:
            del out[at : at + len(piece)]
    return bytes(out)


@given(source=st.sampled_from(SOURCES), edits=EDITS, command=st.sampled_from(COMMANDS))
@settings(max_examples=250, deadline=None)
def test_byte_mutations_exit_0_to_3_without_a_traceback(instance, source, edits, command):
    instance.write_bytes(_mutate(source, edits))
    _check(instance, command)


# spelled into the text after json.dumps: an integer of 5,000 digits and a
# list nested 20,000 deep, beyond the parser's bounds
HUGE, DEEP = "\x00huge", "\x00deep"
SPELLED = {json.dumps(HUGE): "-" + "9" * 5000, json.dumps(DEEP): "[" * 20000 + "]" * 20000}
HOSTILE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.integers(-(1 << 200), 1 << 200),
    st.sampled_from([HUGE, DEEP, "Z", "lex", "all", "zero", ""]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.lists(st.booleans(), max_size=2), max_size=2),
    st.dictionaries(st.sampled_from(["prod", "lex", "x"]), st.just("Z"), max_size=2),
)
DOCUMENTS = [json.loads(source) for source in SOURCES]


def _places(doc, path=()):
    """The path of every value in doc, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _swap(doc, path, value):
    """doc with the value at path replaced, copying what lies on the path."""
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _swap(doc[path[0]], path[1:], value)
    return copy


@given(data=st.data(), command=st.sampled_from(COMMANDS))
@settings(max_examples=250, deadline=None)
def test_hostile_scalars_exit_0_to_3_without_a_traceback(instance, data, command):
    doc = data.draw(st.sampled_from(DOCUMENTS))
    path = data.draw(st.sampled_from(list(_places(doc))))
    text = json.dumps(_swap(doc, path, data.draw(HOSTILE)))
    for marker, spelled in SPELLED.items():
        text = text.replace(marker, spelled)
    instance.write_text(text, encoding="utf-8")
    _check(instance, command)


# argv pieces: commands, options spelled whole, with "=" or cut short,
# "--", values, and file names, some starting with "-"
WORDS = st.sampled_from([
    "analyze", "spectrum", "crt", "gallery", "selftest", "--format", "--format=dot",
    "--format=json", "--form", "--f", "--name", "--help", "-h", "--", "dot", "json", "xml",
])
FILES = st.one_of(
    st.sampled_from(["a.json", "-a.json", "-", "-1", "", " ", "- x", "dot"]), st.text(max_size=4)
)
# near the shapes the fast path takes: a command, then the pieces of
# "--format dot|json FILE" in any order, or anything
NEAR = st.sampled_from(["--format", "dot", "json", "a.json"])
ARGV = st.one_of(
    st.lists(st.one_of(WORDS, FILES), max_size=5),
    st.builds(
        lambda command, rest: [command, *rest],
        st.sampled_from(["analyze", "spectrum", "crt", "gallery", "selftest"]),
        st.lists(st.one_of(NEAR, NEAR, WORDS, FILES), max_size=4),
    ),
)


@given(argv=ARGV)
@settings(max_examples=1000, deadline=None)
def test_the_fast_path_declines_an_argv_or_parses_it_as_argparse_does(argv):
    fast = _fast_path(argv)
    if fast is None:
        return
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            parsed = _parser("lgroup").parse_args(argv)
    except SystemExit:
        pytest.fail(f"the fast path took {argv!r}, which argparse refuses")
    assert vars(fast) == vars(parsed)


def test_the_fast_path_takes_the_command_shapes_and_declines_the_rest():
    taken = [
        ["analyze", "a.json"], ["crt", "a.json"], ["spectrum", "a.json"],
        ["spectrum", "--format", "dot", "a.json"], ["spectrum", "a.json", "--format", "json"],
    ]
    declined = [
        [], ["analyze"], ["analyze", "a.json", "b.json"], ["analyze", "-a.json"],
        ["analyze", "--", "a.json"], ["spectrum", "--format=dot", "a.json"],
        ["spectrum", "--form", "dot", "a.json"], ["spectrum", "a.json", "--format", "xml"],
        ["crt", "a.json", "--format", "dot"], ["gallery", "--name", "mix"], ["selftest"],
        ["--help"], ["crt", "--help"],
    ]
    assert all(_fast_path(argv) is not None for argv in taken)
    assert all(_fast_path(argv) is None for argv in declined)
