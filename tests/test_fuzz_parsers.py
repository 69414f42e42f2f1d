"""Fuzzing of the text parsers and the instance type.

Every input either parses or raises ValueError, and through ``main`` every
input a parser rejects exits 2 with nothing on stdout.  Integer sizes are
bounded, so that valid but huge specs (``ns:k=1000000``, ``schedule:n=pt:5``,
``p edge 100000000 0``, at the default budget) are not generated: they
parse, but running them takes seconds or allocates a name per vertex.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pathchroma.cli import main, parse_algorithm, parse_count
from pathchroma.graphs import from_dimacs
from pathchroma.model import CYCLE, PATH, PathInstance, parse_instance

FUZZ = settings(max_examples=100, deadline=None)
# Each example through main builds the argument parser and runs a command.
FUZZ_MAIN = settings(max_examples=40, deadline=None)

# Text that int() can never read: no digit of any script.
junk = st.text(max_size=4).filter(lambda s: not any(c.isdigit() for c in s))
small_int = st.integers(min_value=-3, max_value=40).map(str)
int_text = st.one_of(small_int, junk)
count_text = st.one_of(
    int_text,
    st.builds("pt:{}".format, st.one_of(st.integers(-1, 4).map(str), junk)),
    st.builds("pt:{}+{}".format, st.integers(-1, 4), int_text),
)
spec_name = st.one_of(
    st.sampled_from(["4to3", "ns", "cv", "shift", "identity", "schedule"]), junk
)
spec_arg = st.builds(
    "{}={}".format, st.one_of(st.sampled_from(["n", "k"]), junk), st.one_of(count_text, junk)
)
algorithm_spec = st.one_of(
    spec_name,
    st.builds(
        lambda name, args: f"{name}:{','.join(args)}",
        spec_name,
        st.lists(st.one_of(spec_arg, junk), max_size=3),
    ),
)
label_token = st.one_of(small_int, junk)
instance_text = st.one_of(
    st.text(max_size=20).filter(lambda s: not any(c.isdigit() for c in s) or len(s) < 4),
    st.builds(
        lambda topology, labels, extra: f"{topology}\n{' '.join(labels)}\n{extra}",
        st.one_of(st.sampled_from([CYCLE, PATH]), junk),
        st.lists(label_token, max_size=8),
        st.one_of(st.just(""), junk),
    ),
)
# DIMACS .col text: random lines, or a header and edges between small
# vertex numbers that often lie in range.  Vertex counts stay within
# small_int.
dimacs_line = st.one_of(
    st.builds("p edge {} {}".format, int_text, int_text),
    st.builds("p {} {} {}".format, st.one_of(st.just("edge"), junk), int_text, int_text),
    st.builds("e {} {}".format, int_text, int_text),
    st.builds("e {}".format, int_text),
    st.builds("c label {} {}".format, int_text, junk),
    st.builds("c {}".format, junk),
    junk,
)
vertex = st.integers(1, 6).map(str)
dimacs_text = st.one_of(
    st.lists(dimacs_line, max_size=8).map("\n".join),
    st.builds(
        lambda n, edges, extra: "\n".join([f"p edge {n} {len(edges)}", *edges, *extra]),
        st.integers(-1, 8),
        st.lists(st.builds("e {} {}".format, vertex, vertex), max_size=10),
        st.lists(dimacs_line, max_size=1),
    ),
    # labels for vertices that repeat or lie outside 1..n
    st.builds(
        lambda n, labelled: "\n".join(
            [f"p edge {n} 0", *(f"c label {v} x{i}" for i, v in enumerate(labelled))]
        ),
        st.integers(0, 4),
        st.lists(st.integers(-1, 6), max_size=4),
    ),
)


def _parses(parser, text):
    try:
        parser(text)
    except ValueError:
        return False
    return True


def _main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_exit(parsed, code, out):
    assert code in (0, 2)  # never a traceback, never a budget or claim code
    assert parsed or code == 2
    assert code == 0 or out == ""  # a failing command prints nothing first


@FUZZ_MAIN
@given(count_text)
def test_parse_count_parses_or_raises_value_error(text):
    parsed = _parses(parse_count, text)
    for command in ("bounds", "reduce"):
        code, out, _ = _main(command, "--n", text)
        _check_exit(parsed, code, out)


@FUZZ
@given(st.text(max_size=12))
def test_parse_count_on_any_text(text):
    _parses(parse_count, text)


@FUZZ_MAIN
@given(algorithm_spec, st.integers(min_value=1, max_value=8))
def test_parse_algorithm_parses_or_raises_value_error(spec, colours):
    parsed = _parses(parse_algorithm, spec)
    # colours above the palette, and 1 or 2 colours on a 5-cycle, fail after parsing
    code, out, _ = _main("simulate", "--alg", spec, "--input", f"random:{colours},5,0")
    _check_exit(parsed, code, out)
    if code == 0:
        assert out.startswith("seed=0\n")


@FUZZ_MAIN
@given(instance_text)
def test_parse_instance_parses_or_raises_value_error(text):
    parsed = _parses(parse_instance, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, _ = _main("simulate", "--alg", "identity:n=40", "--input", path)
    _check_exit(parsed, code, out)


@FUZZ
@given(dimacs_text)
def test_from_dimacs_parses_or_raises_value_error(text):
    _parses(from_dimacs, text)


def _label_vertices(text):
    return [
        int(parts[2])
        for parts in map(str.split, text.splitlines())
        if len(parts) >= 3 and parts[:2] == ["c", "label"]
    ]


@FUZZ
@given(dimacs_text)
def test_from_dimacs_takes_one_label_per_vertex_in_range(text):
    try:
        graph = from_dimacs(text)
    except ValueError:
        return
    vertices = _label_vertices(text)
    assert len(set(vertices)) == len(vertices)
    assert all(1 <= v <= graph.vertex_count for v in vertices)


@pytest.mark.parametrize(
    "text",
    [
        "p edge 2 0\nc label 1 a\nc label 1 b\n",
        "p edge 2 0\nc label 1 a\nc label 7 z\n",
        "c label 0 z\np edge 2 1\ne 1 2\n",
    ],
    ids=["second label", "label above n", "label 0"],
)
def test_inconsistent_dimacs_labels_exit_2(text):
    with pytest.raises(ValueError, match="label"):
        from_dimacs(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.col")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, err = _main("colour", "--input", path, "--k", "2")
    assert (code, out) == (2, "") and "label" in err


def test_dimacs_edge_count_is_not_checked():
    # Files in the wild often count each edge twice.
    assert from_dimacs("p edge 3 2\ne 1 2\n").edge_count == 1


@FUZZ_MAIN
@given(dimacs_text, st.sampled_from([("--chromatic",), ("--k", "3"), ("--k", "0")]))
def test_colour_command_exits_0_or_2(text, options):
    parsed = _parses(from_dimacs, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.col")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out, _ = _main("colour", "--input", path, *options)
    _check_exit(parsed, code, out)


label = st.one_of(
    st.integers(min_value=-3, max_value=10),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=2),
    st.none(),
)


@FUZZ
@given(st.one_of(st.sampled_from([CYCLE, PATH]), junk), st.lists(label, max_size=6))
def test_path_instance_accepts_exactly_positive_int_labels(topology, labels):
    # The reference rule: bools are ints (True is 1), 0 and below are not colours.
    valid = (
        topology in (CYCLE, PATH)
        and len(labels) >= 2
        and all(isinstance(x, int) and x >= 1 for x in labels)
    )
    if valid:
        assert PathInstance(topology, tuple(labels)).labels == tuple(labels)
    else:
        with pytest.raises(ValueError):
            PathInstance(topology, tuple(labels))


def test_path_instance_label_edge_cases():
    assert PathInstance(CYCLE, (True, 2)).labels == (1, 2)
    for labels in ((False, 2), (0, 2), (-1, 2), (1.0, 2), (2, None)):
        with pytest.raises(ValueError):
            PathInstance(CYCLE, labels)
