"""Property-based tests: format round trips, reader robustness, field
axioms, and the CLI's direct parse against argparse.

Hypothesis is a test dependency only; without it this module is skipped.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dts_ldpc import cli, gf  # noqa: E402
from dts_ldpc.cli import _json_text  # noqa: E402
from dts_ldpc.code import ExponentMatrix  # noqa: E402
from dts_ldpc.dts import DifferenceTriangleSet  # noqa: E402
from dts_ldpc.formats import (  # noqa: E402
    JSON_SCHEMA,
    from_alist,
    matrix_from_json_dict,
    matrix_to_json_dict,
    to_alist,
)
from test_code import assert_matches_stack  # noqa: E402

FIELDS = {q: gf.make_field(p, n) for q, p, n in [
    (2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2),
    (11, 11, 1), (13, 13, 1), (16, 2, 4), (17, 17, 1), (19, 19, 1), (23, 23, 1),
    (25, 5, 2), (27, 3, 3), (29, 29, 1), (31, 31, 1), (32, 2, 5),
]}

FUZZ = settings(max_examples=50, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=12,
)
small_ints = st.integers(-2, 6)


@st.composite
def patterns(draw):
    """``(rows, cols, entries, field)`` of a small matrix, entries anywhere."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = draw(st.dictionaries(
        st.tuples(st.integers(1, rows), st.integers(1, cols)),
        st.integers(0, field.q - 2), max_size=rows * cols))
    return rows, cols, entries, field


def matrices():
    return patterns().map(lambda args: ExponentMatrix(*args))


# JSON shaped like an exponent matrix, each part either plausible or arbitrary.
matrix_json = st.fixed_dictionaries({
    "schema": st.just(JSON_SCHEMA) | json_values,
    "rows": small_ints | json_values,
    "cols": small_ints | json_values,
    "field": st.fixed_dictionaries(
        {"p": small_ints | json_values, "N": small_ints | json_values},
        optional={"modulus": st.lists(st.integers(0, 2), max_size=4) | json_values},
    ) | json_values,
    "entries": st.lists(st.lists(small_ints, max_size=4) | json_values, max_size=4) | json_values,
})

# Text shaped like an alist file: lines of small integers, or arbitrary text.
alist_text = st.lists(
    st.lists(small_ints, max_size=6).map(lambda xs: " ".join(map(str, xs))), max_size=10,
).map("\n".join) | st.text()


def _loads_or_raises_value_error(reader, data):
    # A field order this small keeps every table an example builds cheap;
    # larger fields take the FieldTooLarge (ValueError) branch.
    with mock.patch.object(gf, "MAX_FIELD_ORDER", 1 << 6):
        try:
            reader(data)
        except ValueError:
            pass


@FUZZ
@given(matrices())
def test_alist_and_json_round_trip(matrix):
    assert from_alist(to_alist(matrix)) == matrix
    data = json.loads(json.dumps(matrix_to_json_dict(matrix)))
    assert matrix_from_json_dict(data) == matrix


@FUZZ
@given(patterns(), st.integers(1, 4), st.data())
def test_tiling_is_its_written_out_stack(pattern, blocks, data):
    height, width, entries, field = pattern
    rows = data.draw(st.integers(0, height + blocks))
    # copy t is the pattern moved down t rows and right t times its width
    stack = {(r + t, t * width + c): e for (r, c), e in entries.items()
             for t in range(blocks) if r + t <= rows}
    tiled = ExponentMatrix(height, width, entries, field)._tiled(blocks, rows)
    assert (tiled.rows, tiled.cols) == (rows, blocks * width)
    assert_matches_stack(tiled, stack)


# Payloads for the CLI's JSON emitter: str keys; empty lists and tuples,
# lists of int lists and of int tuples; big and negative ints, bools and
# None; strings with quotes, backslashes, control characters and non-ASCII
# text.
payload_strings = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€\u2028😀') | st.characters(),
                          max_size=6)
payload_ints = st.integers() | st.integers(-2**80, 2**80)
payload_values = st.recursive(
    st.none() | st.booleans() | payload_ints | payload_strings,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.lists(st.lists(payload_ints, max_size=4), max_size=4)
                  | st.lists(st.lists(payload_ints, max_size=4).map(tuple), max_size=4)
                  | st.dictionaries(payload_strings, kids, max_size=4)),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(payload_strings, payload_values, max_size=5))
def test_json_text_is_json_dumps(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@FUZZ
@given(matrix_json | json_values)
def test_json_reader_loads_or_raises_value_error(data):
    _loads_or_raises_value_error(matrix_from_json_dict, data)


@FUZZ
@given(alist_text)
def test_alist_reader_loads_or_raises_value_error(text):
    _loads_or_raises_value_error(from_alist, text)


@FUZZ
@given(st.fixed_dictionaries({"sets": st.lists(st.lists(small_ints, max_size=4) | json_values,
                                                 max_size=3)}) | json_values)
def test_dts_reader_loads_or_raises_value_error(data):
    _loads_or_raises_value_error(DifferenceTriangleSet.from_json_dict, data)


@FUZZ
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_field_axioms(q, data):
    field = FIELDS[q]
    elements = st.none() | st.integers(0, q - 2)
    a, b, c = (data.draw(elements) for _ in range(3))
    add, mul = field.add, field.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, field.neg(a)) is gf.ZERO
    if a is not gf.ZERO:
        assert mul(a, field.inv(a)) == gf.ONE


# Argv for the CLI's parse: a command with its required options, one of
# its exclusive ones and any others, a valued option given 3 or one of its
# choices, then up to three faults: a token dropped, a token replaced by a
# value, or words put anywhere.  Words are a flag of the command with or
# without a value, cut to a 2-4 letter prefix or as --flag=value, -h,
# --help, -- or a stray word; a value is an integer, negative, empty, a
# word, flag-like or DTS-like.
ARGV_VALUES = ("3", "-3", "", "x", "-x", "2^5", "1,2;1,3")


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[command][2]
    given = {opt for opt in options if opt.required} | draw(st.sets(st.sampled_from(options)))
    exclusive = [opt for opt in options if opt.exclusive]
    if exclusive:
        given.add(draw(st.sampled_from(exclusive)))
    pairs = [[opt.flag] if opt.store_true
             else [opt.flag, str(draw(st.sampled_from((*(opt.choices or ()), "3"))))]
             for opt in options if opt in given]
    argv = [command, *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    flag, value = st.sampled_from([opt.flag for opt in options]), st.sampled_from(ARGV_VALUES)
    words = (st.tuples(flag) | st.tuples(flag, value) | st.tuples(value)
             | st.tuples(flag, st.integers(2, 4)).map(lambda pair: (pair[0][:2 + pair[1]],))
             | st.tuples(flag, value).map(lambda pair: ("=".join(pair),))
             | st.sampled_from([("-h",), ("--help",), ("--",), ("stray",)]))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.integers(0, 2))
        if fault < 2 and len(argv) > 1:
            at = draw(st.integers(1, len(argv) - 1))
            if fault:
                argv[at] = draw(value)
            else:
                del argv[at]
        else:
            at = draw(st.integers(0, len(argv)))  # 0: before the command
            argv[at:at] = draw(words)
    return argv


def _parsed(parse, argv):
    """(namespace or exit code, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(cli_argv())
def test_cli_parse_is_argparse(argv):
    # the direct parse takes only what argparse would parse the same way;
    # help, refusals and odd spellings are argparse's, byte for byte
    parser = cli._build_parser()[0]
    assert _parsed(cli._parse, list(argv)) == _parsed(parser.parse_args, list(argv))
