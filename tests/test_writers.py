"""The run-at-a-time writers against the per-entry writers they replace.

``oracle_alist``, ``oracle_json`` and ``oracle_pretty`` are the former
``to_alist``, ``matrix_to_json_dict`` text and ``render_pretty``: one
pass over the entries, one Python step per entry (per cell for the grid).
They read a ``WrittenOut`` matrix, whose entries are a written-out dict,
so neither the row runs nor ``items()`` of ``ExponentMatrix`` feed them.
"""

import json
import random
from typing import NamedTuple

import pytest

from dts_ldpc.cli import main
from dts_ldpc.code import ExponentMatrix
from dts_ldpc.formats import JSON_SCHEMA, matrix_to_json_dict, render_pretty, to_alist, to_json
from dts_ldpc.gf import GaloisField
from test_code import oracle_stack, seeded_tilings

ZEROS = ("0", ".", "zero")


class WrittenOut(NamedTuple):
    """A matrix as its shape, field and ``(row, col) -> exponent`` dict."""

    rows: int
    cols: int
    field: GaloisField
    entries: dict

    def items(self):
        return iter(sorted((r, c, e) for (r, c), e in self.entries.items()))


def oracle_alist(matrix) -> str:
    # one pass in row-major order: each column's pairs come out by row
    col_pairs = [[] for _ in range(matrix.cols)]
    row_pairs = [[] for _ in range(matrix.rows)]
    for r, c, e in matrix.items():
        value = e + 1
        col_pairs[c - 1].append(f"{r} {value}")
        row_pairs[r - 1].append(f"{c} {value}")
    col_weights = [len(s) for s in col_pairs]
    row_weights = [len(s) for s in row_pairs]
    lines = [
        f"{matrix.cols} {matrix.rows} {matrix.field.q}",
        f"{max(col_weights, default=0)} {max(row_weights, default=0)}",
        " ".join(map(str, col_weights)),
        " ".join(map(str, row_weights)),
        *map(" ".join, col_pairs),
        *map(" ".join, row_pairs),
    ]
    return "\n".join(lines) + "\n"


def oracle_json(matrix) -> str:
    return json.dumps({
        "schema": JSON_SCHEMA,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "field": matrix.field.descriptor(),
        "entries": [[r, c, e] for (r, c, e) in matrix.items()],
    }, indent=2, sort_keys=True)


def _token(e):
    return "1" if e == 0 else "a" if e == 1 else f"a^{e}"


def oracle_pretty(matrix, zero="0") -> str:
    if not matrix.rows or not matrix.cols:
        return ""
    cells = [(r, c, _token(e)) for r, c, e in matrix.items()]
    # a column is as wide as its widest token, the zero token counting only
    # when the column has a zero cell
    widths, filled = [0] * matrix.cols, [0] * matrix.cols
    for _, c, tok in cells:
        widths[c - 1] = max(widths[c - 1], len(tok))
        filled[c - 1] += 1
    widths = [w if n == matrix.rows else max(w, len(zero)) for w, n in zip(widths, filled)]
    blank = [zero.rjust(w) for w in widths]
    grid = [blank.copy() for _ in range(matrix.rows)]
    for r, c, tok in cells:
        grid[r - 1][c - 1] = tok.rjust(widths[c - 1])
    return "\n".join(" ".join(row).rstrip() for row in grid)


def assert_writers_match(matrix, written, pretty=True):
    assert to_alist(matrix) == oracle_alist(written)
    assert to_json(matrix) == oracle_json(written)
    if pretty:
        for zero in ZEROS:
            assert render_pretty(matrix, zero=zero) == oracle_pretty(written, zero=zero)


def assert_runs_cover(matrix, entries):
    """The row runs and the copy ranges, written out, give every row and
    column of ``entries``, and no two neighbouring runs could merge."""
    by_row, by_col = {}, {}
    runs = list(matrix.row_runs())
    for first, last, offsets, exponents in runs:
        assert first <= last
        for r in range(first, last + 1):
            by_row[r] = [(r * matrix.width + o, e) for o, e in zip(offsets, exponents)]
    for (_, last, *run_a), (first, _, *run_b) in zip(runs, runs[1:]):
        assert last + 1 == first and run_a != run_b
    assert sorted(by_row) == list(range(1, matrix.rows + 1))
    copies = list(matrix.block_runs())
    for first, last, columns in copies:
        assert first <= last and len(columns) == matrix.width
        for t in range(first, last + 1):
            for k, col in enumerate(columns):
                by_col[t * matrix.width + k + 1] = [(i + t, e) for i, e in col]
    for (_, last, cols_a), (first, _, cols_b) in zip(copies, copies[1:]):
        assert last + 1 == first and cols_a != cols_b
    assert sorted(by_col) == list(range(1, matrix.cols + 1))
    assert by_row == {r: sorted((c, e) for (i, c), e in entries.items() if i == r)
                      for r in range(1, matrix.rows + 1)}
    assert by_col == {c: sorted((r, e) for (r, j), e in entries.items() if j == c)
                      for c in range(1, matrix.cols + 1)}


def test_writers_match_the_oracles_on_seeded_tilings():
    for view, _, entries in seeded_tilings():
        written = WrittenOut(view.rows, view.cols, view.field, entries)
        assert_runs_cover(view, entries)
        assert_writers_match(view, written)


@pytest.mark.parametrize("j", [0, 1, "mu", 1000, None])
def test_writers_match_the_oracles_on_codes_a_and_b(ref_spec_a, ref_spec_b, j):
    for spec in (ref_spec_a, ref_spec_b):
        if j is None:
            matrix = spec.base
            written = WrittenOut(matrix.rows, matrix.cols, spec.field, oracle_stack(spec, 1, spec.scope))
        else:
            j = spec.mu if j == "mu" else j
            matrix = spec.sliding_matrix(j)
            written = WrittenOut(j + 1, spec.n * (j + 1), spec.field, oracle_stack(spec, j + 1, j + 1))
        assert_writers_match(matrix, written, pretty=j != 1000)
    if j == 1000:  # one grid of 3 million cells is enough
        assert render_pretty(matrix, zero=".") == oracle_pretty(written, zero=".")


def test_writers_match_the_oracles_on_seeded_one_copy_matrices():
    fields = [GaloisField(p, e) for p, e in ((2, 2), (3, 1), (2, 5), (7, 2))]
    rng = random.Random(28)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1), (1, 5), (2, 4), (3, 3)]
    shapes += [(rng.randint(0, 7), rng.randint(0, 7)) for _ in range(60)]
    for trial, (rows, cols) in enumerate(shapes):
        field = fields[trial % len(fields)]
        cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
        # no entries, a few, or most cells filled
        count = rng.choice([0, min(len(cells), 2), rng.randint(0, len(cells))])
        entries = {cell: rng.randrange(field.q - 1) for cell in rng.sample(cells, count)}
        matrix = ExponentMatrix(rows, cols, entries, field)
        assert_runs_cover(matrix, entries)
        assert_writers_match(matrix, WrittenOut(rows, cols, field, entries))


def test_json_of_a_huge_shape_walks_only_its_entries(gf32):
    entries = {(1, 1): 5, (10**12, 10**12): 0}
    huge = ExponentMatrix(10**12, 10**12, entries, gf32)
    assert len(list(huge.row_runs())) == 3
    assert to_json(huge) == oracle_json(WrittenOut(10**12, 10**12, gf32, entries))


def test_pretty_zero_wider_than_every_entry_on_short_matrices(gf32):
    # each column with an entry is full, so the zero token does not widen it
    one_row = ExponentMatrix(1, 3, {(1, 1): 1, (1, 3): 0}, gf32)
    assert render_pretty(one_row, zero="zero") == "a zero 1"
    two_rows = ExponentMatrix(2, 3, {(1, 1): 1, (2, 1): 5, (2, 3): 0}, gf32)
    assert render_pretty(two_rows, zero="zero") == "  a zero zero\na^5 zero    1"


@pytest.mark.parametrize("zero, message", [
    ("", "zero token must not be empty, got ''"),
    (" ", "zero token must not hold whitespace, got ' '"),
    ("a b", "zero token must not hold whitespace, got 'a b'"),
    ("0\t", "zero token must not hold whitespace, got '0\\t'"),
    ("1", "zero token must not read as an entry (1, a or a^k), got '1'"),
    ("a", "zero token must not read as an entry (1, a or a^k), got 'a'"),
    ("a^7", "zero token must not read as an entry (1, a or a^k), got 'a^7'"),
])
def test_pretty_refuses_a_zero_token_that_garbles_the_grid(gf32, zero, message):
    with pytest.raises(ValueError) as refused:
        render_pretty(ExponentMatrix(2, 2, {(1, 1): 5}, gf32), zero=zero)
    assert str(refused.value) == message


def test_writers_work_per_run_not_per_row(ref_spec_a):
    # the writers' Python steps grow with the row runs and copy ranges, which
    # stay fixed as the horizon grows
    counts = set()
    for j in (100, 1000, 10**9):
        matrix = ref_spec_a.sliding_matrix(j)
        counts.add((len(list(matrix.row_runs())), len(list(matrix.block_runs()))))
    assert len(counts) == 1
    (rows, copies), = counts
    assert rows <= 2 * ref_spec_a.scope + 1 and copies <= 2 * ref_spec_a.scope + 1


def test_cli_construct_json_is_the_json_of_the_dict(capsys, ref_spec_a):
    for j in (None, 0, 7, 300):
        horizon = () if j is None else ("--j", str(j))
        assert main(["construct", "--dts", "1,2,6;1,2,4", "--n", "3", "--field", "2^5",
                     *horizon, "--out", "json"]) == 0
        matrix = ref_spec_a.base if j is None else ref_spec_a.sliding_matrix(j)
        out = capsys.readouterr().out
        assert out == json.dumps(matrix_to_json_dict(matrix), indent=2, sort_keys=True) + "\n"
