"""Serialization of exponent matrices: JSON, alist, and a text grid.

The alist variant is the usual sparse parity-check layout extended for
non-binary entries: every index is paired with a value, where value v
encodes the nonzero element alpha^(v-1).  Value 0 stays reserved for
"no entry" as in the binary format.  The alist header carries only q, so
re-importing builds the canonical field of that order; JSON embeds the
full field descriptor and round-trips the matrix exactly.

The writers work one row run (``ExponentMatrix.row_runs``) or one range
of copies (``ExponentMatrix.block_runs``) at a time, never one entry at
a time: the rows of a run differ only in their row and column numbers,
so each run's lines are one ``%``-template filled from one ``range`` per
number it holds.  Their work in Python grows with the number of runs,
which a sliding matrix keeps fixed at every horizon, not with its size.
"""

from __future__ import annotations

import itertools
import json
from typing import Iterable, Iterator, Optional

from . import gf
from .code import ExponentMatrix
from .errors import FieldTooLarge, parse_digits
from .gf import GaloisField, _factor_prime_power, make_field

JSON_SCHEMA = "exponent-matrix/v1"
# one [row, col, exponent] entry of the JSON text, its exponent filled in
_JSON_ENTRY = "    [\n      %%d,\n      %%d,\n      %d\n    ]"


def _strided(first: int, last: int, step: int, starts: Iterable[int]) -> list[range]:
    """For each s of ``starts``, the numbers first * step + s, ..., last * step + s:
    one number of each row (step = width) or copy (step = 1) of a run."""
    return [range(first * step + s, (last + 1) * step + s, step) for s in starts]


def _fill(template: str, ranges: list[range], count: int) -> Iterator[str]:
    """``template`` filled from ``ranges`` in step, one field each, or
    ``template`` ``count`` times when it has no field."""
    return map(template.__mod__, zip(*ranges)) if ranges else itertools.repeat(template, count)


def _joined(parts: Iterable[Iterable[str]]) -> str:
    return " ".join(itertools.chain.from_iterable(parts))


def _header(matrix: ExponentMatrix) -> dict:
    return {"schema": JSON_SCHEMA, "rows": matrix.rows, "cols": matrix.cols,
            "field": matrix.field.descriptor()}


def matrix_to_json_dict(matrix: ExponentMatrix) -> dict:
    return {**_header(matrix), "entries": [[r, c, e] for (r, c, e) in matrix.items()]}


def to_json(matrix: ExponentMatrix) -> str:
    """The text of ``json.dumps(matrix_to_json_dict(matrix), indent=2,
    sort_keys=True)``, built without the dict."""
    runs = []
    for first, last, offsets, exponents in matrix.row_runs():
        rows = range(first, last + 1)
        columns = _strided(first, last, matrix.width, offsets)
        template = ",\n".join(_JSON_ENTRY % e for e in exponents)
        # a row without entries writes nothing
        runs.append(_fill(template, [n for col in columns for n in (rows, col)], 0))
    body = ",\n".join(itertools.chain.from_iterable(runs))
    text = json.dumps({**_header(matrix), "entries": []}, indent=2, sort_keys=True)
    return text.replace('"entries": []', f'"entries": [\n{body}\n  ]', 1) if body else text


def matrix_from_json_dict(data: dict) -> ExponentMatrix:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with schema {JSON_SCHEMA!r}")
    if data.get("schema") != JSON_SCHEMA:
        raise ValueError(f"expected schema {JSON_SCHEMA!r}, got {data.get('schema')!r}")
    rows, cols, items = data.get("rows"), data.get("cols"), data.get("entries")
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ValueError('"rows" and "cols" must be nonnegative integers')
    if not isinstance(items, list) or not all(
        isinstance(t, list) and len(t) == 3 and all(type(x) is int for x in t) for t in items
    ):
        raise ValueError('"entries" must be a list of integer [row, col, exponent] triples')
    field = GaloisField.from_descriptor(data.get("field"))
    entries = {(r, c): e for r, c, e in items}
    if len(entries) != len(items):
        raise ValueError('a (row, col) position appears twice in "entries"')
    return ExponentMatrix(rows, cols, entries, field)


def to_alist(matrix: ExponentMatrix) -> str:
    copies, rows = list(matrix.block_runs()), list(matrix.row_runs())
    col_weights, col_lines, row_weights, row_lines = [], [], [], []
    for first, last, columns in copies:
        count = last - first + 1
        col_weights.append(itertools.repeat(" ".join(str(len(col)) for col in columns), count))
        # one template per copy: its width column lines
        template = "\n".join(" ".join(f"%d {e + 1}" for _, e in col) for col in columns)
        starts = [i for col in columns for i, _ in col]
        col_lines.append(_fill(template, _strided(first, last, 1, starts), count))
    for first, last, offsets, exponents in rows:
        count = last - first + 1
        row_weights.append(itertools.repeat(str(len(offsets)), count))
        template = " ".join(f"%d {e + 1}" for e in exponents)
        row_lines.append(_fill(template, _strided(first, last, matrix.width, offsets), count))
    lines = itertools.chain(
        (f"{matrix.cols} {matrix.rows} {matrix.field.q}",
         f"{max((len(col) for *_, columns in copies for col in columns), default=0)} "
         f"{max((len(offsets) for _, _, offsets, _ in rows), default=0)}",
         _joined(col_weights), _joined(row_weights)),
        *col_lines, *row_lines)
    return "\n".join(lines) + "\n"


def _read_section(lines: list[str], weights: list[int], what: str) -> dict[tuple[int, int], int]:
    """(line number, index) -> exponent for the column or the row section."""
    entries: dict[tuple[int, int], int] = {}
    for i, (line, weight) in enumerate(zip(lines, weights), start=1):
        parts = [parse_digits(x) for x in line.split()]
        if len(parts) != 2 * weight:
            raise ValueError(f"{what} {i}: expected {weight} index/value pairs")
        for j, v in zip(parts[::2], parts[1::2]):
            if v == 0:
                raise ValueError("value 0 is reserved for absent entries")
            if (i, j) in entries:
                raise ValueError(f"{what} {i}: index {j} appears twice")
            entries[(i, j)] = v - 1
    return entries


def from_alist(text: str) -> ExponentMatrix:
    lines = text.splitlines()
    if len(lines) < 4:
        raise ValueError("alist input truncated")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("alist header must be 'cols rows q'")
    cols, rows, q = map(parse_digits, head)
    # the size goes first: factoring q takes time growing as sqrt(q)
    if q > gf.MAX_FIELD_ORDER:
        raise FieldTooLarge(f"alist field order {q} exceeds {gf.MAX_FIELD_ORDER}")
    factored = _factor_prime_power(q)
    if factored is None:
        raise ValueError(f"alist field order {q} is not a prime power")
    field = make_field(*factored)
    col_weights = [parse_digits(x) for x in lines[2].split()]
    if len(col_weights) != cols:
        raise ValueError(f"expected {cols} column weights, got {len(col_weights)}")
    row_weights = [parse_digits(x) for x in lines[3].split()]
    if len(row_weights) != rows:
        raise ValueError(f"expected {rows} row weights, got {len(row_weights)}")
    maxima = [max(col_weights, default=0), max(row_weights, default=0)]
    if [parse_digits(x) for x in lines[1].split()] != maxima:
        raise ValueError("maximum-weight line disagrees with the weight lines")
    if len(lines) < 4 + cols + rows:
        raise ValueError(f"alist input truncated before {cols} column and {rows} row lines")
    if any(line.strip() for line in lines[4 + cols + rows:]):
        raise ValueError(f"alist input continues after its {rows} row lines")
    by_cols = _read_section(lines[4:4 + cols], col_weights, "column")
    entries = {(r, c): e for (c, r), e in by_cols.items()}
    if _read_section(lines[4 + cols:4 + cols + rows], row_weights, "row") != entries:
        raise ValueError("row section disagrees with the column section")
    return ExponentMatrix(rows, cols, entries, field)


def _token(e: int) -> str:
    if e == 0:
        return "1"
    if e == 1:
        return "a"
    return f"a^{e}"


def _zero_refusal(zero: str) -> Optional[str]:
    """Why ``zero`` cannot stand for the zero cells of a text grid, or
    ``None``: the grid would not split into columns, or a zero would read
    as an entry."""
    if not zero:
        return "must not be empty"
    if zero.split() != [zero]:
        return "must not hold whitespace"
    if zero in ("1", "a") or zero.startswith("a^") and zero[2:].isdigit():
        return "must not read as an entry (1, a or a^k)"
    return None


def render_pretty(matrix: ExponentMatrix, zero: str = "0") -> str:
    """Text grid of alpha-power tokens, columns right-aligned.

    A column is as wide as its widest token, the zero token counting only
    when the column has a zero cell; the copies of one block range share
    their widths.  Each row is cut from the all-zero row around the span
    of its entries, whose text is kept per row run and widths.
    """
    reason = _zero_refusal(zero)
    if reason:
        raise ValueError(f"zero token {reason}, got {zero!r}")
    if not matrix.rows or not matrix.cols:
        return ""
    widths, zero_blocks = [], []
    for first, last, columns in matrix.block_runs():
        block = [max([len(_token(e)) for _, e in col] + [len(zero)] * (len(col) < matrix.rows))
                 for col in columns]
        widths += block * (last - first + 1)
        # a full column shows no zero, but its cell keeps the column's width
        zero_blocks.append(itertools.repeat(" ".join(zero.rjust(w)[:w] for w in block),
                                            last - first + 1))
    zero_row = _joined(zero_blocks)
    edges = list(itertools.accumulate(map((1).__add__, widths), initial=0))
    lines = []
    for first, last, offsets, exponents in matrix.row_runs():
        if not offsets:
            lines += [zero_row] * (last - first + 1)
            continue
        span = offsets[-1] - offsets[0] + 1
        cells = [(o - offsets[0], _token(e)) for o, e in zip(offsets, exponents)]
        middles: dict[tuple[int, ...], str] = {}
        starts, = _strided(first, last, matrix.width, [offsets[0] - 1])  # 0-based
        for c in starts:
            key = tuple(widths[c:c + span])
            middle = middles.get(key)
            if middle is None:
                grid = [zero.rjust(w) for w in key]
                for k, tok in cells:
                    grid[k] = tok.rjust(key[k])
                middle = middles[key] = " ".join(grid)
            lines.append(zero_row[:edges[c]] + middle + zero_row[edges[c + span] - 1:])
    return "\n".join(lines)
