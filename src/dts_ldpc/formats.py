"""Serialization of exponent matrices: JSON, alist, and a text grid.

The alist variant is the usual sparse parity-check layout extended for
non-binary entries: every index is paired with a value, where value v
encodes the nonzero element alpha^(v-1).  Value 0 stays reserved for
"no entry" as in the binary format.  The alist header carries only q, so
re-importing builds the canonical field of that order; JSON embeds the
full field descriptor and round-trips the matrix exactly.
"""

from __future__ import annotations

from . import gf
from .code import ExponentMatrix
from .errors import FieldTooLarge, parse_digits
from .gf import GaloisField, _factor_prime_power, make_field

JSON_SCHEMA = "exponent-matrix/v1"


def matrix_to_json_dict(matrix: ExponentMatrix) -> dict:
    return {
        "schema": JSON_SCHEMA,
        "rows": matrix.rows,
        "cols": matrix.cols,
        "field": matrix.field.descriptor(),
        "entries": [[r, c, e] for (r, c, e) in matrix.items()],
    }


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
    # one pass in row-major order: each column's pairs come out by row
    col_pairs: list[list[str]] = [[] for _ in range(matrix.cols)]
    row_pairs: list[list[str]] = [[] for _ in range(matrix.rows)]
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


def render_pretty(matrix: ExponentMatrix, zero: str = "0") -> str:
    """Text grid of alpha-power tokens, columns right-aligned."""
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
