"""Serialization of exponent matrices: JSON, alist, and a text grid.

The alist variant is the usual sparse parity-check layout extended for
non-binary entries: every index is paired with a value, where value v
encodes the nonzero element alpha^(v-1).  Value 0 stays reserved for
"no entry" as in the binary format.  The alist header carries only q, so
re-importing builds the canonical field of that order; JSON embeds the
full field descriptor and round-trips the matrix exactly.
"""

from __future__ import annotations

from .code import ExponentMatrix
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
    if data.get("schema") != JSON_SCHEMA:
        raise ValueError(f"expected schema {JSON_SCHEMA!r}, got {data.get('schema')!r}")
    field = GaloisField.from_descriptor(data["field"])
    entries = {(r, c): e for r, c, e in data["entries"]}
    return ExponentMatrix(data["rows"], data["cols"], entries, field)


def to_alist(matrix: ExponentMatrix) -> str:
    cols_sup = [matrix.col_support(c) for c in range(1, matrix.cols + 1)]
    rows_sup = [matrix.row_support(r) for r in range(1, matrix.rows + 1)]
    lines = [
        f"{matrix.cols} {matrix.rows} {matrix.field.q}",
        f"{max((len(s) for s in cols_sup), default=0)} "
        f"{max((len(s) for s in rows_sup), default=0)}",
        " ".join(str(len(s)) for s in cols_sup),
        " ".join(str(len(s)) for s in rows_sup),
    ]
    for c, sup in enumerate(cols_sup, start=1):
        lines.append(" ".join(f"{r} {matrix.get(r, c) + 1}" for r in sup))
    for r, sup in enumerate(rows_sup, start=1):
        lines.append(" ".join(f"{c} {matrix.get(r, c) + 1}" for c in sup))
    return "\n".join(lines) + "\n"


def _read_section(lines: list[str], weights: list[int], what: str) -> dict[tuple[int, int], int]:
    """(line number, index) -> exponent for the column or the row section."""
    entries: dict[tuple[int, int], int] = {}
    for i, (line, weight) in enumerate(zip(lines, weights), start=1):
        parts = [int(x) for x in line.split()]
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
    cols, rows, q = (int(x) for x in head)
    factored = _factor_prime_power(q)
    if factored is None:
        raise ValueError(f"alist field order {q} is not a prime power")
    field = make_field(*factored)
    col_weights = [int(x) for x in lines[2].split()]
    if len(col_weights) != cols:
        raise ValueError(f"expected {cols} column weights, got {len(col_weights)}")
    row_weights = [int(x) for x in lines[3].split()]
    if len(row_weights) != rows:
        raise ValueError(f"expected {rows} row weights, got {len(row_weights)}")
    maxima = [max(col_weights, default=0), max(row_weights, default=0)]
    if [int(x) for x in lines[1].split()] != maxima:
        raise ValueError("maximum-weight line disagrees with the weight lines")
    if len(lines) < 4 + cols + rows:
        raise ValueError(f"alist input truncated before {cols} column and {rows} row lines")
    by_cols = _read_section(lines[4:4 + cols], col_weights, "column")
    entries = {(r, c): e for (c, r), e in by_cols.items()}
    if _read_section(lines[4 + cols:4 + cols + rows], row_weights, "row") != entries:
        raise ValueError("row section disagrees with the column section")
    return ExponentMatrix(rows, cols, entries, field)


def _token(e) -> str:
    if e is None:
        return ""
    if e == 0:
        return "1"
    if e == 1:
        return "a"
    return f"a^{e}"


def render_pretty(matrix: ExponentMatrix, zero: str = "0") -> str:
    """Text grid of alpha-power tokens, columns right-aligned."""
    grid = [[_token(matrix.get(r, c)) or zero for c in range(1, matrix.cols + 1)]
            for r in range(1, matrix.rows + 1)]
    if not grid or not grid[0]:
        return ""
    widths = [max(len(row[c]) for row in grid) for c in range(matrix.cols)]
    return "\n".join(
        " ".join(tok.rjust(w) for tok, w in zip(row, widths)).rstrip()
        for row in grid
    )
