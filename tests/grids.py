"""A matrix read by position, for the tests that check the package against
its matrices: the entries are read once off ``items()``, while the package
itself reads entries off the marks."""

from dts_ldpc.gf import ZERO


class Grid:
    """The entries of ``matrix`` by position: ``at(r, c)`` is the exponent
    at (r, c), ZERO where there is none, and ``row(r)`` and ``col(c)`` are
    the sorted columns of row r and rows of column c, empty off the matrix."""

    def __init__(self, matrix):
        self.rows, self.cols = matrix.rows, matrix.cols
        self.entries, by_row, by_col = {}, {}, {}
        for r, c, e in matrix.items():  # row-major, so both supports come out sorted
            self.entries[r, c] = e
            by_row.setdefault(r, []).append(c)
            by_col.setdefault(c, []).append(r)
        self._rows = {r: tuple(cols) for r, cols in by_row.items()}
        self._cols = {c: tuple(rows) for c, rows in by_col.items()}

    def at(self, r, c):
        return self.entries.get((r, c), ZERO)

    def row(self, r):
        return self._rows.get(r, ())

    def col(self, c):
        return self._cols.get(c, ())


def submatrix(grid, rows, cols):
    """The entries of ``grid`` on ``rows`` and ``cols``, row by row."""
    return [[grid.at(r, c) for c in cols] for r in rows]
