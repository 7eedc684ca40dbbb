"""A matrix's entries on some rows and columns, for the tests that read
minors off a matrix: the package itself reads entries off the marks."""


def submatrix(matrix, rows, cols):
    """The entries of ``matrix`` on ``rows`` and ``cols``, row by row."""
    return [[matrix.get(r, c) for c in cols] for r in rows]
