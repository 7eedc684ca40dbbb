"""Construction of rate (n-1)/n convolutional parity checks from a
difference triangle set.

Given a family T_1..T_{n-1} of size-w sets (relaxed-valid, elements >= 1)
and a field GF(q), the transposed base matrix has scope(T) rows and n
columns: entry (i, k) is alpha^(i*k mod q-1) when i is in T_k, zero
otherwise, and the last column is the unit at row 1.  Row i+1 read as a
1 x n block is the coefficient H_i of the polynomial parity check, so the
memory is mu = scope - 1 and the syndrome former degree is delta = mu.

Sliding matrices stack shifted copies of the coefficient rows; the
truncated variant keeps the first j+1 block rows, the untruncated variant
keeps every row its block columns touch.  Either is a tiling of the base
matrix by ``ExponentMatrix``, the one matrix class: made in constant time
and memory at any horizon, its entries and supports read off the base on
demand.  The last code symbol of each block is the parity; the encoder
is systematic.

Indexing note: matrix rows and columns are 1-based everywhere, matching
the reports.  Entry exponents depend on the 1-based row index, so this is
load-bearing, not cosmetic.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .dts import DifferenceTriangleSet, validate
from .errors import IncompleteBlock, SetCountMismatch, ZeroElementInDTS
from .gf import ZERO, FieldElement, GaloisField, _prime_factors


class Memo(dict):
    """``fn(key)`` for each key, computed on first use and kept."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class ExponentMatrix:
    """Sparse matrix over a field, entries stored as exponents of alpha.

    A matrix is ``blocks`` copies of one pattern, copy t moved down t rows
    and right t times the pattern's width, cut at ``rows``.  The matrix
    ``ExponentMatrix(rows, cols, entries, field)`` is one copy; ``entries``
    maps 1-based (row, col) to the exponent of each nonzero, all checked.
    The pattern is laid out once, in (-row, col) order, and shared by its
    tilings: pattern entry (i, c) lands in row r at column r*width +
    (c - i*width) for r - blocks < i <= r, so row r is a contiguous run of
    the layout shifted and ``items()`` needs no sort.  A column is its
    pattern column moved down, kept once read, since minor sweeps read the
    same columns again and again.  ``entries`` is built on first use only.
    """

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int],
                 field: GaloisField):
        for (r, c), e in entries.items():
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows} x {cols}")
            if not (0 <= e <= field.q - 2):
                raise ValueError(f"exponent {e} out of range for {field!r}")
        pattern = sorted(entries.items(), key=lambda item: (-item[0][0], item[0][1]))
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (i, c), e in reversed(pattern):
            by_col.setdefault(c - 1, []).append((i, e))
        # width; negated row, column offset and exponent of each entry in
        # layout order; the (row, exponent) pairs of each nonempty column
        self._layout = (cols, [-i for (i, _), _ in pattern],
                        [c - i * cols for (i, c), _ in pattern], [e for _, e in pattern], by_col)
        self.field, self._is_tiling = field, False
        self.rows, self.cols, self._blocks = rows, cols, 1

    def _tiled(self, blocks: int, rows: int) -> ExponentMatrix:
        """``blocks`` copies of this one-copy matrix, cut at ``rows``.  A
        tiling shares its pattern's layout, so tiling it again would tile
        the pattern, not the tiling: it is refused, even of one block."""
        if self._is_tiling:
            raise ValueError("only a one-copy matrix can be tiled")
        tiled = object.__new__(ExponentMatrix)
        tiled.field, tiled._layout, tiled._is_tiling = self.field, self._layout, True
        tiled.rows, tiled.cols, tiled._blocks = rows, blocks * self.cols, blocks
        return tiled

    @cached_property
    def _columns(self) -> Memo:
        """The columns read so far, row -> exponent."""
        width, _, _, _, by_col = self._layout
        rows, cols = self.rows, self.cols

        def moved_column(c: int) -> dict[int, int]:
            if not 1 <= c <= cols:
                return {}
            t, k = divmod(c - 1, width)
            return {i + t: e for i, e in by_col.get(k, ()) if i + t <= rows}

        return Memo(moved_column)

    def _run(self, r: int) -> slice:
        """The layout entries that land in row r."""
        if not 1 <= r <= self.rows:
            return slice(0)
        neg_rows = self._layout[1]
        return slice(bisect.bisect_left(neg_rows, -r), bisect.bisect_left(neg_rows, self._blocks - r))

    def get(self, r: int, c: int) -> FieldElement:
        return self._columns[c].get(r)

    @property
    def nonzero_count(self) -> int:
        # pattern row i = -neg is moved into rows i..min(i + blocks - 1, rows)
        return sum(max(0, min(self._blocks, self.rows + 1 + neg)) for neg in self._layout[1])

    @cached_property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(r, c): e for r, c, e in self.items()}

    def row_support(self, r: int) -> tuple[int, ...]:
        width, _, offsets, _, _ = self._layout
        return tuple(map((r * width).__add__, offsets[self._run(r)]))

    def col_support(self, c: int) -> tuple[int, ...]:
        return tuple(self._columns[c])

    def column(self, c: int) -> list[FieldElement]:
        return [self.get(r, c) for r in range(1, self.rows + 1)]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[FieldElement]]:
        columns = [self._columns[c] for c in cols]
        return [[col.get(r) for col in columns] for r in rows]

    def to_dense(self) -> list[list[FieldElement]]:
        return self.submatrix(range(1, self.rows + 1), range(1, self.cols + 1))

    def items(self) -> Iterator[tuple[int, int, int]]:
        """``(row, col, exponent)`` of every nonzero entry, in row-major order."""
        width, neg_rows, offsets, exponents, _ = self._layout
        r = 0  # the last row written; pattern row i fills rows i..i + blocks - 1
        for i in sorted({-neg for neg in neg_rows}):
            for r in range(max(r + 1, i), min(i + self._blocks - 1, self.rows) + 1):
                run = self._run(r)
                yield from zip(itertools.repeat(r), map((r * width).__add__, offsets[run]), exponents[run])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExponentMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
            and self.field == other.field
        )

    def __repr__(self) -> str:
        return f"ExponentMatrix({self.rows}x{self.cols}, {self.nonzero_count} nonzero, {self.field!r})"


def build_base_matrix(dts: DifferenceTriangleSet, field: GaloisField, n: int) -> ExponentMatrix:
    """Transposed base matrix: scope rows, n columns, unit parity column."""
    if dts.num_sets != n - 1:
        raise SetCountMismatch(f"need {n - 1} sets for n = {n}, got {dts.num_sets}")
    if any(s[0] == 0 for s in dts.sets):
        raise ZeroElementInDTS("construction requires all elements >= 1")
    report = validate(dts, "relaxed")
    if not report.valid:
        dups = ", ".join(str(d.value) for d in report.duplicates)
        raise ValueError(f"DTS is not relaxed-valid (duplicated differences: {dups})")
    m = dts.scope
    entries: dict[tuple[int, int], int] = {}
    for k, t_k in enumerate(dts.sets, start=1):
        for i in t_k:
            entries[(i, k)] = field.alpha_pow(i * k)
    entries[(1, n)] = field.alpha_pow(0)
    return ExponentMatrix(m, n, entries, field)


def sliding_entry_origin(n: int, row: int, col: int) -> tuple[int, int]:
    """Base-matrix origin of a sliding-matrix position.

    Returns (base_row, unified_column_index) where the parity column has
    unified index 0 and information column k keeps index k; with that
    convention every nonzero sliding entry equals alpha^(base_row * index).
    """
    block, within = divmod(col - 1, n)
    base_row = row - block
    return base_row, 0 if within == n - 1 else within + 1


@dataclass(frozen=True)
class MinFieldParams:
    """Field-size requirements for a given (n, scope) pair.

    q_2x2 and n_3x3 are the smallest values clearing the 2x2 and 3x3 minor
    bounds; q_case_ii is the (advisory) sharper threshold that the middle
    3x3 case alone would need.  The suggested field honors the extension
    degree bound only when w >= 3, since smaller w never produces the 3x3
    cycle patterns the bound exists for.
    """

    q_2x2: int
    n_3x3: int
    q_case_ii: int
    p: int
    n: int

    @property
    def q(self) -> int:
        return self.p**self.n


def min_field_params(n: int, scope: int, w: int) -> MinFieldParams:
    if n < 2 or scope < 1 or w < 1:
        raise ValueError("need n >= 2, scope >= 1, w >= 1")
    delta = scope - 1
    q_2x2 = (n - 1) * delta + 2
    n_3x3 = max(1, (delta - 1) * (n - 2) + 1)
    q_case_ii = max(2, 2 * (n - 3) + 2 * (delta - 2) * (n - 2) + 2)
    min_deg = n_3x3 if w >= 3 else 1
    q = max(3, q_2x2)
    # the smallest p**e >= q with e >= min_deg: for each e the least prime
    # p with p**e >= q; an e past the first with 2**e >= q cannot win
    candidates = []
    for e in range(min_deg, max(min_deg, (q - 1).bit_length()) + 1):
        p = _ceil_root(q, e)
        while _prime_factors(p) != [p]:
            p += 1
        candidates.append((p**e, p, e))
    _, p, e = min(candidates)
    return MinFieldParams(q_2x2=q_2x2, n_3x3=n_3x3, q_case_ii=q_case_ii, p=p, n=e)


def _ceil_root(x: int, e: int) -> int:
    """The least r with r**e >= x, for x >= 1."""
    low, high = 1, 1 << -(-x.bit_length() // e)
    while low < high:
        mid = (low + high) // 2
        if mid**e >= x:
            high = mid
        else:
            low = mid + 1
    return low


def density(n: int, w: int, mu: int, message_length: int) -> Fraction:
    """Fraction of nonzero entries in the untruncated parity-check matrix."""
    if n < 2 or w < 1 or mu < 0:
        raise ValueError("need n >= 2, w >= 1, mu >= 0")
    if message_length <= 0 or message_length % n:
        raise IncompleteBlock(f"message length {message_length} is not a multiple of n = {n}")
    return Fraction(w * (n - 1) + 1, mu * n + message_length)


class CodeSpec:
    """A constructed code: DTS, field and block length n bundled together."""

    def __init__(self, dts: DifferenceTriangleSet, field: GaloisField, n: int):
        self.base = build_base_matrix(dts, field, n)
        self.dts = dts
        self.field = field
        self.n = n
        self.w = dts.set_size
        self.scope = dts.scope
        self.mu = self.scope - 1
        self.delta = self.scope - 1

    def sliding_matrix(self, j: int) -> ExponentMatrix:
        """Truncated sliding matrix: j+1 rows, n(j+1) columns."""
        if j < 0:
            raise ValueError("horizon j must be >= 0")
        return self.base._tiled(j + 1, j + 1)

    def full_sliding_matrix(self, num_blocks: int) -> ExponentMatrix:
        """Untruncated sliding matrix: every block column is complete."""
        if num_blocks < 1:
            raise ValueError("need at least one block column")
        return self.base._tiled(num_blocks, num_blocks + self.mu)

    def encode(self, message: Sequence[Sequence[FieldElement]]) -> list[tuple[FieldElement, ...]]:
        """Systematic encoding: each output block is (u_t, p_t).

        The parity of block t cancels the weighted sum of the current and
        the mu previous information blocks, so the codeword extends mu
        blocks past the message.
        """
        info = [self._check_block(b) for b in message]
        if not info:
            return []
        pad = (ZERO,) * (self.n - 1)
        return [(info[t] if t < len(info) else pad) + (self.field.neg(acc),)
                for t, acc in enumerate(self._convolve(info))]

    def syndrome(self, word: Sequence[Sequence[FieldElement]]) -> list[FieldElement]:
        """Full sliding product; all-zero exactly when the word is a codeword."""
        blocks = [tuple(b) for b in word]
        for b in blocks:
            if len(b) != self.n:
                raise ValueError(f"code blocks have {self.n} symbols, got {len(b)}")
        return self._convolve(blocks)

    def _convolve(self, blocks: Sequence[Sequence[FieldElement]]) -> list[FieldElement]:
        """Block convolution sum_i H_i . blocks[t-i] for t < len(blocks) + mu.

        Blocks shorter than n meet only the leading coefficients of each
        H_i, so information blocks skip the parity column.
        """
        f = self.field
        coeff = self.base.to_dense()  # row i + 1 is H_i
        out = []
        for t in range(len(blocks) + self.mu):
            acc: FieldElement = ZERO
            for i in range(max(0, t - len(blocks) + 1), min(t, self.mu) + 1):
                for h, v in zip(coeff[i], blocks[t - i]):
                    acc = f.add(acc, f.mul(h, v))
            out.append(acc)
        return out

    def _check_block(self, block: Iterable[FieldElement]) -> tuple[FieldElement, ...]:
        b = tuple(block)
        if len(b) != self.n - 1:
            raise ValueError(f"information blocks have {self.n - 1} symbols, got {len(b)}")
        return b

    def __repr__(self) -> str:
        return f"CodeSpec(n={self.n}, w={self.w}, mu={self.mu}, {self.field!r})"
