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
keeps every row its block columns touch.  Either is a view of the base
matrix (``SlidingMatrix``): the base is laid out once per code, after
which a view of any horizon is made in constant time and memory, entries
and supports are read off the base on demand, and the entry dict is built
only when asked for.  The last code symbol of each block is the parity;
the encoder is systematic.

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

    ``entries`` maps 1-based (row, col) to the exponent of the nonzero
    entry; absent positions are zero.
    """

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int],
                 field: GaloisField):
        for (r, c), e in entries.items():
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows} x {cols}")
            if not (0 <= e <= field.q - 2):
                raise ValueError(f"exponent {e} out of range for {field!r}")
        self.rows = rows
        self.cols = cols
        self.entries = dict(entries)
        self.field = field

    def get(self, r: int, c: int) -> FieldElement:
        return self.entries.get((r, c))

    @property
    def nonzero_count(self) -> int:
        return len(self.entries)

    @cached_property
    def _supports(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """Sorted supports of every nonempty row and column, built on first use."""
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for r, c in sorted(self.entries):
            rows.setdefault(r, []).append(c)
            cols.setdefault(c, []).append(r)
        return ({r: tuple(s) for r, s in rows.items()},
                {c: tuple(s) for c, s in cols.items()})

    def row_support(self, r: int) -> tuple[int, ...]:
        return self._supports[0].get(r, ())

    def col_support(self, c: int) -> tuple[int, ...]:
        return self._supports[1].get(c, ())

    def column(self, c: int) -> list[FieldElement]:
        return [self.get(r, c) for r in range(1, self.rows + 1)]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[FieldElement]]:
        return [[self.get(r, c) for c in cols] for r in rows]

    def to_dense(self) -> list[list[FieldElement]]:
        return self.submatrix(range(1, self.rows + 1), range(1, self.cols + 1))

    def items(self) -> Iterable[tuple[int, int, int]]:
        """``(row, col, exponent)`` of every nonzero entry, in row-major order."""
        return sorted((r, c, e) for (r, c), e in self.entries.items())

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


class _Tiling:
    """A base matrix laid out for the sliding matrices built on it.

    Base entry (i, c) lands in row r of a sliding matrix at column
    r*n + (c - i*n), for the base rows r - num_blocks < i <= r.  Ordered by
    descending i, then by c, the entries of row r are a contiguous run in
    column order.  ``by_index`` lists the (row, exponent) pairs of each base
    column by its unified index, the parity column as 0.
    """

    def __init__(self, base: ExponentMatrix):
        self.field = base.field
        self.n = n = base.cols
        pattern = sorted(base.entries.items(), key=lambda item: (-item[0][0], item[0][1]))
        self.neg_rows = [-i for (i, _), _ in pattern]
        self.offsets = [c - i * n for (i, c), _ in pattern]
        self.exponents = [e for _, e in pattern]
        self.by_index: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for (i, c), e in reversed(pattern):
            self.by_index[c % n].append((i, e))


class SlidingMatrix(ExponentMatrix):
    """A sliding matrix as a view of its base matrix.

    Block column t (columns tn+1..tn+n) holds the base matrix moved down t
    rows and cut at ``rows``.  Only the base is kept, laid out once per
    code, so a view is made in O(1) at any horizon and checks no entry
    again.  A column is its base column shifted by ``sliding_entry_origin``,
    kept once read, since minor sweeps read the same columns again and
    again; a row is a run of base entries shifted, and ``items()`` runs in
    row-major order with no sort.  ``entries`` is built on first use only.
    """

    def __init__(self, tiling: _Tiling, num_blocks: int, rows: int):
        self.rows = rows
        self.cols = cols = num_blocks * tiling.n
        self.field = tiling.field
        self._tiling = tiling
        self._blocks = num_blocks
        n, by_index, neg_rows, offsets = tiling.n, tiling.by_index, tiling.neg_rows, tiling.offsets

        def shifted_column(c: int) -> dict[int, int]:
            # the base column moved down to where row 1 has its origin
            if not 1 <= c <= cols:
                return {}
            top, index = sliding_entry_origin(n, 1, c)
            return {i + 1 - top: e for i, e in by_index[index] if i + 1 - top <= rows}

        def run(r: int) -> slice:
            # the base entries that land in row r
            if not 1 <= r <= rows:
                return slice(0)
            return slice(bisect.bisect_left(neg_rows, -r), bisect.bisect_left(neg_rows, num_blocks - r))

        # the columns (row -> exponent) and row supports read so far
        self._columns = Memo(shifted_column)
        self._rows = Memo(lambda r: tuple(map((r * n).__add__, offsets[run(r)])))
        self._run = run

    def get(self, r: int, c: int) -> FieldElement:
        return self._columns[c].get(r)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[FieldElement]]:
        columns = [self._columns[c] for c in cols]
        return [[col.get(r) for col in columns] for r in rows]

    @property
    def nonzero_count(self) -> int:
        # base row i = -neg is shifted into rows i..min(i + blocks - 1, rows)
        return sum(max(0, min(self._blocks, self.rows + 1 + neg)) for neg in self._tiling.neg_rows)

    @cached_property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(r, c): e for r, c, e in self.items()}

    def row_support(self, r: int) -> tuple[int, ...]:
        return self._rows[r]

    def col_support(self, c: int) -> tuple[int, ...]:
        return tuple(self._columns[c])

    def items(self) -> Iterator[tuple[int, int, int]]:
        n, offsets, exponents = self._tiling.n, self._tiling.offsets, self._tiling.exponents
        for r in range(1, self.rows + 1):
            run = self._run(r)
            yield from zip(itertools.repeat(r), map((r * n).__add__, offsets[run]), exponents[run])


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
        self._tiling = _Tiling(self.base)

    def sliding_matrix(self, j: int) -> SlidingMatrix:
        """Truncated sliding matrix: j+1 rows, n(j+1) columns."""
        if j < 0:
            raise ValueError("horizon j must be >= 0")
        return SlidingMatrix(self._tiling, num_blocks=j + 1, rows=j + 1)

    def full_sliding_matrix(self, num_blocks: int) -> SlidingMatrix:
        """Untruncated sliding matrix: every block column is complete."""
        if num_blocks < 1:
            raise ValueError("need at least one block column")
        return SlidingMatrix(self._tiling, num_blocks=num_blocks, rows=num_blocks + self.mu)

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
        coeff = [[self.base.get(i + 1, c) for c in range(1, self.n + 1)]
                 for i in range(self.mu + 1)]
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
