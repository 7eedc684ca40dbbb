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
matrix by ``ExponentMatrix``, the one matrix class, made in constant time
and memory at any horizon; only the exports read it.  The rule i*k is
written once, in ``CodeSpec.marks``, and every entry, the encoder and the
syndrome read it there.  The last code symbol of each block is the
parity, and the encoder is systematic.

Indexing note: matrix rows and columns are 1-based everywhere, matching
the reports.  Entry exponents depend on the 1-based row index, so this is
load-bearing, not cosmetic.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Iterator, NamedTuple, Sequence

from .dts import DifferenceTriangleSet, validate
from .errors import IncompleteBlock, SetCountMismatch, ZeroElementInDTS
from .gf import ZERO, FieldElement, GaloisField, _is_prime


class ExponentMatrix:
    """Sparse matrix over a field, entries stored as exponents of alpha.

    A matrix is ``blocks`` copies of one pattern, copy t moved down t rows
    and right t times the pattern's ``width``, cut at ``rows``.  The matrix
    ``ExponentMatrix(rows, cols, entries, field)`` is one copy; ``entries``
    maps 1-based (row, col) to the exponent of each nonzero, all checked.
    The pattern is laid out once, in (-row, col) order, and shared by its
    tilings: pattern entry (i, c) lands in row r at column r*width +
    (c - i*width) for r - blocks < i <= r, so row r is a contiguous run of
    the layout shifted, and the rows between two pattern rows' starts and
    ends share one run (``row_runs``).  Column c is pattern column
    (c - 1) mod width moved down (c - 1) // width rows and cut at
    ``rows``; the copies cut at the same pattern rows share their columns
    (``block_runs``).  Columns and entries are read off the pattern on
    every call, so no read changes the matrix.
    """

    def __init__(self, rows: int, cols: int, entries: dict[tuple[int, int], int],
                 field: GaloisField):
        for (r, c), e in entries.items():
            if not (1 <= r <= rows and 1 <= c <= cols):
                raise ValueError(f"entry ({r}, {c}) outside {rows} x {cols}")
            if not (0 <= e <= field.q - 2):
                raise ValueError(f"exponent {e} out of range for {field!r}")
        pattern = sorted(entries.items(), key=lambda item: (-item[0][0], item[0][1]))
        by_col: dict[int, dict[int, int]] = {}
        for (i, c), e in reversed(pattern):
            by_col.setdefault(c - 1, {})[i] = e
        # negated row, column offset and exponent of each entry in layout
        # order; row -> exponent of each nonempty column, in row order
        self._layout = ([-i for (i, _), _ in pattern], [c - i * cols for (i, c), _ in pattern],
                        [e for _, e in pattern], by_col)
        self.field, self._is_tiling = field, False
        self.rows, self.cols, self.width, self._blocks = rows, cols, cols, 1

    def _tiled(self, blocks: int, rows: int) -> ExponentMatrix:
        """``blocks`` copies of this one-copy matrix, cut at ``rows``.  A
        tiling shares its pattern's layout, so tiling it again would tile
        the pattern, not the tiling: it is refused, even of one block."""
        if self._is_tiling:
            raise ValueError("only a one-copy matrix can be tiled")
        tiled = object.__new__(ExponentMatrix)
        tiled.field, tiled._layout, tiled._is_tiling = self.field, self._layout, True
        tiled.rows, tiled.cols, tiled._blocks = rows, blocks * self.cols, blocks
        tiled.width = self.cols
        return tiled

    def _run(self, r: int) -> slice:
        """The layout entries that land in row r."""
        if not 1 <= r <= self.rows:
            return slice(0)
        neg_rows = self._layout[0]
        return slice(bisect.bisect_left(neg_rows, -r), bisect.bisect_left(neg_rows, self._blocks - r))

    def _column(self, c: int) -> tuple[int, dict[int, int]]:
        """``(t, column)``: column c is the pattern column ``column``, row ->
        exponent, moved down t rows and cut at ``rows``."""
        if not 1 <= c <= self.cols:
            return 0, {}
        t, k = divmod(c - 1, self.width)
        return t, self._layout[3].get(k, {})

    def get(self, r: int, c: int) -> FieldElement:
        t, column = self._column(c)
        return column.get(r - t) if r <= self.rows else None

    @property
    def nonzero_count(self) -> int:
        # pattern row i = -neg is moved into rows i..min(i + blocks - 1, rows)
        return sum(max(0, min(self._blocks, self.rows + 1 + neg)) for neg in self._layout[0])

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        return {(r, c): e for r, c, e in self.items()}

    def row_support(self, r: int) -> tuple[int, ...]:
        return tuple(map((r * self.width).__add__, self._layout[1][self._run(r)]))

    def col_support(self, c: int) -> tuple[int, ...]:
        t, column = self._column(c)
        return tuple(i + t for i in column if i + t <= self.rows)

    def row_runs(self) -> Iterator[tuple[int, int, list[int], list[int]]]:
        """``(first_row, last_row, offsets, exponents)`` over the maximal
        ranges of rows that share one run of the layout, rows without
        entries included: row r of the range holds ``exponents[k]`` at
        column ``r * width + offsets[k]``, in column order.  A run changes
        only where a pattern row i starts (row i) or ends (row i + blocks),
        so there are at most twice as many ranges as pattern rows, plus
        one, at any size."""
        _, offsets, exponents, _ = self._layout
        cuts = sorted({1, self.rows + 1, *(r for i in self._pattern_rows
                                            for r in (i, i + self._blocks) if r <= self.rows)})
        for first, after in zip(cuts, cuts[1:]):
            run = self._run(first)
            yield first, after - 1, offsets[run], exponents[run]

    def block_runs(self) -> Iterator[tuple[int, int, list[list[tuple[int, int]]]]]:
        """``(first_copy, last_copy, columns)`` over the maximal ranges of
        copies (0-based) whose columns are cut at the same pattern row:
        column k + 1 of copy t, matrix column t * width + k + 1, holds
        exponent e at row i + t for each ``(i, e)`` of ``columns[k]``, in
        row order.  The cut moves only where a copy's last row, rows - t,
        passes a pattern row, so there is at most one more range than
        pattern rows; a matrix without columns has none."""
        if not self.width:
            return
        by_col = self._layout[3]
        cuts = sorted({0, self._blocks, *(t for t in (self.rows + 1 - i for i in self._pattern_rows)
                                          if 0 < t < self._blocks)})
        for first, after in zip(cuts, cuts[1:]):
            bottom = self.rows - first  # the last pattern row that copy first keeps
            yield first, after - 1, [[(i, e) for i, e in by_col.get(k, {}).items() if i <= bottom]
                                     for k in range(self.width)]

    @property
    def _pattern_rows(self) -> set[int]:
        return {-neg for neg in self._layout[0]}

    def items(self) -> Iterator[tuple[int, int, int]]:
        """``(row, col, exponent)`` of every nonzero entry, in row-major order."""
        width = self.width
        for first, last, offsets, exponents in self.row_runs():
            for r in range(first, last + 1) if offsets else ():
                yield from zip(itertools.repeat(r), map((r * width).__add__, offsets), exponents)

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
    return CodeSpec(dts, field, n).base


def _check_family(dts: DifferenceTriangleSet, n: int) -> None:
    """Refuse a family the construction cannot take: n - 1 sets, every
    element >= 1, relaxed-valid."""
    if dts.num_sets != n - 1:
        raise SetCountMismatch(f"need {n - 1} set(s) for n = {n}, got {dts.num_sets}")
    if any(s[0] == 0 for s in dts.sets):
        raise ZeroElementInDTS("construction requires all elements >= 1")
    report = validate(dts, "relaxed")
    if not report.valid:
        dups = ", ".join(str(d.value) for d in report.duplicates)
        raise ValueError(f"DTS is not relaxed-valid (duplicated differences: {dups})")


def sliding_entry_origin(n: int, row: int, col: int) -> tuple[int, int]:
    """Base-matrix origin of a sliding-matrix position.

    Returns (base_row, unified_column_index) where the parity column has
    unified index 0 and information column k keeps index k; with that
    convention every nonzero sliding entry is alpha**marks[index][base_row].
    """
    block, within = divmod(col - 1, n)
    base_row = row - block
    return base_row, 0 if within == n - 1 else within + 1


class MinFieldParams(NamedTuple):
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
    if w > scope:  # the marks lie in 1..scope
        raise ValueError(f"need w <= scope, got w = {w}, scope = {scope}")
    delta = scope - 1
    q_2x2 = (n - 1) * delta + 2
    n_3x3 = max(1, (delta - 1) * (n - 2) + 1)
    q_case_ii = max(2, 2 * (n - 3) + 2 * (delta - 2) * (n - 2) + 2)
    min_deg = n_3x3 if w >= 3 else 1
    q = max(3, q_2x2)
    # the smallest p**e >= q with e >= min_deg: for each e the least prime p with
    # p**e >= q; no e past the first with 2**e >= q wins (if min_deg is, 2^min_deg)
    candidates = []
    for e in range(min_deg, (q - 1).bit_length() + 1):
        p = _ceil_root(q, e)
        while not _is_prime(p):
            p += 1
        candidates.append((p**e, p, e))
    _, p, e = min(candidates, default=(q, 2, min_deg))
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
    if w > mu + 1:  # the marks lie in 1..mu+1
        raise ValueError(f"need w <= mu + 1, got w = {w}, mu = {mu}")
    if message_length < n:
        raise IncompleteBlock(f"message length {message_length} is shorter than a block of n = {n}")
    if message_length % n:
        raise IncompleteBlock(f"message length {message_length} is not a multiple of n = {n}")
    from fractions import Fraction  # here, as it loads decimal, which no other command needs

    return Fraction(w * (n - 1) + 1, mu * n + message_length)


class CodeSpec:
    """A constructed code: DTS, field and block length n bundled together.

    The family is checked at construction; the base matrix is built on
    its first read, so a command that reads only the DTS builds none."""

    def __init__(self, dts: DifferenceTriangleSet, field: GaloisField, n: int):
        _check_family(dts, n)
        self.dts = dts
        self.field = field
        self.n = n
        self.w = dts.set_size
        self.scope = dts.scope
        self.mu = self.scope - 1
        self.delta = self.scope - 1
        # marks[index]: each mark i of T_index -> its exponent i*index, and the parity
        # column's one mark 1 -> 0, index 0: the one place the exponent rule is written
        self.marks = tuple([{i: i * k for i in t_k} for k, t_k in enumerate(((1,), *dts.sets))])
        # (m, c) per mark m of marks[index], c column (-m, index): row r >= m meets column r*n + c
        self._mark_columns = [(m, self.column_at(-m, k)) for k, t_k in enumerate(self.marks) for m in t_k]

    @functools.cached_property
    def base(self) -> ExponentMatrix:
        """Transposed base matrix: alpha**e at row i of column
        ``column_at(0, index)`` for each mark i -> exponent e of marks[index]."""
        entries = {(i, self.column_at(0, k)): self.field.alpha_pow(e)
                   for k, table in enumerate(self.marks) for i, e in table.items()}
        return ExponentMatrix(self.scope, self.n, entries, self.field)

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

    @functools.cached_property
    def witnesses(self) -> dict[int, list[tuple[int, int, int]]]:
        """Each difference d of a set of the DTS -> its witnesses (k, m, c), m
        and m + d in T_k: ``dts.differences``, with marks in place of
        positions.  c is column (-m, k), ``column_at``, whose mark m lies on
        row 0; moved down a rows, a blocks, it is column a*n + c."""
        wits: dict[int, list[tuple[int, int, int]]] = {}
        for k, t_k in enumerate(self.dts.sets, start=1):
            for low, high in itertools.combinations(t_k, 2):
                wits.setdefault(high - low, []).append((k, low, self.column_at(-low, k)))
        return wits

    @functools.cached_property
    def cycle_classes(self) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...], int]]]:
        """Length 4 and 6 -> the classes of Tanner cycles of that length, each
        as (rows, walk, D) at its first translate, read off ``witnesses``.

        Translates.  Column (s, k) of block s, ``column_at(s, k)``, meets row
        r iff r - s is in T_k, with exponent marks[k][r - s].  Adding t to
        every row and t*n to every column, t blocks, keeps both, so a class,
        a cycle with all its translates, has one D.  At its first translate a
        column lies in block 0 and none lower; with c0 its last row,
        translate t is in the sliding matrix at horizon j iff t >= 0 and c0 +
        t <= j + 1 (a column meets a row <= j + 1 at a mark >= 1, so its block
        is <= j): a class has j + 2 - c0 translates if c0 <= j + 1, else none.

        4-cycles.  Column (s, k) meets rows a < b iff m = a - s and m + d, d =
        b - a, are in T_k: (k, m) is a witness of d, and the column (a - m, k).
        A set has at most one witness of d, as its differences are distinct,
        so a 4-cycle is two witnesses (k1, m1), (k2, m2) of one d, k1 != k2,
        which fix its columns, and each such pair and a >= max(m1, m2) give
        one: the classes are these pairs, first at a = max(m1, m2), with x =
        (a - m1, k1) and y = (a - m2, k2).

        6-cycles.  Likewise a walk x in M_ab, y in M_bc, z in M_ac of rows a <
        b < c is witnesses (kx, mx) of d1 = b - a, (ky, my) of d2 = c - b and
        (kz, mz) of d1 + d2, with x = (a - mx, kx), y = (b - my, ky) and z =
        (a - mz, kz), chordless iff x misses row c, y row a and z row b: mx +
        d1 + d2 not in T_kx, my - d1 not in T_ky, mz + d1 not in T_kz.  The
        classes are these witness triples, first at a = max(mx, my - d1, mz).

        D is E1 - E2 for the class's two nonzero transversals, each E the
        sum of its entries' exponents E_rc, read off ``marks``: for a 4-cycle
        the identity (even) less the swap (odd), E_ax + E_by - E_ay - E_bx,
        and for a 6-cycle {(a, x), (b, y), (c, z)} less {(a, z), (b, x), (c,
        y)}, which differ by a 3-cycle, so their parities agree: E_ax + E_by
        + E_cz - E_az - E_bx - E_cy.  Each D is an integer, so the table
        reads no field; it takes no horizon.  It is finite, bounded by the
        DTS: its classes are pairs and triples of witnesses, each difference
        d3 scanned with each d1 < d3 whose complement is one too, in
        O(|differences|**2).  Built once per code, it is charged to no meter,
        like the witnesses; a report charges the classes it reads
        (``analysis._cycle_classes``).
        """
        n, marks, wits = self.n, self.marks, self.witnesses
        classes: dict[int, list] = {4: [], 6: []}
        for d, found in wits.items():
            for (k1, m1, c1), (k2, m2, c2) in itertools.combinations(found, 2):
                a, x, y = max(m1, m2), marks[k1], marks[k2]
                classes[4].append(((a, a + d), tuple(sorted((a * n + c1, a * n + c2))),
                                   x[m1] + y[m2 + d] - y[m2] - x[m1 + d]))
        for d3, zs in wits.items():
            for d1, xs in wits.items():
                ys = wits.get(d3 - d1, ()) if d1 < d3 else ()
                for (kz, mz, cz), (kx, mx, cx), (ky, my, cy) in itertools.product(zs, xs, ys):
                    if mz + d1 not in marks[kz] and mx + d3 not in marks[kx] and my - d1 not in marks[ky]:
                        a, x, y, z = max(mx, my - d1, mz), marks[kx], marks[ky], marks[kz]
                        walk = (a * n + cx, (a + d1) * n + cy, a * n + cz)
                        classes[6].append(((a, a + d1, a + d3), walk, x[mx] + y[my] + z[mz + d3]
                                           - z[mz] - x[mx + d1] - y[my + d3 - d1]))
        return classes

    def column_origin(self, col: int) -> tuple[int, int]:
        """(block, index) of sliding-matrix column ``col`` (``sliding_entry_origin``):
        row r meets it iff r - block is in marks[index], with entry alpha**marks[index][r - block]."""
        base_row, index = sliding_entry_origin(self.n, 0, col)
        return -base_row, index

    def column_at(self, block: int, index: int) -> int:
        """The column of ``index`` in ``block``: the inverse of ``column_origin``."""
        return block * self.n + (index or self.n)

    def row_columns(self, row: int) -> list[int]:
        """The columns of blocks >= 0 that meet ``row``, parity included:
        (row - m, index) for each mark m <= row of marks[index].  For row <=
        j + 1 they are ``sliding_matrix(j).row_support(row)``, unordered."""
        return [row * self.n + c for m, c in self._mark_columns if m <= row]

    def column_entries(self, col: int, rows: Sequence[int]) -> list[FieldElement]:
        """Entries of column ``col`` on ``rows``, read off the marks (``column_origin``)."""
        block, index = self.column_origin(col)
        table = self.marks[index]
        return [self.field.alpha_pow(table[r - block]) if r - block in table else ZERO for r in rows]

    def encode(self, message: Sequence[Sequence[FieldElement]]) -> list[tuple[FieldElement, ...]]:
        """Systematic encoding: each output block is (u_t, p_t).

        Block t's parity column meets row t + 1 alone, as 1, so p_t is minus
        row t + 1 of the syndrome of the message with every parity zero; the
        codeword extends mu blocks past the message.
        """
        info = [tuple(b) for b in message]
        for b in info:
            if len(b) != self.n - 1:
                raise ValueError(f"information blocks have {self.n - 1} symbols, got {len(b)}")
        if not info:
            return []
        syndrome = self.syndrome([b + (ZERO,) for b in info])
        info += [(ZERO,) * (self.n - 1)] * self.mu
        return [b + (self.field.neg(s),) for b, s in zip(info, syndrome)]

    def syndrome(self, word: Sequence[Sequence[FieldElement]]) -> list[FieldElement]:
        """The word times the untruncated sliding matrix, one entry per row,
        read off the marks; all-zero exactly when the word is a codeword."""
        word = [tuple(b) for b in word]
        for b in word:
            if len(b) != self.n:
                raise ValueError(f"code blocks have {self.n} symbols, got {len(b)}")
        f, out = self.field, [ZERO] * (len(word) + self.mu)
        for t, block in enumerate(word):
            for k, table in enumerate(self.marks):
                x = block[self.column_at(0, k) - 1]
                for m, e in table.items():
                    out[t + m - 1] = f.add(out[t + m - 1], f.mul(f.alpha_pow(e), x))
        return out

    def __repr__(self) -> str:
        return f"CodeSpec(n={self.n}, w={self.w}, mu={self.mu}, {self.field!r})"
