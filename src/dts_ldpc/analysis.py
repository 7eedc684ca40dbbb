"""Structural verification of a constructed code.

Three families of checks, all exact:

* minors — every 2x2 or 3x3 submatrix of a sliding matrix whose zero
  pattern admits a nonzero transversal (one entry per row and column) is
  checked; any vanishing determinant is a failure witness.  Only those
  with two or more nonzero transversals can vanish; those with exactly two
  are decided by a divisibility test on their exponents, the rest are
  evaluated.  Those sets are read off the 4-cycle and 6-cycle walks, over
  a number of row tuples linear in the horizon; the count and the 3x3
  completions of a 4-cycle that factor come in closed form;
* cycles — 4-cycles (two rows sharing two columns) and 6-cycles (row and
  column triples whose submatrix has exactly two nonzeros per row and per
  column), walked over the same row pairs and triples as the minors,
  together with the full-rank condition on their cycle matrices, decided
  by the same two-term test.  Reports that share a meter share one sweep
  of the horizon, built and charged once;
* distances — column distances and the free distance through the span
  criterion: the smallest d such that some column of the first block lies
  in the span of d-1 other columns, searched in increasing d.  The
  columns of a smallest such combination form a circuit of the column
  matroid: no row meets them exactly once and their Tanner subgraph is
  connected.  So supports are grown from the first block, row by row,
  instead of trying every column combination.  The assumption check
  reads the columns that meet the rows of an information column off the
  marks, with no matrix, and is closed-form over those that meet one of
  them; when it holds the distance profile reads every column distance
  and the free distance off it.

Failing witnesses are reported with 1-based row/column indices of the
matrix they were found in.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Optional, Sequence

from . import gf
from .code import CodeSpec, ExponentMatrix
from .errors import DEFAULT_BUDGET, Memo, Meter, as_meter
from .gf import ZERO, FieldElement, GaloisField

PATTERN_FULL = "fully-nonzero"
PATTERN_CYCLE = "cycle-pattern"
PATTERN_MIXED = "mixed-pattern"

# ---------------------------------------------------------------------------
# small linear algebra over the field
# ---------------------------------------------------------------------------

def _reduce(field: GaloisField, vec: list[FieldElement],
            pivots: list[tuple[int, list[FieldElement]]]) -> list[FieldElement]:
    v = list(vec)
    for piv, pv in pivots:
        coef = v[piv]
        if coef is not None:
            scale = field.mul(coef, field.inv(pv[piv]))
            for idx, x in enumerate(pv):
                if x is not None:
                    v[idx] = field.sub(v[idx], field.mul(scale, x))
    return v


def _in_span(field: GaloisField, target: Sequence[FieldElement],
             vectors: Sequence[Sequence[FieldElement]]) -> bool:
    pivots: list[tuple[int, list[FieldElement]]] = []
    for vec in vectors:
        v = _reduce(field, list(vec), pivots)
        piv = next((i for i, x in enumerate(v) if x is not None), None)
        if piv is not None:
            pivots.append((piv, v))
    return all(x is None for x in _reduce(field, list(target), pivots))


def _in_column_span(field: GaloisField, target: Sequence[int],
                    column: Sequence[FieldElement]) -> bool:
    """``_in_span(field, target, [column])`` for a target nonzero on every
    row, decided from exponents alone.

    The target lies in span{column} iff target = lambda * column for some
    lambda.  Each target entry is nonzero, so lambda is nonzero and the
    column is nonzero on every row: a zero entry c_b gives lambda * c_b =
    0 != t_b.  With lambda = alpha**l, t_b = alpha**T_b and c_b =
    alpha**C_b, the rows ask T_b = l + C_b mod (q - 1), as alpha has order
    q - 1.  Such an l exists iff T_b - C_b mod (q - 1) is one value on
    every row, and then it is that value.
    """
    if ZERO in column:
        return False
    return len({(t - c) % (field.q - 1) for t, c in zip(target, column)}) == 1


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

class MinorFailure(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    pattern: str


class MinorReport(NamedTuple):
    size: int
    horizon: int
    class_counts: dict[str, int]
    failures: tuple[MinorFailure, ...]

    @property
    def checked(self) -> int:
        return sum(self.class_counts.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "schema": "minor-report/v1",
            "minor_size": self.size,
            "horizon": self.horizon,
            "checked": self.checked,
            "class_counts": dict(sorted(self.class_counts.items())),
            "failures": [
                {"rows": list(f.rows), "cols": list(f.cols),
                 "pattern": f.pattern, "determinant": None}
                for f in self.failures
            ],
        }


class _Sweep:
    """The sweep of the sliding matrix ``matrix`` at horizon j: row r as
    the dict ``supports[r]``, column -> exponent over its support in column
    order (``supports[0]`` is empty), the rows of column c in increasing
    order ``columns[c]``, the nonempty pair meets ``meets[a, b]``, a < b,
    the sets of columns that rows a and b share, the row ``triples`` and
    the Tanner cycles through them (``cycles``).

    Locality: column c of block t is its pattern column moved down t rows,
    and the pattern has scope = mu + 1 rows, so the rows of a column lie
    within mu + 1 consecutive rows, and rows more than mu apart share no
    column.  So a row meets at most 2 mu others, and the supports, the
    columns and the meets, built from the columns, take work linear in j.
    The sweep is charged rows + cols before a row is read, so that a
    horizon far past the budget is refused at once, then one step per meet
    column, the sum of |M_ab|, which is the sum over the columns of
    C(|col|, 2), before the meets are built.
    """

    def __init__(self, spec: CodeSpec, j: int, meter: Meter):
        self.matrix = matrix = spec.sliding_matrix(j)
        meter.charge(matrix.rows + matrix.cols)
        width = matrix.width
        self.supports: list[dict[int, int]] = [{}] + [
            {r * width + k: e for k, e in zip(offsets, exponents)}
            for first, last, offsets, exponents in matrix.row_runs() for r in range(first, last + 1)]
        self.columns: dict[int, list[int]] = {}
        for r, sup in enumerate(self.supports):
            for c in sup:
                self.columns.setdefault(c, []).append(r)
        meter.charge(sum(math.comb(len(rows), 2) for rows in self.columns.values()))
        self.meets: dict[tuple[int, int], set[int]] = {}
        for c, rows in self.columns.items():
            for pair in itertools.combinations(rows, 2):
                self.meets.setdefault(pair, set()).add(c)
        self.walked: dict[int, tuple[TannerCycle, ...]] = {}

    @functools.cached_property
    def triples(self) -> list[tuple[int, int, int]]:
        """The row triples a < b < c whose three pair meets are nonempty, in order:
        the only ones that hold a 6-cycle.  Each is found once, from the rows
        after a that meet it, at most mu of them, so they are linear in j."""
        later: dict[int, list[int]] = {}
        for a, b in self.meets:
            later.setdefault(a, []).append(b)
        return sorted((a, *pair) for a, after in later.items()
                      for pair in itertools.combinations(sorted(after), 2) if pair in self.meets)

    def cycles(self, size: int, meter: Meter) -> tuple[TannerCycle, ...]:
        """The Tanner cycles through the row pairs that meet (``size`` 2),
        a meet's column pairs, or the ``triples``, a triple's chordless (c12,
        c23, c13), walked on the first read.  Each tuple is charged 1 + its
        number of cycles, then each cycle is decided by the two-term rule of
        ``check_minors`` from at most six exponents of its rows, read off
        ``supports``: its two transversals are known, so no submatrix is
        built and no permutation tried.

        A 4-cycle on rows a, b and columns x < y is fully nonzero.  Its
        transversals are the identity, E_ax + E_by, even, and the swap,
        E_ay + E_bx, odd.  Their parities differ, so it is singular iff
        E_ax + E_by - E_ay - E_bx = 0 mod (q - 1).  A 6-cycle walk x in
        M_ab - sup c, y in M_bc - sup a, z in M_ac - sup b has the nonzeros
        (a, x), (a, z), (b, x), (b, y), (c, y), (c, z), two per row and
        column, so its transversals are {(a, x), (b, y), (c, z)} and
        {(a, z), (b, x), (c, y)}.  They differ by a 3-cycle, an even
        permutation, so their parities agree in any column order, and it is
        singular iff E_ax + E_by + E_cz - E_az - E_bx - E_cy = s mod (q - 1),
        with alpha**s = -1 (``field._neg_shift``).  As 2s = 0 mod (q - 1),
        the order of the two transversals does not matter."""
        if size not in self.walked:
            meets, sup, found = self.meets, self.supports, []
            field = self.matrix.field
            order, shift = field.q - 1, field._neg_shift
            for rows in sorted(meets) if size == 2 else self.triples:
                if size == 2:
                    ea, eb = sup[rows[0]], sup[rows[1]]
                    walks = list(itertools.combinations(sorted(meets[rows]), 2))
                    meter.charge(1 + len(walks))
                    found += (TannerCycle(rows, (x, y), (ea[x] + eb[y] - ea[y] - eb[x]) % order == 0)
                              for x, y in walks)
                else:
                    a, b, c = rows
                    ea, eb, ec = sup[a], sup[b], sup[c]
                    walks = sorted(itertools.product(meets[a, b].difference(ec),
                                                     meets[b, c].difference(ea),
                                                     meets[a, c].difference(eb)))
                    meter.charge(1 + len(walks))
                    found += (TannerCycle(rows, tuple(sorted((x, y, z))), (
                        ea[x] + eb[y] + ec[z] - ea[z] - eb[x] - ec[y] - shift) % order == 0)
                              for x, y, z in walks)
            self.walked[size] = tuple(found)
        return self.walked[size]


def _sweep(spec: CodeSpec, j: int, meter: Meter) -> _Sweep:
    """The sweep of (spec, j), built and charged unless ``meter`` holds it:
    a meter holds its last sweep, which is freed with it."""
    if meter.sweep is None or meter.sweep[0] != (spec, j):
        meter.sweep = (spec, j), _Sweep(spec, j, meter)
    return meter.sweep[1]


def _near_completions(supports: list[dict[int, int]], columns: dict, rows: tuple[int, int],
                      cols: tuple[int, int]) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The near completions of the 4-cycle ``cols`` of the row pair ``rows``
    (``check_minors``), as sorted (rows, cols): by a third row r meeting c1
    or c2 and a column c of r, other than c1 and c2, that meets a or b."""
    (a, b), (c1, c2) = rows, cols
    pair_cols = {*supports[a], *supports[b]} - {c1, c2}
    return {(tuple(sorted((a, b, r))), tuple(sorted((c1, c2, c))))
            for r in {*columns[c1], *columns[c2]} - {a, b}
            for c in pair_cols.intersection(supports[r])}


# the row permutations of a 2x2 or 3x3 minor, each with its parity
_SIGNED_PERMUTATIONS = {
    2: (((0, 1), 0), ((1, 0), 1)),
    3: (((0, 1, 2), 0), ((0, 2, 1), 1), ((1, 0, 2), 1),
        ((1, 2, 0), 0), ((2, 0, 1), 0), ((2, 1, 0), 1)),
}


def _transversals(grid: list[list[FieldElement]]) -> list[tuple[int, int]]:
    """``(E, sigma)`` for each nonzero transversal of a square grid of
    exponents: E the sum of its exponents and sigma the parity of its
    permutation, so that it adds (-1)**sigma * alpha**E to the determinant."""
    found = []
    for perm, odd in _SIGNED_PERMUTATIONS[len(grid)]:
        picked = list(map(list.__getitem__, grid, perm))
        if None not in picked:
            found.append((sum(picked), odd))
    return found


def _two_terms_cancel(field: GaloisField, terms: list[tuple[int, int]]) -> bool:
    """Whether the two transversals ``terms`` sum to zero: with D = E1 - E2,
    D = 0 mod (q - 1) when their parities differ, D = log(-1) when they agree."""
    (e1, odd1), (e2, odd2) = terms
    return (e1 - e2 - (field._neg_shift if odd1 == odd2 else 0)) % (field.q - 1) == 0


def _elementary(weights: Sequence[int], size: int) -> int:
    """The elementary symmetric sum of degree ``size`` of ``weights``."""
    sums = [1] + [0] * size
    for w in weights:
        for k in range(size, 0, -1):
            sums[k] += sums[k - 1] * w
    return sums[size]


def check_minors(spec: CodeSpec, size: int, j: Optional[int] = None,
                 budget: int | Meter = DEFAULT_BUDGET) -> MinorReport:
    """Check every not-trivially-zero size x size minor of the sliding matrix.

    Minors are counted, not listed.  Per row tuple, inclusion-exclusion
    over the row supports A, B (, C) gives the number T of transversals,
    one column per row and all columns distinct: |A||B| - |A&B| for two
    rows, |A||B||C| - |A&B||C| - |A&C||B| - |B&C||A| + 2|A&B&C| for three.
    A column set with t nonzero transversals takes t of them, so the
    minors that admit one number T less the sum of t - 1 over the sets
    with t >= 2.  Only those sets can vanish, and only they are decided.

    Summed over all tuples, with w_r the row weights, W their sum and M_ab
    the pair meets (``_Sweep``), T is e2(w) - sum |M_ab| for pairs.  For
    triples, |A&B||C| sums to sum |M_ab| (W - w_a - w_b), as each pair
    takes every other row as the third, and |A&B&C| to the number of row
    triples sharing a column, counted per column: sum C(|col|, 3).  So T
    sums to e3(w) - sum |M_ab| (W - w_a - w_b) + 2 sum C(|col|, 3), with
    only the pairs that meet in the second sum.

    A 2x2 set of two transversals is a 4-cycle, fully nonzero.  A 3x3 set
    of two or more is a 6-cycle or completes a 4-cycle.  Two transversals
    differing by a transposition share a nonzero (r, c), and their other
    four entries are a 4-cycle (c1, c2) of rows a, b.  Two differing by a
    3-cycle make a 6-cycle: chordless, it is the cycle pattern (two
    nonzeros per row and column), walked by ``_Sweep.cycles``; with a chord
    (i, k), row i and the first transversal's row in column k share k and
    that transversal's column in row i, a 4-cycle completed by its entry
    in the third row.

    Factorable completions.  If row r is zero on c1 and c2, or column c on
    rows a and b, expanding along it gives det = +-entry(r, c) *
    det(rows a, b; cols c1, c2).  So the set has two transversals, vanishes
    exactly when the 4-cycle does, and is mixed (a line holds one nonzero).
    It completes no other 4-cycle.  In the first case every 4-cycle of the
    set avoids row r, so it lies on a, b and is completed by r's one
    nonzero c; in the second every one avoids column c, so it is (c1, c2),
    completed by the row meeting c.  Per 4-cycle, the completions by a
    column of a third row, other than c1, c2, number W - w_a - w_b -
    (|col c1| - 2) - (|col c2| - 2); all but the near ones
    (``_near_completions``: r meets c1 or c2 and c meets a or b) factor,
    come off T in closed form, and fail, listed one step each, when the
    4-cycle is singular.  The near completions of all 4-cycles form one
    set, so a set holding several 4-cycles is evaluated once.  A
    fully-nonzero set is one (each row pair is a 4-cycle met by the third
    row), so a near set is fully nonzero exactly when all six of its
    transversals are nonzero, and mixed otherwise.  The failures are
    sorted once.

    Every entry is a power of alpha, so a transversal with exponent sum E
    and permutation parity sigma adds (-1)**sigma * alpha**E.  Two cancel
    iff alpha**D = -(-1)**(sigma1 - sigma2), D = E1 - E2.  Alpha has order
    q - 1, and -1 = alpha**s: s = (q - 1)/2 for odd p, the element of
    order 2, and s = 0 in characteristic 2 (``field._neg_shift``).  So a
    set of two transversals vanishes iff D = 0 mod (q - 1) when their
    parities differ and D = s when they agree, with no field operation.
    A cycle's two transversals are known, so ``_Sweep.cycles`` reads D off
    the exponents of its rows.  A near set's grid is read off the same
    rows, ``_Sweep.supports``, and one walk of its permutations gives t
    and its terms; only near sets of three or more are evaluated, by
    ``gf.det``.

    Charges: those of the sweep, 1 per meeting row pair and 1 per 4-cycle,
    then for 3x3 minors those of the 6-cycles, 1 per failing factorable
    completion and 1 per near set.  A sweep and its cycles already held by
    the same meter (``_sweep``) are read, not charged again.
    """
    if size not in (2, 3):
        raise ValueError(f"minor size must be 2 or 3, got {size}")
    j = spec.mu if j is None else j
    meter = as_meter(budget)
    sweep = _sweep(spec, j, meter)
    matrix, supports, columns, meets = sweep.matrix, sweep.supports, sweep.columns, sweep.meets
    weights = list(map(len, supports))
    four_cycles = sweep.cycles(2, meter)
    if size == 2:
        total = _elementary(weights, 2) - sum(map(len, meets.values())) - len(four_cycles)
        failures = [MinorFailure(c.rows, c.cols, PATTERN_FULL) for c in four_cycles if c.singular]
        counts = {PATTERN_FULL: len(four_cycles), PATTERN_MIXED: total - len(four_cycles)}
        return MinorReport(size=size, horizon=j, class_counts=counts, failures=tuple(failures))
    weight = sum(weights)
    six_cycles = sweep.cycles(3, meter)
    total = (_elementary(weights, 3) + 2 * sum(math.comb(len(rows), 3) for rows in columns.values())
             - sum(len(m) * (weight - weights[a] - weights[b]) for (a, b), m in meets.items())
             - len(six_cycles))
    failures = [MinorFailure(c.rows, c.cols, PATTERN_CYCLE) for c in six_cycles if c.singular]
    near_sets = set()
    for (a, b), (c1, c2), singular in four_cycles:
        near = _near_completions(supports, columns, (a, b), (c1, c2))
        near_sets |= near
        factorable = (weight - weights[a] - weights[b] - len(columns[c1]) - len(columns[c2]) + 4
                      - len(near))
        total -= factorable
        if singular:
            meter.charge(factorable)
            failures += (MinorFailure(*minor, PATTERN_MIXED) for minor in (
                (tuple(sorted((a, b, r))), tuple(sorted((c1, c2, c))))
                for r in range(1, matrix.rows + 1) if r not in (a, b)
                for c in supports[r] if c not in (c1, c2)) if minor not in near)
    meter.charge(len(near_sets))
    full = 0
    for rows, cols in near_sets:
        grid = [[supports[r].get(c) for c in cols] for r in rows]
        terms = _transversals(grid)
        total -= len(terms) - 1
        full += len(terms) == 6
        if (_two_terms_cancel(spec.field, terms) if len(terms) == 2
                else gf.det(spec.field, grid) is ZERO):
            failures.append(MinorFailure(rows, cols, PATTERN_FULL if len(terms) == 6
                                         else PATTERN_MIXED))
    counts = {PATTERN_FULL: full, PATTERN_CYCLE: len(six_cycles),
              PATTERN_MIXED: total - full - len(six_cycles)}
    return MinorReport(size=size, horizon=j, class_counts=counts, failures=tuple(sorted(failures)))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

class TannerCycle(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    singular: bool


class CycleReport(NamedTuple):
    length: int
    horizon: int
    cycles: tuple[TannerCycle, ...]
    girth: Optional[int]

    @property
    def frc_failures(self) -> tuple[TannerCycle, ...]:
        return tuple(c for c in self.cycles if c.singular)

    @property
    def ok(self) -> bool:
        return not self.frc_failures

    def to_json_dict(self) -> dict:
        return {
            "schema": "cycle-report/v1",
            "length": self.length,
            "horizon": self.horizon,
            "cycle_count": len(self.cycles),
            "girth": self.girth if self.girth is not None else ">6",
            "frc_failures": [
                {"rows": list(c.rows), "cols": list(c.cols)} for c in self.frc_failures
            ],
        }


def enumerate_cycles(spec: CodeSpec, length: int, j: Optional[int] = None,
                     budget: int | Meter = DEFAULT_BUDGET) -> CycleReport:
    """All Tanner-graph cycles of the given length, each marked singular or not.

    A cycle of length 2d is recorded through the d rows and d columns it
    touches; the full-rank condition fails exactly when the determinant of
    that submatrix is zero.  Within a row triple, 6-cycles are ordered by
    their columns (c12, c23, c13) along the walk.  4-cycles are walked over
    the row pairs that meet and 6-cycles over the row triples whose three
    pair meets are nonempty (``_Sweep``), charged as in ``check_minors``
    and, like them, read from a sweep already held by the same meter.

    The girth is read off the pair meets, with no step charged: 4 if a
    meet holds two columns (a 4-cycle), else 6 if the three meets of some
    triple are distinct, else None.  A 6-cycle lies on a triple, as its
    rows meet pairwise.  With no 4-cycle a triple's meets are single
    columns, M_ab = {x}, M_bc = {y}, M_ac = {z}.  If one of them meets its
    third row, say x meets row c, then x is in M_bc and M_ac, so x = y = z
    meets all three rows, and no column of M_ab misses row c: no 6-cycle.
    Otherwise each misses its third row, which the other two meet, so they
    are distinct and (x, y, z) is the triple's one 6-cycle, chordless.

    Each cycle is decided by the two-term rule of ``check_minors``, with no
    field operation, from the exponents of its rows that the sweep holds:
    no submatrix is built and no permutation tried (``_Sweep.cycles``).  A
    4-cycle's 2x2 submatrix is fully nonzero: its two transversals are the
    identity (even) and the swap (odd), so it is singular iff D = 0 mod
    (q - 1).  A chordless 6-cycle's 3x3 submatrix has two nonzeros per row
    and column: its two transversals differ by a 3-cycle, so their
    parities agree and it is singular iff D = s mod (q - 1), with
    alpha**s = -1; in characteristic 2, s = 0 and equal exponent sums cancel.
    """
    if length not in (4, 6):
        raise ValueError(f"cycle length must be 4 or 6, got {length}")
    j = spec.mu if j is None else j
    meter = as_meter(budget)
    sweep = _sweep(spec, j, meter)
    cycles, meets = sweep.cycles(length // 2, meter), sweep.meets
    girth = 4 if any(len(meet) > 1 for meet in meets.values()) else 6 if any(
        len(meets[a, b] | meets[b, c] | meets[a, c]) == 3 for a, b, c in sweep.triples) else None
    return CycleReport(length=length, horizon=j, cycles=cycles, girth=girth)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def minimal_column_weight(spec: CodeSpec, j: int) -> int:
    """Smallest number of nonzeros an information column keeps after j+1 rows."""
    return min(sum(1 for a in t if a <= j + 1) for t in spec.dts.sets)


def _min_weight_first_block(matrix: ExponentMatrix, n_first: int, ub: int, meter: Meter) -> int:
    """Smallest weight of a kernel vector whose first block is nonzero.

    ``ub`` must be a weight achieved by an explicit kernel vector; only
    smaller weights are searched.  Equals the smallest d such that one of
    the first ``n_first`` columns lies in the span of d-1 other columns:
    the size of the first spanning support found below, since the support
    of a least such kernel vector is a circuit whose lowest column is in the
    first block (a kernel vector on a proper subset either has a nonzero
    first block itself, or cancels one entry while keeping the first block).

    A column t lies in the span of a set S exactly when some circuit C of
    the column matroid has t in C and C within S + {t}.  A circuit carries
    a kernel vector nonzero on all of it, so no row meets C exactly once,
    and its Tanner subgraph is connected, since its components would carry
    kernel vectors of their own.  Supports are grown one column at a time
    from each first column, level by level in increasing size: when a row
    is met exactly once, only the columns of the lowest such row are tried,
    as C must cover it again; when no row is met once (the support is
    closed) but its lowest column is outside the span of the others, every
    column sharing a row with it is tried, as C stays connected.  Either
    way a subset of C through its lowest column has a child that is a
    larger subset of C, so C is reached, and no proper subset of C through
    t spans t.  The branches of a support depend on it alone, so each is
    visited once per size.  Only closed supports are tested, on the rows
    they touch.  A column's rows and a row's columns are read when the
    search first reaches them.  One step is charged per support visited.
    """
    # column c + 1 meets row b + 1: bit b of masks[c] and bit c of row_cols[b]
    masks = Memo(lambda c: sum(1 << (r - 1) for r in matrix.col_support(c + 1)))
    row_cols = Memo(lambda b: sum(1 << (c - 1) for c in matrix.row_support(b + 1)))
    level = {1 << t for t in range(n_first)}
    for d in range(1, ub):
        grown = set()
        for sup in level:
            meter.charge(1)
            cols = _bits(sup)
            once = more = 0
            for c in cols:
                more |= once & masks[c]
                once = (once ^ masks[c]) & ~more
            if once:
                branch = row_cols[(once & -once).bit_length() - 1]
            else:
                touched = _bits(more)
                vecs = [[matrix.get(b + 1, c + 1) for b in touched] for c in cols]
                if _in_span(matrix.field, vecs[0], vecs[1:]):
                    return d
                branch = 0
                for b in touched:
                    branch |= row_cols[b]
            if d + 1 < ub:
                grown.update(sup | 1 << c for c in _bits(branch & ~sup))
        level = grown
    return ub


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, in increasing order."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def column_distance(spec: CodeSpec, j: int, budget: int | Meter = DEFAULT_BUDGET) -> int:
    """Exact column distance at horizon j via the span criterion.

    The weight w_j + 1 is always achieved by the single-symbol codeword
    truncated at j, so only smaller weights need an exhaustive search.
    """
    matrix = spec.sliding_matrix(j)
    ub = minimal_column_weight(spec, j) + 1
    return _min_weight_first_block(matrix, spec.n, ub, as_meter(budget))


def exact_horizon(spec: CodeSpec) -> int:
    """Smallest search horizon at which ``free_distance`` is exact."""
    return (spec.w - 1) * spec.mu + 1


def free_distance(spec: CodeSpec, budget: int | Meter = DEFAULT_BUDGET) -> int:
    """Exact free distance.

    A weight-(w+1) codeword always exists (one information symbol plus the
    w parities its column forces), so only weights up to w are searched.
    A minimum-weight codeword splits into two shorter ones as soon as its
    information word has mu consecutive zero blocks, hence searching
    degrees up to (w-1)*mu, the ``exact_horizon``, is exhaustive.  The
    column distance at a smaller horizon is a lower bound on it.
    """
    matrix = spec.full_sliding_matrix(exact_horizon(spec) + 1)
    return _min_weight_first_block(matrix, spec.n, spec.w + 1, as_meter(budget))


# ---------------------------------------------------------------------------
# distance assumption check
# ---------------------------------------------------------------------------

class AssumptionWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]


class AssumptionReport(NamedTuple):
    witnesses: tuple[AssumptionWitness, ...]

    @property
    def holds(self) -> bool:
        return not self.witnesses


def _span_pairs(multi: dict[int, list[int]], w: int):
    """The pairs (P, R') one span test each decides in the assumption check:
    P a nonempty set of the multi-row columns, mapped by ``multi`` to the
    positions of the w rows they meet, and R' a set of row positions
    holding every row that P misses, with |P| + |R'| <= w-1.  Every row
    has a single-row column, its parity column, so any such R' is met by
    single-row columns.  P comes in increasing size and, for each P, R'
    too, so a pair comes after every pair it holds."""
    positions = set(range(w))
    for size in range(1, w):
        for part in map(set, itertools.combinations(sorted(multi), size)):
            missed = positions.difference(*(multi[c] for c in part))
            room = w - 1 - size - len(missed)
            if room >= 0:
                optional = sorted(positions - missed)
                for m in range(room + 1):
                    for extra in itertools.combinations(optional, m):
                        yield part, missed.union(extra)


def check_distance_assumptions(spec: CodeSpec, budget: int | Meter = DEFAULT_BUDGET) -> AssumptionReport:
    """Hypothesis test for the distance formulas.

    For every column set J of size up to w whose smallest member j1 is an
    information column of the first block, and every row set I of the same
    size containing the support of column j1, the restricted column j1
    must stay outside the span of the other restricted columns.  Since
    that support already has w rows, only |I| = |J| = w occurs and I is
    forced to the support itself, the rows R of T_j1.  So the check fails
    when at most w-1 later columns of the sliding matrix at horizon mu
    span j1 on R (j1 has n*mu + 1 >= w-1 later ones to pad them with), and
    a witness is j1 with an inclusion-minimal set of them.

    The columns meeting R are read off the marks, with no matrix, and the
    span-test entries by ``CodeSpec.column_entries``.  Row b of the check
    is the mark a = T_j1[b].  The information column (s, k) of block s,
    index s*n + k, is base column k moved down s rows: it meets row a iff
    a - s is in T_k.  So the later information columns meeting R are the
    (a - m, k) with a in T_j1, m <= a in T_k and index past j1, read from
    the (n - 1) w**2 pairs of marks; s = a - m <= mu, so every one is in
    the matrix at horizon mu.  The parity column of block t meets row
    t + 1 alone, so the parity column of block a - 1, index a*n, meets row
    a and no other row of R: every row of R has a single-row column of its
    own, later than j1.

    The check is closed-form over the single-row columns.  On R, a later
    column is zero, a multiple of one unit vector e_r (single-row, on row
    r) or nonzero on several rows (multi-row).  Let a column set S hold the
    multi-row columns P and single-row columns on the rows R'.  Its span
    is span(P) + span{e_r : r in R'}, and deleting the coordinates R'
    maps that sum onto span(P) on the rows outside R', with kernel
    span{e_r : r in R'}; so S spans j1 exactly when j1 lies in span(P) on
    the rows outside R'.  Column j1 is nonzero on every row of R, so a
    row outside R' that P misses rules the span out: R' holds every row
    P misses, and an empty P never spans, as |R'| <= w-1 < |R|.  Hence
    one span test decides each pair of ``_span_pairs``.  A test with one
    multi-row column c (|P| = 1) needs no field arithmetic
    (``_in_column_span``): j1 is nonzero on every kept row, so it lies in
    span{c} iff c is nonzero on every kept row and E_j1,b - E_c,b mod
    (q - 1) is one value on every kept row b; a larger P is reduced by
    ``_in_span``.  Two single-row columns on one row are multiples of the
    same e_r, so the minimal spanning sets hold one single-row column per
    row of R' for a spanning pair (P, R') that holds no other spanning
    pair, and each such set is minimal, as dropping a column shrinks its
    pair.  A pair comes after the pairs it holds, so these are the
    spanning pairs holding no earlier one; the witnesses are their column
    sets, listed in order.  The single-row columns of each row are listed
    only when some pair spans.

    A multi-row column (s, k) meets rows a < a' of R, so m = a - s and
    m' = a' - s are in T_k and a' - a = m' - m is a difference of both
    T_j1 and T_k.  Differences within one set are distinct, so k = j1
    would give s = 0, the column j1 itself: T_j1 and another set share a
    difference.  So a strict-valid DTS has no multi-row column, and its
    check holds with no span test.

    One step is charged per later column meeting R (its information
    columns and the w parity columns), one per pair tested and one per
    witness, charged for every witness before any is listed.
    """
    n, w = spec.n, spec.w
    sets = spec.dts.sets
    meter = as_meter(budget)
    minimal = []  # (rows, j1, P, the single-row columns of each row of R') per minimal pair
    for j1, rows in enumerate(sets, start=1):
        met: dict[int, list[int]] = {}  # later information column -> positions in rows it meets
        for b, a in enumerate(rows):
            for k, t_k in enumerate(sets, start=1):
                for m in t_k:
                    if m > a:
                        break
                    c = (a - m) * n + k
                    if c > j1:
                        met.setdefault(c, []).append(b)
        meter.charge(len(met) + w)
        multi = {c: bs for c, bs in met.items() if len(bs) > 1}  # multi-row column -> its positions
        # column -> its entries on R, read only when some pair can be tested
        entries = {c: spec.column_entries(c, rows) for c in (j1, *multi)} if multi else {}
        spanning: list[tuple[set[int], set[int]]] = []
        for part, deleted in _span_pairs(multi, w):
            if any(p <= part and d <= deleted for p, d in spanning):
                continue
            meter.charge(1)
            kept = [b for b in range(w) if b not in deleted]
            vecs = [[entries[c][b] for b in kept] for c in sorted(part)]
            kept_target = [entries[j1][b] for b in kept]
            if (_in_column_span(spec.field, kept_target, vecs[0]) if len(vecs) == 1
                    else _in_span(spec.field, kept_target, vecs)):
                spanning.append((part, deleted))
        if spanning:  # position -> its single-row columns, its parity column included
            single = [sorted([a * n, *(c for c in met if met[c] == [b])]) for b, a in enumerate(rows)]
            minimal += ((rows, j1, part, [single[b] for b in sorted(deleted)])
                        for part, deleted in spanning)
    meter.charge(sum(math.prod(map(len, picks)) for *_, picks in minimal))
    witnesses = (AssumptionWitness(rows=rows, cols=(j1, *sorted(part.union(chosen))))
                 for rows, j1, part, picks in minimal for chosen in itertools.product(*picks))
    return AssumptionReport(witnesses=tuple(sorted(witnesses, key=lambda wit: wit.cols)))


# ---------------------------------------------------------------------------
# combined profile
# ---------------------------------------------------------------------------

class DistanceProfile(NamedTuple):
    column_distances: tuple[int, ...]
    free: int
    horizon: int
    predicted_free: int
    predicted_column: tuple[int, ...]
    assumption_check: AssumptionReport

    def to_json_dict(self) -> dict:
        return {
            "schema": "distance-profile/v1",
            "column_distances": list(self.column_distances),
            "free_distance": self.free,
            "free_distance_exact": True,
            "free_distance_upper_bound": self.predicted_free,
            "horizon": self.horizon,
            "predicted_free": self.predicted_free,
            "predicted_column": list(self.predicted_column),
            "assumption_holds": self.assumption_check.holds,
        }


def distance_profile(spec: CodeSpec, budget: int | Meter = DEFAULT_BUDGET) -> DistanceProfile:
    """Column distances for j = 0..mu, the exact free distance and the
    assumption check, charged to one meter.

    One step is charged per column distance reported, mu + 1 of them,
    before anything is built, so a budget below that is refused at once;
    then the check runs.  When it holds, every column distance is w_j + 1,
    the smallest weight an information column keeps after j + 1 rows plus
    one, and the free distance is w + 1, all read off it with no search.
    The check and the predictions read only the marks, so a profile whose
    check holds builds no matrix.
    Take a kernel vector of weight d with a nonzero first
    block, of the truncated sliding matrix at a horizon j <= mu or of the
    untruncated one that ``free_distance`` searches.  Later blocks start
    below row 1, so row 1 meets only columns of the first block; if the
    vector's lowest nonzero column were the parity column, it would be the
    only column of the vector's support on row 1, which then would not sum
    to zero.  So its lowest nonzero column is an information column j1 of
    the first block.  Let R be the w rows of T_j1, all at most mu + 1, and
    R_j the i of them at most j + 1 (i = w, R_j = R, for the free
    distance).  On R_j the kernel relation puts j1 in the span of the
    d - 1 later columns of the support.  A column of a block past mu + 1
    is zero on those rows, and a column of a block up to mu + 1 agrees
    there with the same column of the sliding matrix at horizon mu.  For
    each row r of R outside R_j, the parity column of block r meets row r
    alone, so it is the unit vector e_r on R; it is later than j1 and
    present at horizon mu.  On R, j1 less its combination of the support
    columns vanishes on R_j, so it is a combination of these w - i unit
    vectors, and j1 lies on all of R in the span of at most d - 1 + w - i
    later columns of the sliding matrix at horizon mu.  If d <= i, at most
    w - 1 later columns span j1 on R, so they hold a minimal spanning set,
    a witness, against the check.  So when the check holds,
    d >= i + 1 >= w_j + 1, and the single-symbol codeword truncated at j
    gives equality; at j = mu and for the free distance that is w + 1.
    When the check fails, every distance is searched.
    """
    meter = as_meter(budget)
    meter.charge(spec.mu + 1)
    check = check_distance_assumptions(spec, meter)
    predicted = tuple(minimal_column_weight(spec, j) + 1 for j in range(spec.mu + 1))
    if check.holds:
        columns, free = predicted, spec.w + 1
    else:
        columns = tuple(column_distance(spec, j, meter) for j in range(spec.mu + 1))
        free = free_distance(spec, meter)
    return DistanceProfile(
        column_distances=columns,
        free=free,
        horizon=exact_horizon(spec),
        predicted_free=spec.w + 1,
        predicted_column=predicted,
        assumption_check=check,
    )
