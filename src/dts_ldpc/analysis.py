"""Structural verification of a constructed code.

Three families of checks, all exact:

* minors — every 2x2 or 3x3 submatrix of a sliding matrix whose zero
  pattern admits a nonzero transversal (one entry per row and column) is
  checked; any vanishing determinant is a failure witness.  Only those
  with two or more nonzero transversals can vanish and are evaluated; the
  count comes from inclusion-exclusion over the row supports;
* cycles — 4-cycles (two rows sharing two columns) and 6-cycles (row and
  column triples whose submatrix has exactly two nonzeros per row and per
  column), walked over the same row tuples as the minors, together with
  the full-rank condition on their cycle matrices;
* distances — column distances and the free distance through the span
  criterion: the smallest d such that some column of the first block lies
  in the span of d-1 other columns, searched in increasing d.  The
  columns of a smallest such combination form a circuit of the column
  matroid: no row meets them exactly once and their Tanner subgraph is
  connected.  So supports are grown from the first block, row by row,
  instead of trying every column combination.  The assumption check runs
  the same search on the rows of each information column and pads the
  spanning supports it finds into witnesses.

Failing witnesses are reported with 1-based row/column indices of the
matrix they were found in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import gf
from .code import CodeSpec, ExponentMatrix, Memo
from .errors import DEFAULT_BUDGET, Meter, as_meter
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


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorFailure:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    pattern: str
    determinant: FieldElement


@dataclass(frozen=True)
class MinorReport:
    size: int
    horizon: int
    checked: int
    class_counts: dict[str, int]
    failures: tuple[MinorFailure, ...]

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
                 "pattern": f.pattern, "determinant": f.determinant}
                for f in self.failures
            ],
        }


def _increasing(high: int, size: int):
    """The increasing pairs (size 2) or triples of 1..high in lexicographic
    order, one at a time (``itertools.combinations`` would first copy the
    whole range)."""
    if size == 2:
        return ((a, b) for a in range(1, high + 1) for b in range(a + 1, high + 1))
    return ((a, b, c) for a in range(1, high + 1)
            for b in range(a + 1, high + 1) for c in range(b + 1, high + 1))


def _row_tuples(matrix: ExponentMatrix, size: int):
    """``(rows, sup, meets)`` for each tuple of ``size`` rows in lexicographic
    order: the row supports as sets and their pair meets ``meets[a, b]``.
    Tuples and row supports are made as the walk reaches them, so a caller
    charging per tuple pays before the rows are read, at any horizon."""
    supports = Memo(lambda r: set(matrix.row_support(r)))
    pairs = list(itertools.combinations(range(size), 2))
    for rows in _increasing(matrix.rows, size):
        sup = [supports[r] for r in rows]
        yield rows, sup, {(a, b): sup[a] & sup[b] for a, b in pairs}


def _walks(sup: Sequence[set[int]], meets: dict) -> list[tuple[int, ...]]:
    """Sorted column walks of the Tanner cycles through two or three rows: meet
    pairs, or chordless (c12, c23, c13), each column missing the third row."""
    if len(sup) == 2:
        return list(itertools.combinations(sorted(meets[0, 1]), 2))
    return sorted(itertools.product(meets[0, 1] - sup[2], meets[1, 2] - sup[0],
                                    meets[0, 2] - sup[1]))


def _vanishable(sup: Sequence[set[int]], meets: dict) -> list[tuple[int, ...]]:
    """Sorted column sets whose submatrix has two or more nonzero transversals:
    the walks and, for three rows, the 4-cycles of a row pair completed by a
    column of the third row.  Two such transversals differ on a 4-cycle or a
    6-cycle, and a 6-cycle with a chord contains a 4-cycle, so it is already
    one of the completed ones."""
    found = {tuple(sorted(walk)) for walk in _walks(sup, meets)}
    if len(sup) == 3:
        for (a, b), meet in meets.items():
            for pair in itertools.combinations(meet, 2):
                found.update(tuple(sorted({*pair, c})) for c in sup[3 - a - b] - set(pair))
    return sorted(found)


def _pattern(sup: Sequence[set[int]], cols: Sequence[int]) -> str:
    # bit b of a column's mask is set when the column meets row b
    masks = [sum(1 << b for b, s in enumerate(sup) if c in s) for c in cols]
    if all(m == (1 << len(sup)) - 1 for m in masks):
        return PATTERN_FULL
    if sorted(masks) == [0b011, 0b101, 0b110]:  # the columns of a 6-cycle
        return PATTERN_CYCLE
    return PATTERN_MIXED


def check_minors(spec: CodeSpec, size: int, j: Optional[int] = None,
                 budget: int | Meter = DEFAULT_BUDGET) -> MinorReport:
    """Check every not-trivially-zero size x size minor of the sliding matrix.

    Minors are counted, not listed.  Per row tuple, inclusion-exclusion
    over the row supports A, B (, C) gives the number T of transversals,
    one column per row and all columns distinct: |A||B| - |A&B| for two
    rows, |A||B||C| - |A&B||C| - |A&C||B| - |B&C||A| + 2|A&B&C| for three.
    A column set with t nonzero transversals takes t of them, so the
    minors that admit one number T less the sum of t - 1 over the sets
    with t >= 2.  Only those sets can vanish, and only they are evaluated.
    Fully-nonzero minors number C(|A&B(&C)|, size) and cycle-pattern ones
    the product over the row pairs of |pair meet| - |A&B&C|.
    """
    if size not in (2, 3):
        raise ValueError(f"minor size must be 2 or 3, got {size}")
    if j is None:
        j = spec.mu
    matrix = spec.sliding_matrix(j)
    meter = as_meter(budget)
    counts = dict.fromkeys((PATTERN_FULL, PATTERN_CYCLE, PATTERN_MIXED), 0)
    failures = []
    for rows, sup, meets in _row_tuples(matrix, size):
        col_sets = _vanishable(sup, meets)
        meter.charge(1 + len(set().union(*sup)) + len(col_sets))
        common = len(meets[0, 1] & sup[-1])
        if size == 2:
            total, cycle = len(sup[0]) * len(sup[1]) - common, 0
        else:
            a, b, c = map(len, sup)
            ab, bc, ac = (len(meets[k]) for k in ((0, 1), (1, 2), (0, 2)))
            total = a * b * c - ab * c - ac * b - bc * a + 2 * common
            cycle = (ab - common) * (bc - common) * (ac - common)
        for cols in col_sets:
            total -= sum(all(col in s for col, s in zip(perm, sup))
                         for perm in itertools.permutations(cols)) - 1
            d = gf.det(spec.field, matrix.submatrix(rows, cols))
            if d is ZERO:
                failures.append(MinorFailure(rows, cols, _pattern(sup, cols), d))
        full = math.comb(common, size)
        counts[PATTERN_FULL] += full
        counts[PATTERN_CYCLE] += cycle
        counts[PATTERN_MIXED] += total - full - cycle
    if size == 2:
        del counts[PATTERN_CYCLE]
    return MinorReport(size=size, horizon=j, checked=sum(counts.values()),
                       class_counts=counts, failures=tuple(failures))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TannerCycle:
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    matrix: tuple[tuple[FieldElement, ...], ...]
    singular: bool


@dataclass(frozen=True)
class CycleReport:
    length: int
    horizon: int
    cycles: tuple[TannerCycle, ...]
    frc_failures: tuple[TannerCycle, ...]
    girth: Optional[int]

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


def _girth(matrix: ExponentMatrix, meter: Meter) -> Optional[int]:
    """4 or 6, or None (with no 4-cycle, every 6-cycle is chordless, so walked)."""
    for size in (2, 3):
        for _, sup, meets in _row_tuples(matrix, size):
            meter.charge(1 + len(set().union(*sup)))
            if _walks(sup, meets):
                return 2 * size
    return None


def enumerate_cycles(spec: CodeSpec, length: int, j: Optional[int] = None,
                     budget: int | Meter = DEFAULT_BUDGET) -> CycleReport:
    """All Tanner-graph cycles of the given length with their cycle matrices.

    A cycle of length 2d is recorded through the d rows and d columns it
    touches; the full-rank condition fails exactly when the determinant of
    that submatrix is zero.  Within a row triple, 6-cycles are ordered by
    their columns (c12, c23, c13) along the walk.
    """
    if length not in (4, 6):
        raise ValueError(f"cycle length must be 4 or 6, got {length}")
    if j is None:
        j = spec.mu
    matrix = spec.sliding_matrix(j)
    meter = as_meter(budget)
    cycles = []
    for rows, sup, meets in _row_tuples(matrix, length // 2):
        walks = _walks(sup, meets)
        meter.charge(1 + len(set().union(*sup)) + len(walks))
        for walk in walks:
            cols = tuple(sorted(walk))
            grid = matrix.submatrix(rows, cols)
            cycles.append(TannerCycle(
                rows=rows, cols=cols, matrix=tuple(tuple(row) for row in grid),
                singular=gf.det(spec.field, grid) is ZERO,
            ))
    return CycleReport(
        length=length, horizon=j, cycles=tuple(cycles),
        frc_failures=tuple(c for c in cycles if c.singular), girth=_girth(matrix, meter),
    )


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def minimal_column_weight(spec: CodeSpec, j: int) -> int:
    """Smallest number of nonzeros an information column keeps after j+1 rows."""
    return min(sum(1 for a in t if a <= j + 1) for t in spec.dts.sets)


def _spanning_supports(field: GaloisField, matrix: ExponentMatrix, rows: Sequence[int],
                       first: int, n_first: int, ub: int, meter: Meter):
    """``(d, cols)`` for each closed support of d < ub columns whose lowest
    column, one of the ``n_first`` from column ``first`` on, lies in the
    span of the others on ``rows``, level by level in increasing d.  Only
    the row supports of ``rows`` are read; columns count from 0 at ``first``.

    A column t lies in the span of a set S exactly when some circuit C of
    the column matroid has t in C and C within S + {t}.  A circuit carries
    a kernel vector nonzero on all of it, so no row meets C exactly once,
    and its Tanner subgraph is connected, since its components would carry
    kernel vectors of their own.  Supports are grown one column at a time
    from each first column: when a row is met exactly once, only the
    columns of the lowest such row are tried, as C must cover it again;
    when no row is met once (the support is closed) but its lowest column
    is outside the span of the others, every column sharing a row with it
    is tried, as C stays connected.  Either way a subset of C through its
    lowest column has a child that is a larger subset of C, so C is
    reached.  A spanning support is yielded and not grown further, which
    cuts no path to a circuit: no proper subset of C through t spans t.
    The branches of a support depend on it alone, so each is visited once
    per size.  Only closed supports are tested, on the rows they touch.
    One step is charged per support visited.
    """
    # column c meets rows[b]: bit b of masks[c] and bit c of row_cols[b]
    met = [[c - first for c in matrix.row_support(r) if c >= first] for r in rows]
    row_cols = [sum(1 << c for c in cols) for cols in met]
    masks = [0] * (matrix.cols - first + 1)
    for b, cols in enumerate(met):
        for c in cols:
            masks[c] |= 1 << b
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
                vecs = [[matrix.get(rows[b], first + c) for b in touched] for c in cols]
                if _in_span(field, vecs[0], vecs[1:]):
                    yield d, cols
                    continue
                branch = 0
                for b in touched:
                    branch |= row_cols[b]
            if d + 1 < ub:
                grown.update(sup | 1 << c for c in _bits(branch & ~sup))
        level = grown


def _min_weight_first_block(field: GaloisField, matrix: ExponentMatrix,
                            n_first: int, ub: int, meter: Meter) -> int:
    """Smallest weight of a kernel vector whose first block is nonzero.

    ``ub`` must be a weight achieved by an explicit kernel vector; only
    smaller weights are searched.  Equals the smallest d such that one of
    the first ``n_first`` columns lies in the span of d-1 other columns:
    the size of the first spanning support, since the support of a least
    such kernel vector is a circuit whose lowest column is in the first
    block (a kernel vector on a proper subset either has a nonzero first
    block itself, or cancels one entry while keeping the first block).
    """
    rows = range(1, matrix.rows + 1)
    return next((d for d, _ in _spanning_supports(field, matrix, rows, 1, n_first, ub, meter)), ub)


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
    return _min_weight_first_block(spec.field, matrix, spec.n, ub, as_meter(budget))


@dataclass(frozen=True)
class FreeDistanceResult:
    value: int
    exact: bool
    horizon: int
    upper_bound: int


def exact_horizon(spec: CodeSpec) -> int:
    """Smallest search horizon at which ``free_distance`` is exact."""
    return (spec.w - 1) * spec.mu + 1


def free_distance(spec: CodeSpec, horizon: Optional[int] = None,
                  budget: int | Meter = DEFAULT_BUDGET) -> FreeDistanceResult:
    """Free distance, exact whenever the search horizon covers it.

    A weight-(w+1) codeword always exists (one information symbol plus the
    w parities its column forces), so only weights up to w are searched.
    A minimum-weight codeword splits into two shorter ones as soon as its
    information word has mu consecutive zero blocks, hence searching
    degrees up to (w-1)*mu is exhaustive and the result exact; a larger
    horizon is searched only that far.  With a smaller explicit horizon the
    column distance at that horizon is returned as a certified lower bound.
    """
    if horizon is None:
        horizon = exact_horizon(spec)
    ub = spec.w + 1
    exact = horizon >= exact_horizon(spec)
    if exact:
        matrix = spec.full_sliding_matrix(exact_horizon(spec) + 1)
        value = _min_weight_first_block(spec.field, matrix, spec.n, ub, as_meter(budget))
    else:
        value = column_distance(spec, horizon, budget)
    return FreeDistanceResult(value=value, exact=exact, horizon=horizon, upper_bound=ub)


# ---------------------------------------------------------------------------
# distance assumption check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionWitness:
    rows: tuple[int, ...]
    cols: tuple[int, ...]


@dataclass(frozen=True)
class AssumptionReport:
    holds: bool
    witnesses: tuple[AssumptionWitness, ...]


def check_distance_assumptions(spec: CodeSpec, budget: int | Meter = DEFAULT_BUDGET) -> AssumptionReport:
    """Hypothesis test for the distance formulas.

    For every column set J of size up to w whose smallest member j1 is an
    information column of the first block, and every row set I of the same
    size containing the support of column j1, the restricted column j1
    must stay outside the span of the other restricted columns.  Since
    that support already has w rows, only |I| = |J| = w occurs and I is
    forced to the support itself.

    ``_spanning_supports`` runs on the sliding matrix from column j1 alone,
    on its rows, reading the columns from j1 on.  A set S of w-1 later
    columns spans j1 exactly when some circuit through j1 lies within
    S + {j1}, and each such circuit is yielded, so the witnesses are the
    (w-1)-sets that contain a yielded support less j1: each is padded with
    every choice of the other later columns, and the witnesses are listed
    in the order of their column sets.  One step is charged per support
    visited and one per padded column set.
    """
    matrix = spec.sliding_matrix(spec.mu)
    w = spec.w
    meter = as_meter(budget)
    witnesses = []
    for j1 in range(1, spec.n):
        rows = matrix.col_support(j1)
        combos = set()
        for d, cols in _spanning_supports(spec.field, matrix, rows, j1, 1, w + 1, meter):
            part = {j1 + c for c in cols[1:]}
            others = [c for c in range(j1 + 1, matrix.cols + 1) if c not in part]
            meter.charge(math.comb(len(others), w - d))
            combos.update(tuple(sorted(part.union(pad)))
                          for pad in itertools.combinations(others, w - d))
        witnesses += (AssumptionWitness(rows=rows, cols=(j1, *combo)) for combo in sorted(combos))
    return AssumptionReport(holds=not witnesses, witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# combined profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceProfile:
    column_distances: tuple[int, ...]
    free: FreeDistanceResult
    predicted_free: int
    predicted_column: tuple[int, ...]
    assumption_check: AssumptionReport

    def to_json_dict(self) -> dict:
        return {
            "schema": "distance-profile/v1",
            "column_distances": list(self.column_distances),
            "free_distance": self.free.value,
            "free_distance_exact": self.free.exact,
            "free_distance_upper_bound": self.free.upper_bound,
            "horizon": self.free.horizon,
            "predicted_free": self.predicted_free,
            "predicted_column": list(self.predicted_column),
            "assumption_holds": self.assumption_check.holds,
        }


def distance_profile(spec: CodeSpec, budget: int | Meter = DEFAULT_BUDGET) -> DistanceProfile:
    meter = as_meter(budget)
    return DistanceProfile(
        column_distances=tuple(column_distance(spec, j, meter) for j in range(spec.mu + 1)),
        free=free_distance(spec, budget=meter),
        predicted_free=spec.w + 1,
        predicted_column=tuple(minimal_column_weight(spec, j) + 1 for j in range(spec.mu + 1)),
        assumption_check=check_distance_assumptions(spec, meter),
    )
