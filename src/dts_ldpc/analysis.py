"""Structural verification of a constructed code.

Three families of checks, all exact:

* minors — every 2x2 or 3x3 submatrix of a sliding matrix whose zero
  pattern admits a nonzero transversal (one entry per row and column) is
  checked; any vanishing determinant is a failure witness.  Only those
  with two or more nonzero transversals, the cycles and the completions
  of 4-cycles, can vanish; those with exactly two are decided by a
  divisibility test on their exponents, the rest are evaluated.  The
  counts come in closed form;
* cycles — 4-cycles (two rows sharing two columns) and 6-cycles (row and
  column triples whose submatrix has exactly two nonzeros per row and per
  column), with the full-rank condition on their cycle matrices, decided
  by the same test.  Each is a translate of one of a few classes, read
  off the differences that the sets of the DTS share, with no matrix;
* distances — column distances and the free distance through the span
  criterion: the smallest d such that some column of the first block lies
  in the span of d-1 other columns, searched in increasing d.  The
  columns of a smallest such combination form a circuit of the column
  matroid: no row meets them exactly once and their Tanner subgraph is
  connected.  So supports are grown from the first block, row by row,
  instead of trying every column combination.  The assumption check is
  closed-form over the columns that meet one row of an information
  column; when it holds the distance profile reads every column distance
  and the free distance off it.  The search and the check read columns,
  rows and entries off the marks (``CodeSpec.marks``), with no matrix.

Failing witnesses are reported with 1-based row/column indices of the
matrix they were found in.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Optional, Sequence

from . import gf
from .code import CodeSpec
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


def _cycle_classes(spec: CodeSpec, length: int, j: int) -> list[tuple]:
    """The classes of ``length`` 4 or 6 in ``CodeSpec.cycle_classes`` with
    a translate within horizon j (last row c0 <= j + 1, ``_reach`` j + 2 -
    c0), as (rows, walk, singular): by ``_two_terms_cancel`` a 4-cycle,
    its transversals of opposite parities, is singular iff D = 0 mod
    (q - 1), and a 6-cycle, of one parity, iff D = s, alpha**s = -1."""
    if j < 0:
        raise ValueError("horizon j must be >= 0")
    return [(rows, walk, _two_terms_cancel(spec.field, d, length == 6))
            for rows, walk, d in spec.cycle_classes[length] if rows[-1] <= j + 1]


def _reach(rows: tuple[int, ...], j: int) -> int:
    """Translates within horizon j, unclamped, of a class or near shape
    first at ``rows``: callers count them only of those with one within j."""
    return j + 2 - rows[-1]


def _translates(cls: tuple, j: int, n: int) -> list[tuple]:
    """(rows, walk, singular) of each translate of a class within horizon j."""
    rows, walk, singular = cls
    return [(tuple([r + t for r in rows]), tuple([c + t * n for c in walk]), singular)
            for t in range(_reach(rows, j))]


def _near_shapes(spec: CodeSpec, four: tuple) -> set:
    """The near completions of a 4-cycle class, each as (rows, cols) at
    its first translate (``check_minors``): by a row r of c1 or c2 and a
    column c, not c1 or c2, that meets r and a or b, a witness of |r - a|
    or |r - b|, in a block -u <= 0, moved down u rows."""
    n, ((a, b), (c1, c2), _), shapes = spec.n, four, set()
    origins = [spec.column_origin(c) for c in (c1, c2)]
    for r in {block + m for block, index in origins for m in spec.marks[index]} - {a, b}:
        rows = (r, a, b) if r < a else (a, r, b) if r < b else (a, b, r)
        for x in a, b:
            low = min(r, x)
            for _, m, c0 in spec.witnesses.get(abs(r - x), ()):
                c, u = low * n + c0, m - low if m > low else 0
                if c != c1 and c != c2:
                    cols = (c, c1, c2) if c < c1 else (c1, c, c2) if c < c2 else (c1, c2, c)
                    shapes.add((tuple([i + u for i in rows]), tuple([i + u * n for i in cols])))
    return shapes


def _factorable_failures(spec: CodeSpec, j: int, rows: tuple[int, int], cols: tuple[int, int]):
    """The factorable completions at horizon j of the 4-cycle ``cols`` of
    rows ``rows`` = (a, b), as failures (``check_minors``): by a row r and a
    column c of r, other than c1 and c2, where r misses c1 and c2 or c
    misses a and b."""
    (a, b), (c1, c2) = rows, cols
    at_a, at_b = spec.row_columns(a), spec.row_columns(b)
    for r in range(1, j + 2):
        at_r = spec.row_columns(r)
        near = c1 in at_r or c2 in at_r
        for c in at_r:
            if r not in rows and c not in cols and not (near and (c in at_a or c in at_b)):
                yield MinorFailure(tuple(sorted((a, b, r))), tuple(sorted((c1, c2, c))), PATTERN_MIXED)


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
        picked = [row[i] for row, i in zip(grid, perm)]
        if None not in picked:
            found.append((sum(picked), odd))
    return found


def _two_terms_cancel(field: GaloisField, d: int, agree: bool) -> bool:
    """Whether two transversals whose exponent sums differ by d sum to zero:
    d = 0 mod (q - 1) when their parities differ, d = log(-1) when they agree."""
    return (d - (field._neg_shift if agree else 0)) % (field.q - 1) == 0


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
    the pair meets, T is e2(w) - sum |M_ab| for pairs and e3(w) - sum
    |M_ab| (W - w_a - w_b) + 2 sum C(|col|, 3) for triples, as each pair
    takes every other row as the third and the triples sharing a column
    are counted per column.  All of it is read off the marks: row r meets
    the parity column of block r - 1 and the columns (r - m, k), m <= r in
    T_k (``CodeSpec.row_columns``), so w_r counts the marks <= r and is one
    value from the scope on, and the columns of T_k meet rows s + m, so the
    pairs and triples topped by its i-th mark m (1-based), i - 1 and
    C(i - 1, 2) of them, are each met j + 2 - m times.

    A 2x2 set of two transversals is a 4-cycle, fully nonzero.  A 3x3 set
    of two or more is a 6-cycle or completes a 4-cycle.  Two transversals
    differing by a transposition share a nonzero (r, c), and their other
    four entries are a 4-cycle (c1, c2) of rows a, b.  Two differing by a
    3-cycle make a 6-cycle: chordless, it is the cycle pattern (two
    nonzeros per row and column); with a chord (i, k), row i and the first
    transversal's row in column k share k and that transversal's column in
    row i, a 4-cycle completed by its entry in the third row.  The cycles
    are the translates of their classes (``_cycle_classes``).

    Factorable completions.  If row r is zero on c1 and c2, or column c on
    rows a and b, expanding along it gives det = +-entry(r, c) *
    det(rows a, b; cols c1, c2).  So the set has two transversals, vanishes
    exactly when the 4-cycle does, and is mixed (a line holds one nonzero).
    It completes no other 4-cycle.  In the first case every 4-cycle of the
    set avoids row r, so it lies on a, b and is completed by r's one
    nonzero c; in the second every one avoids column c, so it is (c1, c2),
    completed by the row meeting c.  Per 4-cycle, the completions by a
    column of a third row, other than c1, c2, number W - w_a - w_b -
    (|col c1| - 2) - (|col c2| - 2), summed over a class's translates in
    closed form.  All but the near ones (r meets c1 or c2 and c meets a or
    b) factor, come off T, and fail, listed one step each, when the
    4-cycle is singular.  A near set moves with its 4-cycle, so the near
    sets are the translates of the classes' near shapes; the shapes form
    one set, so a set holding several 4-cycles is evaluated once for all
    its translates.  A fully-nonzero set is one (each row pair is a
    4-cycle met by the third row), so a near set is fully nonzero exactly
    when all six of its transversals are nonzero, and mixed otherwise.

    Every entry is a power of alpha, so a transversal with exponent sum E
    and permutation parity sigma adds (-1)**sigma * alpha**E.  Two cancel
    iff alpha**D = -(-1)**(sigma1 - sigma2), D = E1 - E2.  Alpha has order
    q - 1, and -1 = alpha**s: s = (q - 1)/2 for odd p, the element of
    order 2, and s = 0 in characteristic 2 (``field._neg_shift``).  So a
    set of two transversals vanishes iff D = 0 mod (q - 1) when their
    parities differ and D = s when they agree, with no field operation; a
    cycle's D is its class's.  One walk of a near shape's permutations over
    its entries (``CodeSpec.column_entries``) gives t and its terms; only
    shapes of three or more are evaluated, by ``gf.det``.

    Charges: 1 per class within j, then, each before its walk, 1 per
    failing cycle and failing factorable completion, 1 per near shape
    within j and 1 per translate of a failing one; the counts take none.
    """
    if size not in (2, 3):
        raise ValueError(f"minor size must be 2 or 3, got {size}")
    j = spec.mu if j is None else j
    meter = as_meter(budget)
    n, scope, sets, height = spec.n, spec.scope, spec.dts.sets, j + 1
    four = _cycle_classes(spec, 4, j)
    six = _cycle_classes(spec, 6, j) if size == 3 else []
    meter.charge(len(four) + len(six))
    weights = list(itertools.accumulate(sum(r in t for t in spec.marks) for r in range(1, scope + 1)))
    kept, past, full = weights[:height], max(0, height - scope), weights[-1]
    p1, p2 = sum(kept) + past * full, sum(w * w for w in kept) + past * full**2
    # (i, s): the i marks below a mark m <= j + 1 of a set, and the s columns that meet row m last
    tops = [(i, height + 1 - m) for t_k in sets for i, m in enumerate(t_k) if m <= height]
    failures: list[MinorFailure] = []

    def cycles(classes: list, pattern: str) -> int:  # their number, the singular ones listed
        singular = [cls for cls in classes if cls[2]]
        meter.charge(sum(_reach(rows, j) for rows, *_ in singular))
        failures.extend(MinorFailure(rows, tuple(sorted(walk)), pattern)
                        for cls in singular for rows, walk, _ in _translates(cls, j, n))
        return sum(_reach(rows, j) for rows, *_ in classes)

    if size == 2:
        four_cycles = cycles(four, PATTERN_FULL)
        total = (p1 * p1 - p2) // 2 - sum(i * s for i, s in tops) - four_cycles
        counts = {PATTERN_FULL: four_cycles, PATTERN_MIXED: total - four_cycles}
        return MinorReport(size=size, horizon=j, class_counts=counts, failures=tuple(sorted(failures)))
    six_cycles = cycles(six, PATTERN_CYCLE)
    prefix = [0, *itertools.accumulate(weights)]

    def upto(r: int) -> int:  # w_1 + ... + w_r
        return prefix[r] if r <= scope else prefix[scope] + (r - scope) * full

    # sum |M_ab| (W - w_a - w_b): marks m1 < m2 of T_k meet rows m1 + s, m2 + s, s <= j + 1 - m2
    spread = sum((height - m2) * p1 - upto(height - m2 + m1) + upto(m1 - 1) + upto(m2 - 1)
                 for t_k in sets for m1, m2 in itertools.combinations(t_k, 2) if m2 <= height)
    total = ((p1**3 - 3 * p1 * p2 + 2 * (sum(w**3 for w in kept) + past * full**3)) // 6
             + 2 * sum(math.comb(i, 2) * s for i, s in tops) - spread - six_cycles)
    shapes = set()
    for cls in four:
        (a, b), (c1, c2), singular = cls
        near = {shape for shape in _near_shapes(spec, cls) if _reach(shape[0], j) > 0}
        shapes |= near
        count = _reach((a, b), j)
        factorable = (count * (p1 + 4) - p1 - upto(height - b + a) + upto(a - 1) + upto(b - 1)
                      - sum(_reach(rows, j) for rows, _ in near))
        for c in c1, c2:  # the weights of its columns over the translates
            t, k = spec.column_origin(c)
            factorable -= sum(min(count, height + 1 - t - m) for m in spec.marks[k] if t + m <= height)
        total -= factorable
        if singular:
            meter.charge(factorable)
            for rows, walk, _ in _translates(cls, j, n):
                failures += _factorable_failures(spec, j, rows, walk)
    meter.charge(len(shapes))
    fully = 0
    for rows, cols in shapes:
        count = _reach(rows, j)
        grid = list(zip(*(spec.column_entries(c, rows) for c in cols)))
        terms = _transversals(grid)
        total -= (len(terms) - 1) * count
        fully += count if len(terms) == 6 else 0
        if (_two_terms_cancel(spec.field, terms[0][0] - terms[1][0], terms[0][1] == terms[1][1])
                if len(terms) == 2 else gf.det(spec.field, grid) is ZERO):
            meter.charge(count)
            pattern = PATTERN_FULL if len(terms) == 6 else PATTERN_MIXED
            failures.extend(MinorFailure(*translate[:2], pattern)
                            for translate in _translates((rows, cols, None), j, n))
    counts = {PATTERN_FULL: fully, PATTERN_CYCLE: six_cycles, PATTERN_MIXED: total - fully - six_cycles}
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
    that submatrix is zero.  The cycles are the translates of their classes
    (``_cycle_classes``), listed by rows, then by their columns along the
    walk, (c1, c2) or (c12, c23, c13), each decided by its class's D: no
    submatrix is built and no permutation tried.  The girth is 4 if a
    4-cycle class has a translate at j, else 6 if a 6-cycle class has, else
    None.  One step is charged per class within j, and one where the girth
    reads a class of the other length, then one per cycle listed, before
    any is.
    """
    if length not in (4, 6):
        raise ValueError(f"cycle length must be 4 or 6, got {length}")
    j = spec.mu if j is None else j
    meter = as_meter(budget)
    four = _cycle_classes(spec, 4, j)
    six = _cycle_classes(spec, 6, j) if length == 6 or not four else []
    classes = four if length == 4 else six
    meter.charge(len(classes) + min(1, len(six if length == 4 else four)))
    meter.charge(sum(_reach(rows, j) for rows, *_ in classes))
    walks = sorted(itertools.chain.from_iterable(_translates(cls, j, spec.n) for cls in classes))
    return CycleReport(length=length, horizon=j, girth=4 if four else 6 if six else None,
                       cycles=tuple(TannerCycle(rows, walk if length == 4 else tuple(sorted(walk)),
                                                singular) for rows, walk, singular in walks))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def minimal_column_weight(spec: CodeSpec, j: int) -> int:
    """Smallest number of nonzeros an information column keeps after j+1 rows."""
    return min(sum(1 for a in t if a <= j + 1) for t in spec.dts.sets)


def _min_weight_first_block(spec: CodeSpec, rows: int, last: int, ub: int, meter: Meter) -> int:
    """Smallest weight of a kernel vector whose first block is nonzero, of
    the sliding matrix cut to ``rows`` rows and ``last`` columns.

    ``ub`` must be a weight achieved by an explicit kernel vector; only
    smaller weights are searched.  Equals the smallest d such that one of
    the n columns of the first block lies in the span of d-1 other columns:
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
    they touch, their entries read by ``CodeSpec.column_entries``.  A
    column's rows and a row's columns (``CodeSpec.row_columns``) are read
    off the marks when the search first reaches them.  One step is charged
    per support visited.
    """
    # column c + 1 meets row b + 1: bit b of masks[c] and bit c of row_cols[b]
    masks = Memo(lambda c: sum(1 << (block + m - 1) for block, index in [spec.column_origin(c + 1)]
                               for m in spec.marks[index] if block + m <= rows))
    row_cols = Memo(lambda b: sum(1 << (c - 1) for c in spec.row_columns(b + 1) if c <= last))
    level = {1 << t for t in range(spec.n)}
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
                vecs = [spec.column_entries(c + 1, [b + 1 for b in touched]) for c in cols]
                if _in_span(spec.field, vecs[0], vecs[1:]):
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
    if j < 0:
        raise ValueError("horizon j must be >= 0")
    ub = minimal_column_weight(spec, j) + 1
    return _min_weight_first_block(spec, j + 1, spec.n * (j + 1), ub, as_meter(budget))


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
    blocks = exact_horizon(spec) + 1
    return _min_weight_first_block(spec, blocks + spec.mu, spec.n * blocks, spec.w + 1, as_meter(budget))


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
    is the mark a = T_j1[b].  Column (s, k), ``CodeSpec.column_at(s, k)``,
    meets row a iff a - s is in marks[k], so the later columns meeting R
    are those past j1 of ``CodeSpec.row_columns(a)``, a in T_j1; s <= mu,
    so every one is in the matrix at horizon mu.  The parity column of
    block a - 1 meets row a and no other row of R: every row of R has a
    single-row column of its own, later than j1.

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
    w = spec.w
    meter = as_meter(budget)
    minimal = []  # (rows, j1, P, the single-row columns of each row of R') per minimal pair
    for j1, rows in enumerate(spec.dts.sets, start=1):
        met: dict[int, list[int]] = {}  # later column -> positions in rows it meets
        for b, a in enumerate(rows):
            for c in spec.row_columns(a):
                if c > j1:
                    met.setdefault(c, []).append(b)
        meter.charge(len(met))
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
            single = [sorted(c for c in met if met[c] == [b]) for b in range(w)]
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
    The check, the searches and the predictions read only the marks, so
    no profile builds a matrix.
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
