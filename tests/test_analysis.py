"""Minor, cycle, and distance checks against hand-verified references.

The two reference codes over GF(32) come with hand-verified column-distance
sequences and with cycle/minor inventories recomputed here independently
(see the frozen constants).  The known collapse of same-column 3x3 cycle
patterns over characteristic-2 fields is asserted as ground truth.
"""

import itertools
import random
import tracemalloc

import pytest

from dts_ldpc import analysis as an
from dts_ldpc.code import CodeSpec, ExponentMatrix, sliding_entry_origin
from dts_ldpc.dts import DifferenceTriangleSet, validate
from dts_ldpc.errors import BudgetExhausted, HorizonTooLarge
from dts_ldpc.gf import ZERO, GaloisField, det, make_field

# Singular 3x3 cycle patterns in H_5^c over GF(2^5): each is built from
# three shifts of one information column, where both diagonal products
# carry the same exponent and cancel in characteristic 2.
REF_A_MINOR3_FAILURES = (
    ((2, 3, 4), (2, 5, 8)),
    ((2, 4, 5), (2, 5, 11)),
    ((3, 4, 5), (5, 8, 11)),
    ((3, 5, 6), (5, 8, 14)),
    ((4, 5, 6), (8, 11, 14)),
)
REF_B_MINOR3_FAILURES = (
    ((3, 4, 5), (2, 5, 8)),
    ((3, 5, 6), (2, 5, 11)),
    ((4, 5, 6), (5, 8, 11)),
)

# Seeded random families compared against the dense sweep and the
# combination search.
FAMILIES = 80
DISTANCE_FAMILIES = 60


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_reference_column_distance_sequences(ref_spec_a, ref_spec_b):
    assert tuple(an.column_distance(ref_spec_a, j) for j in range(6)) == (2, 3, 3, 3, 3, 4)
    assert tuple(an.column_distance(ref_spec_b, j) for j in range(6)) == (1, 2, 3, 3, 3, 4)


def test_free_distance_of_references(ref_spec_a, ref_spec_b):
    for spec in (ref_spec_a, ref_spec_b):
        res = an.free_distance(spec)
        assert res.value == 4 == spec.w + 1
        assert res.exact
        assert res.upper_bound == 4


def test_minimal_column_weight_sequence(ref_spec_b):
    assert tuple(an.minimal_column_weight(ref_spec_b, j) for j in range(6)) == (0, 1, 2, 2, 2, 3)


def test_distance_profile_predictions_and_json(ref_spec_a):
    prof = an.distance_profile(ref_spec_a)
    assert prof.column_distances == prof.predicted_column == (2, 3, 3, 3, 3, 4)
    assert prof.free.value == prof.predicted_free == 4
    assert prof.assumption_check.holds
    d = prof.to_json_dict()
    assert d["schema"] == "distance-profile/v1"
    assert d["column_distances"] == [2, 3, 3, 3, 3, 4]
    assert d["free_distance"] == 4
    assert d["free_distance_exact"] is True
    assert d["assumption_holds"] is True


def test_assumption_fails_on_identical_columns():
    # two equal information columns make the span condition fail outright
    gf4 = make_field(2, 2)
    spec = CodeSpec(DifferenceTriangleSet(((3, 6), (3, 6))), gf4, 3)
    report = an.check_distance_assumptions(spec)
    assert not report.holds
    assert report.witnesses[0].rows == (3, 6)
    assert report.witnesses[0].cols == (1, 2)
    res = an.free_distance(spec)
    assert res.exact and res.value == 2 < spec.w + 1


def test_column_distances_nondecreasing_and_saturating(ref_spec_a, ref_spec_b):
    for spec in (ref_spec_a, ref_spec_b):
        seq = [an.column_distance(spec, j) for j in range(spec.mu + 1)]
        assert all(a <= b for a, b in zip(seq, seq[1:]))
        assert seq[-1] == an.free_distance(spec).value


@pytest.mark.parametrize("sets, p, deg", [
    ("1,2,6;1,2,4", 2, 5),
    ("1,2,6;2,3,5", 2, 5),
    ("1,2,5,7;1,3,7,8", 2, 3),
])
def test_free_distance_past_the_exactness_threshold(sets, p, deg):
    dts = DifferenceTriangleSet.from_inline(sets)
    spec = CodeSpec(dts, make_field(p, deg), dts.num_sets + 1)
    threshold = an.exact_horizon(spec)
    outcomes = set()
    for horizon in (threshold, threshold + 1, 40):
        meter = an.Meter(an.DEFAULT_BUDGET)
        res = an.free_distance(spec, horizon, meter)
        assert res.exact and res.horizon == horizon
        outcomes.add((res.value, meter.used))
    assert len(outcomes) == 1


def test_free_distance_lower_bound_mode(ref_spec_a):
    res = an.free_distance(ref_spec_a, horizon=2)
    assert not res.exact
    assert res.value == 3 == an.column_distance(ref_spec_a, 2)
    assert res.upper_bound == 4


def test_trivial_code_free_distance(gf7):
    spec = CodeSpec(DifferenceTriangleSet(((1,),)), gf7, 2)
    res = an.free_distance(spec)
    assert res.exact and res.value == 2


def _brute_force_column_distance(sets, field, n, j):
    """Enumerate every truncated word from the parity recursion directly."""
    elems = list(field.elements())
    nsets = len(sets)
    best = None
    for u in itertools.product(elems, repeat=nsets * (j + 1)):
        blocks = [u[t * nsets:(t + 1) * nsets] for t in range(j + 1)]
        parities = []
        for t in range(j + 1):
            acc = ZERO
            for k in range(1, n):
                for a in sets[k - 1]:
                    if a - 1 <= t:
                        coef = field.alpha_pow(a * k)
                        acc = field.add(acc, field.mul(coef, blocks[t - (a - 1)][k - 1]))
            parities.append(field.neg(acc))
        if all(x is ZERO for x in blocks[0]) and parities[0] is ZERO:
            continue
        wt = sum(1 for t in range(j + 1)
                 for x in blocks[t] + (parities[t],) if x is not ZERO)
        if best is None or wt < best:
            best = wt
    return best


@pytest.mark.parametrize("sets,p,deg,n", [
    (((1, 3),), 2, 1, 2),
    (((1, 2),), 3, 1, 2),
    (((1, 2, 4),), 2, 2, 2),
    (((1, 3), (2, 3)), 2, 2, 3),
    (((2, 3), (1, 3)), 3, 1, 3),
    (((1, 2), (1, 3)), 2, 1, 3),
])
def test_span_criterion_matches_bruteforce(sets, p, deg, n):
    field = make_field(p, deg)
    spec = CodeSpec(DifferenceTriangleSet(sets), field, n)
    for j in range(min(spec.mu, 2) + 1):
        assert an.column_distance(spec, j) == _brute_force_column_distance(sets, field, n, j)


# ---------------------------------------------------------------------------
# the combination search as an oracle for the support search
# ---------------------------------------------------------------------------

def oracle_min_weight_first_block(field, matrix, n_first, ub):
    """Smallest d such that a first-block column lies in the span of d-1 others."""
    vectors = [matrix.column(c) for c in range(1, matrix.cols + 1)]
    masks = [sum(1 << (r - 1) for r in matrix.col_support(c))
             for c in range(1, matrix.cols + 1)]
    for d in range(1, ub):
        for target in range(n_first):
            tvec, tmask = vectors[target], masks[target]
            others = [c for c in range(matrix.cols) if c != target]
            for combo in itertools.combinations(others, d - 1):
                union = 0
                for c in combo:
                    union |= masks[c]
                if tmask & ~union:
                    continue
                if an._in_span(field, tvec, [vectors[c] for c in combo]):
                    return d
    return ub


def oracle_check_distance_assumptions(spec):
    """Every set of w-1 later columns tested against each information column."""
    matrix = spec.sliding_matrix(spec.mu)
    w = spec.w
    witnesses = []
    for j1 in range(1, spec.n):
        rows = matrix.col_support(j1)
        target = [matrix.get(r, j1) for r in rows]
        rest = range(j1 + 1, matrix.cols + 1)
        for combo in itertools.combinations(rest, w - 1):
            others = [[matrix.get(r, c) for r in rows] for c in combo]
            if an._in_span(spec.field, target, others):
                witnesses.append(an.AssumptionWitness(rows=rows, cols=(j1, *combo)))
    return an.AssumptionReport(holds=not witnesses, witnesses=tuple(witnesses))


def oracle_column_distance(spec, j):
    ub = an.minimal_column_weight(spec, j) + 1
    return oracle_min_weight_first_block(spec.field, spec.sliding_matrix(j), spec.n, ub)


def oracle_distance_profile(spec):
    horizon = an.exact_horizon(spec)
    free = oracle_min_weight_first_block(
        spec.field, spec.full_sliding_matrix(horizon + 1), spec.n, spec.w + 1)
    return an.DistanceProfile(
        column_distances=tuple(oracle_column_distance(spec, j) for j in range(spec.mu + 1)),
        free=an.FreeDistanceResult(value=free, exact=True, horizon=horizon,
                                   upper_bound=spec.w + 1),
        predicted_free=spec.w + 1,
        predicted_column=tuple(an.minimal_column_weight(spec, j) + 1
                               for j in range(spec.mu + 1)),
        assumption_check=oracle_check_distance_assumptions(spec),
    )


def test_support_search_matches_combination_oracle():
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 5))]
    rng = random.Random(2009)
    padded = 0
    for trial in range(DISTANCE_FAMILIES):
        field = fields[trial % len(fields)]
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        spec = CodeSpec(_random_relaxed_family(rng, n, w), field, n)
        expected = oracle_distance_profile(spec)
        assert an.distance_profile(spec) == expected, spec
        horizon = rng.randrange(an.exact_horizon(spec))
        assert an.free_distance(spec, horizon) == an.FreeDistanceResult(
            value=oracle_column_distance(spec, horizon), exact=False, horizon=horizon,
            upper_bound=w + 1), (spec, horizon)
        matrix = spec.sliding_matrix(spec.mu)
        padded += any(all(matrix.get(r, c) is None for r in wit.rows)
                      for wit in expected.assumption_check.witnesses for c in wit.cols[1:])
    # some witnesses hold columns that vanish on the support rows
    assert padded


def _random_strict_family(rng, n, w):
    while True:
        dts = DifferenceTriangleSet(tuple(tuple(sorted(rng.sample(range(1, 4 * w + 4), w)))
                                          for _ in range(n - 1)))
        if validate(dts, "strict").valid:
            return dts


def test_assumption_check_matches_combination_oracle():
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 5))]
    rng = random.Random(2009)
    specs = []
    for trial in range(FAMILIES):
        n, w = rng.randint(2, 4), rng.randint(2, 4)
        specs.append(CodeSpec(_random_relaxed_family(rng, n, w), fields[trial % len(fields)], n))
    for trial in range(12):
        n, w = rng.randint(2, 3), rng.randint(2, 3)
        specs.append(CodeSpec(_random_strict_family(rng, n, w), fields[trial % len(fields)], n))
    # w = 5, with 198 and 19 witnesses
    specs.append(CodeSpec(DifferenceTriangleSet.from_inline("1,2,5,10,12;1,2,5,10,12"), fields[0], 3))
    specs.append(CodeSpec(DifferenceTriangleSet.from_inline("1,2,5,10,12;1,3,8,11,12"), fields[3], 3))
    droppable = 0
    for spec in specs:
        expected = oracle_check_distance_assumptions(spec)
        assert an.check_distance_assumptions(spec) == expected, spec
        matrix = spec.sliding_matrix(spec.mu)
        for wit in expected.witnesses:
            target, *vecs = ([matrix.get(r, c) for r in wit.rows] for c in wit.cols)
            droppable += any(any(x is not None for x in vec) and an._in_span(
                spec.field, target, vecs[:k] + vecs[k + 1:]) for k, vec in enumerate(vecs))
    # some witness holds a column that meets the support rows yet can be
    # dropped: its set comes from padding a smaller spanning support
    assert droppable


def test_closed_support_that_does_not_span_is_grown():
    # three pairwise independent columns on the same two rows: {1, c} meets
    # no row once but spans nothing, and the answer needs all three
    gf5 = make_field(5, 1)
    matrix = ExponentMatrix(2, 3, {(1, 1): 0, (1, 2): 0, (1, 3): 0,
                                   (2, 1): 0, (2, 2): 1, (2, 3): 2}, gf5)
    meter = an.Meter(an.DEFAULT_BUDGET)
    assert an._min_weight_first_block(gf5, matrix, 1, 4, meter) == 3
    assert oracle_min_weight_first_block(gf5, matrix, 1, 4) == 3


def test_distance_charges_of_code_a(ref_spec_a):
    # one step per support visited, and in the assumption check one per
    # padded column set
    def charge(routine, *args):
        meter = an.Meter(an.DEFAULT_BUDGET)
        routine(ref_spec_a, *args, budget=meter)
        return meter.used

    assert [charge(an.column_distance, j) for j in range(6)] == [3, 6, 6, 6, 6, 18]
    assert charge(an.free_distance) == 18
    assert charge(an.check_distance_assumptions) == 18


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------

def test_minors_2x2_clean_on_references(ref_spec_a, ref_spec_b):
    ra = an.check_minors(ref_spec_a, 2)
    assert ra.ok and ra.checked == 399
    assert ra.class_counts == {an.PATTERN_FULL: 5, an.PATTERN_MIXED: 394}
    rb = an.check_minors(ref_spec_b, 2)
    assert rb.ok and rb.checked == 324
    assert rb.class_counts == {an.PATTERN_FULL: 4, an.PATTERN_MIXED: 320}


def test_minors_3x3_char2_cycle_collapses(ref_spec_a, ref_spec_b):
    ra = an.check_minors(ref_spec_a, 3)
    assert ra.checked == 2437
    assert ra.class_counts == {an.PATTERN_FULL: 0, an.PATTERN_CYCLE: 22,
                               an.PATTERN_MIXED: 2415}
    assert tuple((f.rows, f.cols) for f in ra.failures) == REF_A_MINOR3_FAILURES
    assert all(f.pattern == an.PATTERN_CYCLE for f in ra.failures)
    assert all(f.determinant is ZERO for f in ra.failures)
    rb = an.check_minors(ref_spec_b, 3)
    assert rb.checked == 1754
    assert rb.class_counts == {an.PATTERN_FULL: 0, an.PATTERN_CYCLE: 14,
                               an.PATTERN_MIXED: 1740}
    assert tuple((f.rows, f.cols) for f in rb.failures) == REF_B_MINOR3_FAILURES


def test_failing_cycle_patterns_have_equal_diagonal_products(ref_spec_a, gf32):
    matrix = ref_spec_a.sliding_matrix(5)
    for rows, cols in REF_A_MINOR3_FAILURES:
        grid = matrix.submatrix(rows, cols)
        products = []
        for perm in itertools.permutations(range(3)):
            entries = [grid[r][perm[r]] for r in range(3)]
            if all(e is not None for e in entries):
                acc = entries[0]
                for e in entries[1:]:
                    acc = gf32.mul(acc, e)
                products.append(acc)
        assert len(products) == 2 and products[0] == products[1]


def test_closed_form_matches_every_fully_nonzero_2x2(ref_spec_a, ref_spec_b, gf32):
    for spec in (ref_spec_a, ref_spec_b):
        matrix = spec.sliding_matrix(5)
        seen = 0
        for rows in itertools.combinations(range(1, matrix.rows + 1), 2):
            for cols in itertools.combinations(range(1, matrix.cols + 1), 2):
                grid = matrix.submatrix(rows, cols)
                if any(e is None for row in grid for e in row):
                    continue
                seen += 1
                (i, jj) = sliding_entry_origin(spec.n, rows[0], cols[0])
                (l, kk) = sliding_entry_origin(spec.n, rows[0], cols[1])
                r = rows[1] - rows[0]
                closed = gf32.mul(
                    gf32.alpha_pow(i * jj + l * kk),
                    gf32.sub(gf32.alpha_pow(r * kk), gf32.alpha_pow(r * jj)),
                )
                assert det(gf32, grid) == closed
        assert seen >= 4


def test_minor_report_json_shape(ref_spec_a):
    d = an.check_minors(ref_spec_a, 3).to_json_dict()
    assert d["schema"] == "minor-report/v1"
    assert d["minor_size"] == 3
    assert d["checked"] == 2437
    assert d["failures"][0] == {"rows": [2, 3, 4], "cols": [2, 5, 8],
                                "pattern": "cycle-pattern", "determinant": None}


def test_minor_size_guard(ref_spec_a):
    with pytest.raises(ValueError):
        an.check_minors(ref_spec_a, 4)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def test_cycle_counts_girth_and_pattern_invariant(ref_spec_a, ref_spec_b):
    expected = {id(ref_spec_a): (5, 22), id(ref_spec_b): (4, 14)}
    for spec in (ref_spec_a, ref_spec_b):
        c4 = an.enumerate_cycles(spec, 4)
        c6 = an.enumerate_cycles(spec, 6)
        assert (len(c4.cycles), len(c6.cycles)) == expected[id(spec)]
        assert c4.girth == c6.girth == 4
        for cyc in c4.cycles:
            assert all(e is not None for row in cyc.matrix for e in row)
        for cyc in c6.cycles:
            assert all(sum(e is not None for e in row) == 2 for row in cyc.matrix)
            for col in range(3):
                assert sum(cyc.matrix[r][col] is not None for r in range(3)) == 2


def test_cycle_frc_failures_match_char2_collapses(ref_spec_a, ref_spec_b):
    assert not an.enumerate_cycles(ref_spec_a, 4).frc_failures
    assert not an.enumerate_cycles(ref_spec_b, 4).frc_failures
    c6a = an.enumerate_cycles(ref_spec_a, 6)
    assert tuple((c.rows, c.cols) for c in c6a.frc_failures) == REF_A_MINOR3_FAILURES
    c6b = an.enumerate_cycles(ref_spec_b, 6)
    assert tuple((c.rows, c.cols) for c in c6b.frc_failures) == REF_B_MINOR3_FAILURES


def test_minor_cycle_duality(ref_spec_a, ref_spec_b):
    for spec in (ref_spec_a, ref_spec_b):
        m2 = an.check_minors(spec, 2)
        full_2x2 = {(f.rows, f.cols) for f in m2.failures if f.pattern == an.PATTERN_FULL}
        frc4 = {(c.rows, c.cols) for c in an.enumerate_cycles(spec, 4).frc_failures}
        assert full_2x2 == frc4 == set()
        m3 = an.check_minors(spec, 3)
        cyc_3x3 = {(f.rows, f.cols) for f in m3.failures if f.pattern == an.PATTERN_CYCLE}
        frc6 = {(c.rows, c.cols) for c in an.enumerate_cycles(spec, 6).frc_failures}
        assert cyc_3x3 == frc6 and frc6


def test_no_cycles_in_single_block_row(ref_spec_a):
    for length in (4, 6):
        rep = an.enumerate_cycles(ref_spec_a, length, j=0)
        assert not rep.cycles
        assert rep.girth is None
        assert rep.to_json_dict()["girth"] == ">6"


def test_cycle_length_guard(ref_spec_a):
    with pytest.raises(ValueError):
        an.enumerate_cycles(ref_spec_a, 8)


def test_cycle_report_json(ref_spec_b):
    d = an.enumerate_cycles(ref_spec_b, 6).to_json_dict()
    assert d["schema"] == "cycle-report/v1"
    assert d["length"] == 6
    assert d["girth"] == 4
    assert d["cycle_count"] == 14
    assert d["frc_failures"][0] == {"rows": [3, 4, 5], "cols": [2, 5, 8]}


# ---------------------------------------------------------------------------
# the dense sweep as an oracle for the minor and cycle enumeration
# ---------------------------------------------------------------------------

def _dense_sweep(spec, size, j):
    """Classify and evaluate every size x size submatrix; also list the cycles.

    Returns the minor report and the cycles of length 2*size: the
    fully-nonzero 2x2 and the cycle-pattern 3x3 submatrices, 6-cycles in
    (c12, c23, c13) walk order within each row triple.
    """
    matrix = spec.sliding_matrix(j)
    counts = {an.PATTERN_FULL: 0, an.PATTERN_CYCLE: 0, an.PATTERN_MIXED: 0}
    if size == 2:
        del counts[an.PATTERN_CYCLE]
    failures, cycles = [], []
    perms = list(itertools.permutations(range(size)))
    for rows in itertools.combinations(range(1, matrix.rows + 1), size):
        walks = []
        restricted = [None] + [[matrix.get(r, c) for r in rows]
                               for c in range(1, matrix.cols + 1)]
        for cols in itertools.combinations(range(1, matrix.cols + 1), size):
            grid = [list(row) for row in zip(*(restricted[c] for c in cols))]
            nz = [[x is not None for x in row] for row in grid]
            if not any(all(nz[r][p[r]] for r in range(size)) for p in perms):
                continue
            if all(map(all, nz)):
                pattern = an.PATTERN_FULL
            elif size == 3 and all(sum(line) == 2 for line in nz + list(zip(*nz))):
                pattern = an.PATTERN_CYCLE
            else:
                pattern = an.PATTERN_MIXED
            counts[pattern] += 1
            d = det(spec.field, grid)
            if d is ZERO:
                failures.append(an.MinorFailure(rows, cols, pattern, d))
            if pattern == (an.PATTERN_FULL if size == 2 else an.PATTERN_CYCLE):
                walk = cols
                if size == 3:
                    # c12 meets rows 1 and 2, c23 rows 2 and 3, c13 rows 1 and 3
                    met = [nz[0][k] + 2 * nz[1][k] + 4 * nz[2][k] for k in range(3)]
                    walk = tuple(cols[met.index(m)] for m in (0b011, 0b110, 0b101))
                walks.append((walk, an.TannerCycle(
                    rows=rows, cols=cols, matrix=tuple(tuple(row) for row in grid),
                    singular=d is ZERO)))
        cycles += [cyc for _, cyc in sorted(walks, key=lambda wc: wc[0])]
    report = an.MinorReport(size=size, horizon=j, checked=sum(counts.values()),
                            class_counts=counts, failures=tuple(failures))
    return report, cycles


def _random_relaxed_family(rng, n, w):
    sets = []
    while len(sets) < n - 1:
        s = tuple(sorted(rng.sample(range(1, w + 4), w)))
        if validate(DifferenceTriangleSet((s,)), "relaxed").valid:
            sets.append(s)
    return DifferenceTriangleSet(tuple(sets))


def test_enumeration_matches_dense_sweep():
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 3), (2, 5))]
    rng = random.Random(2006)
    failure_patterns = set()
    for trial in range(FAMILIES):
        field = fields[trial % len(fields)]
        n, w, j = rng.randint(2, 4), rng.randint(1, 4), rng.randint(0, 4)
        spec = CodeSpec(_random_relaxed_family(rng, n, w), field, n)
        dense = {size: _dense_sweep(spec, size, j) for size in (2, 3)}
        girth = 4 if dense[2][1] else 6 if dense[3][1] else None
        for size, (report, cycles) in dense.items():
            assert an.check_minors(spec, size, j) == report, (spec, size, j)
            assert an.enumerate_cycles(spec, 2 * size, j) == an.CycleReport(
                length=2 * size, horizon=j, cycles=tuple(cycles),
                frc_failures=tuple(c for c in cycles if c.singular), girth=girth)
            failure_patterns |= {f.pattern for f in report.failures}
    assert failure_patterns == {an.PATTERN_FULL, an.PATTERN_CYCLE, an.PATTERN_MIXED}


def _vanishable_oracle(sup, meets):
    """The column sets of two or more nonzero transversals, built directly:
    the 4-cycles of two rows completed by a column of every other row, and
    the 6-cycles c12, c23, c13 through three rows, chords allowed."""
    size, found = len(sup), set()
    for (a, b), meet in meets.items():
        rest = [sup[k] for k in range(size) if k not in (a, b)]
        for pair in itertools.combinations(sorted(meet), 2):
            for extra in itertools.product(*rest):
                cols = set(pair).union(extra)
                if len(cols) == size:
                    found.add(tuple(sorted(cols)))
    if size == 3:
        for cyc in itertools.product(meets[0, 1], meets[1, 2], meets[0, 2]):
            if len(set(cyc)) == 3:
                found.add(tuple(sorted(cyc)))
    return sorted(found)


def test_vanishable_sets_walks_and_charges_past_the_dense_sweep(ref_spec_a, ref_spec_b):
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 3), (2, 5))]
    rng = random.Random(2014)
    cases = [(ref_spec_a, 25), (ref_spec_b, 25)]
    for trial in range(40):
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        spec = CodeSpec(_random_relaxed_family(rng, n, w), fields[trial % len(fields)], n)
        cases.append((spec, rng.randint(5, 14)))
    for spec, j in cases:
        matrix = spec.sliding_matrix(j)
        for size in (2, 3):
            for _, sup, meets in an._row_tuples(matrix, size):
                assert an._vanishable(sup, meets) == _vanishable_oracle(sup, meets)
        meters = [an.Meter(an.DEFAULT_BUDGET) for _ in range(3)]
        minors = an.check_minors(spec, 2, j, meters[0])
        assert minors.class_counts[an.PATTERN_FULL] == len(
            an.enumerate_cycles(spec, 4, j, meters[1]).cycles)
        an._girth(matrix, meters[2])
        assert meters[1].used == meters[0].used + meters[2].used
        assert an.check_minors(spec, 3, j).class_counts[an.PATTERN_CYCLE] == len(
            an.enumerate_cycles(spec, 6, j).cycles)


# ---------------------------------------------------------------------------
# adversarial small field
# ---------------------------------------------------------------------------

def test_adversarial_small_field_witness(gf7):
    # shift 6 between two aligned columns: alpha^(6*2) = alpha^(6*1) in GF(7)
    spec = CodeSpec(DifferenceTriangleSet(((1, 7), (1, 7))), gf7, 3)
    m2 = an.check_minors(spec, 2)
    full = [f for f in m2.failures if f.pattern == an.PATTERN_FULL]
    assert [(f.rows, f.cols) for f in full] == [((1, 7), (1, 2))]
    factor = gf7.sub(gf7.alpha_pow(6 * 2), gf7.alpha_pow(6 * 1))
    assert factor is ZERO
    c4 = an.enumerate_cycles(spec, 4)
    assert len(c4.cycles) == 1
    assert [(c.rows, c.cols) for c in c4.frc_failures] == [((1, 7), (1, 2))]
    assert c4.girth == 4
    assert not an.enumerate_cycles(spec, 6).cycles
    m3 = an.check_minors(spec, 3)
    assert not [f for f in m3.failures if f.pattern == an.PATTERN_CYCLE]


# ---------------------------------------------------------------------------
# field bounds, odd characteristic
# ---------------------------------------------------------------------------

def test_minor_bounds_hold_in_odd_characteristic():
    field = GaloisField(3, 6)
    for sets in (((1, 2, 6), (1, 2, 4)), ((1, 2, 6), (2, 3, 5)),
                 ((1, 4, 6), (2, 3, 7)), ((1, 2, 5), (1, 3, 7))):
        spec = CodeSpec(DifferenceTriangleSet(sets), field, 3)
        assert an.check_minors(spec, 2).ok
        assert an.check_minors(spec, 3).ok


# ---------------------------------------------------------------------------
# budget guards
# ---------------------------------------------------------------------------

def test_budget_guards(ref_spec_a):
    with pytest.raises(HorizonTooLarge):
        an.check_minors(ref_spec_a, 2, budget=10)
    with pytest.raises(HorizonTooLarge):
        an.enumerate_cycles(ref_spec_a, 4, budget=1)
    with pytest.raises(HorizonTooLarge):
        an.column_distance(ref_spec_a, 5, budget=10)
    with pytest.raises(BudgetExhausted):
        an.check_distance_assumptions(ref_spec_a, budget=3)


def test_budget_refusal_reads_no_more_rows_than_it_charges(ref_spec_a):
    # verify --j 1000000 --minors 2 --budget 10: the first two row pairs
    # charge 8 and 9 steps, and the sliding matrix is never written out
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooLarge, match="^17 steps exceed the budget of 10$"):
            an.check_minors(ref_spec_a, 2, 10**6, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_row_tuples_come_in_combinations_order():
    for high in range(9):
        for size in (2, 3):
            assert list(an._increasing(high, size)) == \
                list(itertools.combinations(range(1, high + 1), size))


def test_meter_charges_up_to_its_limit():
    meter = an.Meter(5)
    meter.charge(5)
    with pytest.raises(HorizonTooLarge, match="budget"):
        meter.charge(1)
    assert (meter.limit, meter.used) == (5, 6)


def test_minors_and_cycles_agree_at_horizon_25(ref_spec_a):
    minors = an.check_minors(ref_spec_a, 3, 25)
    cycles = an.enumerate_cycles(ref_spec_a, 6, 25)
    singular = {(f.rows, f.cols) for f in minors.failures if f.pattern == an.PATTERN_CYCLE}
    assert singular == {(c.rows, c.cols) for c in cycles.frc_failures}
    assert len(singular) == 65


# Counts and charges at j = 25, far past the dense sweep's j <= 4; code A
# over GF(32), code B over GF(3^6).
FULL, CYCLE, MIXED = an.PATTERN_FULL, an.PATTERN_CYCLE, an.PATTERN_MIXED
DEEP_MINORS = [
    ("1,2,6;1,2,4", 2, 5, 2, 14049, {FULL: 25, MIXED: 14024}, 0, 4512),
    ("1,2,6;1,2,4", 2, 5, 3, 724924, {FULL: 0, CYCLE: 322, MIXED: 724602}, 65, 55176),
    ("1,2,6;2,3,5", 3, 6, 2, 13554, {FULL: 24, MIXED: 13530}, 0, 4439),
    ("1,2,6;2,3,5", 3, 6, 3, 686228, {FULL: 0, CYCLE: 313, MIXED: 685915}, 0, 54107),
]


@pytest.mark.parametrize("sets, p, deg, size, checked, counts, failures, used", DEEP_MINORS)
def test_minor_counts_and_charges_at_horizon_25(sets, p, deg, size, checked, counts,
                                                failures, used):
    spec = CodeSpec(DifferenceTriangleSet.from_inline(sets), make_field(p, deg), 3)
    meter = an.Meter(an.DEFAULT_BUDGET)
    rep = an.check_minors(spec, size, 25, meter)
    assert (rep.checked, rep.class_counts, len(rep.failures)) == (checked, counts, failures)
    assert meter.used == used


@pytest.mark.parametrize("length, count, frc_failures, used", [(4, 25, 0, 4519),
                                                               (6, 322, 65, 51261)])
def test_cycle_counts_and_charges_at_horizon_25(ref_spec_a, length, count, frc_failures, used):
    meter = an.Meter(an.DEFAULT_BUDGET)
    rep = an.enumerate_cycles(ref_spec_a, length, 25, meter)
    assert (len(rep.cycles), len(rep.frc_failures), rep.girth) == (count, frc_failures, 4)
    assert meter.used == used


# The strict family that `search --sets 2 --size 3 --mode strict` finds has
# no 4-cycle, so its girth is found among the 6-cycles.
@pytest.mark.parametrize("length, count, frc_failures, used", [(4, 0, 0, 1908),
                                                               (6, 85, 12, 5844)])
def test_girth_6_cycle_counts_and_charges_at_horizon_12(gf32, length, count, frc_failures, used):
    spec = CodeSpec(DifferenceTriangleSet.from_inline("1,2,5;1,3,8"), gf32, 3)
    meter = an.Meter(an.DEFAULT_BUDGET)
    rep = an.enumerate_cycles(spec, length, 12, meter)
    assert (len(rep.cycles), len(rep.frc_failures), rep.girth) == (count, frc_failures, 6)
    assert meter.used == used


def test_distance_profile_charges_one_budget(ref_spec_a):
    def charge(routine, *args):
        meter = an.Meter(an.DEFAULT_BUDGET)
        routine(ref_spec_a, *args, budget=meter)
        return meter.used

    charges = [charge(an.column_distance, j) for j in range(6)]
    charges += [charge(an.free_distance), charge(an.check_distance_assumptions)]
    assert charge(an.distance_profile) == sum(charges)
    budget = (max(charges) + sum(charges)) // 2
    an.free_distance(ref_spec_a, budget=budget)
    with pytest.raises(HorizonTooLarge):
        an.distance_profile(ref_spec_a, budget=budget)
