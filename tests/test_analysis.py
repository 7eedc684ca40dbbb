"""Minor, cycle, and distance checks against hand-verified references.

The two reference codes over GF(32) come with hand-verified column-distance
sequences and with cycle/minor inventories recomputed here independently
(see the frozen constants).  The known collapse of same-column 3x3 cycle
patterns over characteristic-2 fields is asserted as ground truth.
"""

import collections
import functools
import itertools
import json
import math
import random
import tracemalloc

import pytest

from dts_ldpc import analysis as an
from dts_ldpc.cli import main
from dts_ldpc.code import CodeSpec, sliding_entry_origin
from dts_ldpc.dts import DifferenceTriangleSet, validate
from dts_ldpc.errors import BudgetExhausted, HorizonTooLarge
from dts_ldpc.gf import ZERO, GaloisField, det, make_field

from grids import submatrix

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
        assert an.free_distance(spec) == 4 == spec.w + 1


def test_minimal_column_weight_sequence(ref_spec_b):
    assert tuple(an.minimal_column_weight(ref_spec_b, j) for j in range(6)) == (0, 1, 2, 2, 2, 3)


def test_distance_profile_predictions_and_json(ref_spec_a):
    prof = an.distance_profile(ref_spec_a)
    assert prof.column_distances == prof.predicted_column == (2, 3, 3, 3, 3, 4)
    assert prof.free == prof.predicted_free == 4
    assert prof.horizon == an.exact_horizon(ref_spec_a) == 11
    assert prof.assumption_check.holds
    d = prof.to_json_dict()
    assert d["schema"] == "distance-profile/v1"
    assert d["column_distances"] == [2, 3, 3, 3, 3, 4]
    assert d["free_distance"] == d["free_distance_upper_bound"] == 4
    assert d["free_distance_exact"] is True
    assert d["horizon"] == 11
    assert d["assumption_holds"] is True


def test_assumption_fails_on_identical_columns():
    # two equal information columns make the span condition fail outright
    gf4 = make_field(2, 2)
    spec = CodeSpec(DifferenceTriangleSet(((3, 6), (3, 6))), gf4, 3)
    report = an.check_distance_assumptions(spec)
    assert not report.holds
    assert report.witnesses[0].rows == (3, 6)
    assert report.witnesses[0].cols == (1, 2)
    assert an.free_distance(spec) == 2 < spec.w + 1


def test_column_distances_nondecreasing_and_saturating(ref_spec_a, ref_spec_b):
    for spec in (ref_spec_a, ref_spec_b):
        seq = [an.column_distance(spec, j) for j in range(spec.mu + 1)]
        assert all(a <= b for a, b in zip(seq, seq[1:]))
        assert seq[-1] == an.free_distance(spec)


def test_trivial_code_free_distance(gf7):
    spec = CodeSpec(DifferenceTriangleSet(((1,),)), gf7, 2)
    assert an.free_distance(spec) == 2


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
    vectors = [[matrix.get(r, c) for r in range(1, matrix.rows + 1)]
               for c in range(1, matrix.cols + 1)]
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
    """Every set of 1..w-1 later columns tested against each information
    column, kept when it spans and no column of it can be dropped."""
    matrix = spec.sliding_matrix(spec.mu)
    witnesses = []
    for j1 in range(1, spec.n):
        rows = matrix.col_support(j1)
        target = [matrix.get(r, j1) for r in rows]
        rest = range(j1 + 1, matrix.cols + 1)
        for size in range(1, spec.w):
            for combo in itertools.combinations(rest, size):
                vecs = [[matrix.get(r, c) for r in rows] for c in combo]
                if an._in_span(spec.field, target, vecs) and not any(
                        an._in_span(spec.field, target, vecs[:k] + vecs[k + 1:])
                        for k in range(size)):
                    witnesses.append(an.AssumptionWitness(rows=rows, cols=(j1, *combo)))
    return an.AssumptionReport(witnesses=tuple(sorted(witnesses, key=lambda wit: wit.cols)))


def sliding_check_distance_assumptions(spec, budget=an.DEFAULT_BUDGET):
    """The assumption check read off the sliding matrix at horizon mu: the
    later columns meeting R from the row supports of R, the target and the
    span-test entries from ``get``, every span test reduced by ``_in_span``,
    charged as ``check_distance_assumptions`` charges.  It asserts that
    every row of R has a single-row column, which ``_span_pairs`` takes as
    given."""
    matrix = spec.sliding_matrix(spec.mu)
    w = spec.w
    meter = an.as_meter(budget)
    minimal = []
    for j1 in range(1, spec.n):
        rows = matrix.col_support(j1)
        met = {}
        for b, r in enumerate(rows):
            for c in matrix.row_support(r):
                if c > j1:
                    met.setdefault(c, []).append(b)
        meter.charge(len(met))
        single, multi = {}, {}
        for c in sorted(met):
            if len(met[c]) == 1:
                single.setdefault(met[c][0], []).append(c)
            else:
                multi[c] = met[c]
        assert set(single) == set(range(w)), (spec, j1)
        target = [matrix.get(r, j1) for r in rows]
        spanning = []
        for part, deleted in an._span_pairs(multi, w):
            if any(p <= part and d <= deleted for p, d in spanning):
                continue
            meter.charge(1)
            kept = [b for b in range(w) if b not in deleted]
            vecs = [[matrix.get(rows[b], c) for b in kept] for c in sorted(part)]
            if an._in_span(spec.field, [target[b] for b in kept], vecs):
                spanning.append((part, deleted))
        minimal += ((rows, j1, part, [single[b] for b in sorted(deleted)])
                    for part, deleted in spanning)
    meter.charge(sum(math.prod(map(len, picks)) for *_, picks in minimal))
    witnesses = (an.AssumptionWitness(rows=rows, cols=(j1, *sorted(part.union(chosen))))
                 for rows, j1, part, picks in minimal for chosen in itertools.product(*picks))
    return an.AssumptionReport(witnesses=tuple(sorted(witnesses, key=lambda wit: wit.cols)))


def oracle_column_distance(spec, j):
    ub = an.minimal_column_weight(spec, j) + 1
    return oracle_min_weight_first_block(spec.field, spec.sliding_matrix(j), spec.n, ub)


def oracle_distance_profile(spec):
    horizon = an.exact_horizon(spec)
    free = oracle_min_weight_first_block(
        spec.field, spec.full_sliding_matrix(horizon + 1), spec.n, spec.w + 1)
    return an.DistanceProfile(
        column_distances=tuple(oracle_column_distance(spec, j) for j in range(spec.mu + 1)),
        free=free,
        horizon=horizon,
        predicted_free=spec.w + 1,
        predicted_column=tuple(an.minimal_column_weight(spec, j) + 1
                               for j in range(spec.mu + 1)),
        assumption_check=oracle_check_distance_assumptions(spec),
    )


def test_support_search_matches_combination_oracle():
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 5))]
    rng = random.Random(2009)
    failing = 0
    for trial in range(DISTANCE_FAMILIES):
        field = fields[trial % len(fields)]
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        spec = CodeSpec(_random_relaxed_family(rng, n, w), field, n)
        expected = oracle_distance_profile(spec)
        assert an.distance_profile(spec) == expected, spec
        failing += not expected.assumption_check.holds
        # a horizon below the exactness threshold, where `distance --horizon`
        # reports the column distance as a lower bound on the free distance
        horizon = rng.randrange(an.exact_horizon(spec))
        assert an.column_distance(spec, horizon) == oracle_column_distance(spec, horizon), (
            spec, horizon)
        matrix = spec.sliding_matrix(spec.mu)
        assert not any(all(matrix.get(r, c) is None for r in wit.rows)
                       for wit in expected.assumption_check.witnesses for c in wit.cols[1:]), spec
    # no witness holds a column that vanishes on the support rows, and
    # some profiles search every distance, as their check fails
    assert failing


def test_distance_below_the_threshold_prints_the_column_distance(capsys):
    # below the exactness threshold, `distance --horizon H` reports the
    # column distance at H as a lower bound on the free distance, and w + 1
    # as an upper bound, in text and in JSON
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (3, 2), (2, 3), (7, 1))]
    rng = random.Random(22)
    specs = [CodeSpec(DifferenceTriangleSet.from_inline("1,2,6;1,2,4"), make_field(2, 5), 3)]
    for field in fields:
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        specs.append(CodeSpec(_random_relaxed_family(rng, n, w), field, n))
    for spec in specs:
        argv = ["distance", "--dts", spec.dts.inline(), "--n", str(spec.n),
                "--field", f"{spec.field.p}^{spec.field.degree}"]
        for horizon in range(an.exact_horizon(spec)):
            bound, upper = an.column_distance(spec, horizon), spec.w + 1
            assert main([*argv, "--horizon", str(horizon)]) == 0
            assert capsys.readouterr().out == (
                f"free_distance: >= {bound} (horizon {horizon}, upper bound {upper})\n")
            assert main([*argv, "--horizon", str(horizon), "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == {
                "schema": "distance-profile/v1", "free_distance_lower_bound": bound,
                "free_distance_upper_bound": upper, "horizon": horizon}


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
    # w = 5, with 198 and 19 witnesses, all of w - 1 columns
    specs.append(CodeSpec(DifferenceTriangleSet.from_inline("1,2,5,10,12;1,2,5,10,12"), fields[0], 3))
    specs.append(CodeSpec(DifferenceTriangleSet.from_inline("1,2,5,10,12;1,3,8,11,12"), fields[3], 3))
    failing = 0
    for spec in specs:
        expected = oracle_check_distance_assumptions(spec)
        assert an.check_distance_assumptions(spec) == expected, spec
        failing += not expected.holds
        matrix = spec.sliding_matrix(spec.mu)
        for wit in expected.witnesses:
            target, *vecs = ([matrix.get(r, c) for r in wit.rows] for c in wit.cols)
            assert not any(an._in_span(spec.field, target, vecs[:k] + vecs[k + 1:])
                           for k in range(len(vecs))), (spec, wit)
    # no witness column can be dropped, and some seeded checks fail
    assert failing


def _outcome(check, spec, budget):
    """The report of ``check`` and the steps it used, or its refusal."""
    meter = an.Meter(budget)
    try:
        return check(spec, meter), meter.used
    except HorizonTooLarge as exc:
        return str(exc)


def test_check_reads_the_marks_as_the_sliding_matrix_does(ref_spec_a, ref_spec_b):
    # the check read off the marks against the same check read off the
    # sliding matrix: equal reports, steps and refusals at every budget
    fields = [make_field(p, e) for p, e in ((2, 1), (3, 1), *DENSE_SWEEP_FIELDS)]
    rng = random.Random(36)
    specs = [ref_spec_a, ref_spec_b]
    for field in fields:
        specs.append(CodeSpec(DifferenceTriangleSet.from_inline("1,2,4;1,2,4"), field, 3))
        for _ in range(4):
            n, w = rng.randint(2, 4), rng.randint(1, 4)
            specs.append(CodeSpec(_random_relaxed_family(rng, n, w), field, n))
        n, w = rng.randint(2, 3), rng.randint(2, 3)
        specs.append(CodeSpec(_random_strict_family(rng, n, w), field, n))
    specs += [CodeSpec(DifferenceTriangleSet.from_inline("1,2,5,10,12;1,2,5,10,12"), field, 3)
              for field in fields[:3]]
    failing = 0
    for spec in specs:
        expected = _outcome(sliding_check_distance_assumptions, spec, an.DEFAULT_BUDGET)
        assert _outcome(an.check_distance_assumptions, spec, an.DEFAULT_BUDGET) == expected, spec
        report, used = expected
        failing += not report.holds
        for budget in sorted({0, 1, used // 2, max(used - 1, 0)}):
            assert (_outcome(an.check_distance_assumptions, spec, budget)
                    == _outcome(sliding_check_distance_assumptions, spec, budget)), (spec, budget)
    assert failing


@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (2, 3), (3, 2), (2, 5)])
def test_one_column_span_rule_matches_reduction(p, n):
    """The exponent rule of the assumption check's one-column span tests
    against ``_in_span``, for every column vector of length 1..3, zero
    entries included, and every nonzero target whose first exponent is 0.
    That loses no case: scaling a target by a nonzero lambda keeps it in
    or out of span{c}.  Over GF(32) at length 3 the target is all ones
    (exponent 0): scaling row b of both vectors by alpha**-T_b keeps the
    span relation, so every target reduces to that one."""
    field = make_field(p, n)
    elements = list(field.elements())
    spanned = targets_tried = 0
    for length in (1, 2, 3):
        if field.q == 32 and length == 3:
            targets = [(0, 0, 0)]
        else:
            targets = [(0, *rest) for rest in itertools.product(range(field.q - 1),
                                                                  repeat=length - 1)]
        targets_tried += len(targets)
        for target in targets:
            for column in itertools.product(elements, repeat=length):
                expected = an._in_span(field, target, [column])
                assert an._in_column_span(field, target, column) == expected, (target, column)
                spanned += expected
    # each target is spanned by its q - 1 nonzero multiples and no other column
    assert spanned == targets_tried * (field.q - 1)


def test_closed_support_that_does_not_span_is_grown(monkeypatch):
    # 1,2;1,2 over GF(5) at j = 1: columns 1 and 2 both meet rows 1 and 2,
    # so {1, 2} meets no row once, but (a, a^2) and (a^2, a^4) are
    # independent: the support spans nothing and is grown, and the
    # distance is 3, searched here past the ub of column_distance
    spec = CodeSpec(DifferenceTriangleSet.from_inline("1,2;1,2"), make_field(5, 1), 3)
    spans, in_span = [], an._in_span
    monkeypatch.setattr(an, "_in_span", lambda *args: spans.append(in_span(*args)) or spans[-1])
    meter = an.Meter(an.DEFAULT_BUDGET)
    assert an._min_weight_first_block(spec, 2, 6, 4, meter) == 3
    assert False in spans
    assert an.column_distance(spec, 1) == 3
    assert oracle_min_weight_first_block(spec.field, spec.sliding_matrix(1), spec.n, 4) == 3


def _charge(routine, spec, *args):
    meter = an.Meter(an.DEFAULT_BUDGET)
    routine(spec, *args, budget=meter)
    return meter.used


def test_distance_charges_of_code_a(ref_spec_a):
    # one step per support visited; the assumption check charges one per
    # later column meeting the support rows (11 for column 1, 9 for column
    # 2) and one per span test (column 2 of block 1 meets rows 1 and 2 of
    # column 1, so P = {2} with R' = {6} is the one pair)
    assert [_charge(an.column_distance, ref_spec_a, j) for j in range(6)] == [3, 6, 6, 6, 6, 18]
    assert _charge(an.free_distance, ref_spec_a) == 18
    assert _charge(an.check_distance_assumptions, ref_spec_a) == 21


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
    matrix = ref_spec_a.sliding_matrix(5)
    assert all(det(ref_spec_a.field, submatrix(matrix, f.rows, f.cols)) is ZERO for f in ra.failures)
    rb = an.check_minors(ref_spec_b, 3)
    assert rb.checked == 1754
    assert rb.class_counts == {an.PATTERN_FULL: 0, an.PATTERN_CYCLE: 14,
                               an.PATTERN_MIXED: 1740}
    assert tuple((f.rows, f.cols) for f in rb.failures) == REF_B_MINOR3_FAILURES


def test_failing_cycle_patterns_have_equal_diagonal_products(ref_spec_a, gf32):
    matrix = ref_spec_a.sliding_matrix(5)
    for rows, cols in REF_A_MINOR3_FAILURES:
        grid = submatrix(matrix, rows, cols)
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
                grid = submatrix(matrix, rows, cols)
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
    with pytest.raises(ValueError, match="^horizon j must be >= 0$"):
        an.check_minors(ref_spec_a, 3, -1)


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
        matrix = spec.sliding_matrix(spec.mu)
        for cyc in c4.cycles:
            assert all(e is not None for row in submatrix(matrix, cyc.rows, cyc.cols) for e in row)
        for cyc in c6.cycles:
            grid = submatrix(matrix, cyc.rows, cyc.cols)
            assert all(sum(e is not None for e in row) == 2 for row in grid)
            for col in range(3):
                assert sum(grid[r][col] is not None for r in range(3)) == 2


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


def test_cycles_are_decided_with_no_matrix_and_no_permutation(ref_spec_a, ref_spec_b,
                                                              monkeypatch):
    # neither report builds a sliding matrix; the cycles are decided by
    # their classes' D, and only the near shapes of the 3x3 minors find
    # their transversals, reading their entries off the marks
    cases = _local_sweep_cases(ref_spec_a, ref_spec_b)
    calls = collections.Counter()
    for name in ("sliding_matrix", "full_sliding_matrix", "column_entries"):
        method = getattr(CodeSpec, name)
        monkeypatch.setattr(CodeSpec, name, lambda *args, name=name, method=method:
                            calls.update([name]) or method(*args))
    transversals = an._transversals
    monkeypatch.setattr(an, "_transversals",
                        lambda grid: calls.update(["transversals"]) or transversals(grid))
    cycles = 0
    for spec, j in cases:
        for length in (4, 6):
            cycles += len(an.enumerate_cycles(spec, length, j).cycles)
    assert cycles and not calls
    for spec, j in cases:
        an.check_minors(spec, 3, j)
    assert set(calls) == {"transversals", "column_entries"}
    assert calls["column_entries"] == 3 * calls["transversals"]


def test_no_cycles_in_single_block_row(ref_spec_a):
    for length in (4, 6):
        rep = an.enumerate_cycles(ref_spec_a, length, j=0)
        assert not rep.cycles
        assert rep.girth is None
        assert rep.to_json_dict()["girth"] == ">6"


def test_cycle_length_guard(ref_spec_a):
    with pytest.raises(ValueError):
        an.enumerate_cycles(ref_spec_a, 8)
    with pytest.raises(ValueError, match="^horizon j must be >= 0$"):
        an.enumerate_cycles(ref_spec_a, 4, -1)


def test_cycle_report_json(ref_spec_b):
    d = an.enumerate_cycles(ref_spec_b, 6).to_json_dict()
    assert d["schema"] == "cycle-report/v1"
    assert d["length"] == 6
    assert d["girth"] == 4
    assert d["cycle_count"] == 14
    assert d["frc_failures"][0] == {"rows": [3, 4, 5], "cols": [2, 5, 8]}


# ---------------------------------------------------------------------------
# the dense walk: every row tuple, as an oracle for the local sweeps
# ---------------------------------------------------------------------------

def _increasing(high, size):
    """The increasing pairs (size 2) or triples of 1..high in lexicographic
    order, one at a time."""
    if size == 2:
        return ((a, b) for a in range(1, high + 1) for b in range(a + 1, high + 1))
    return ((a, b, c) for a in range(1, high + 1)
            for b in range(a + 1, high + 1) for c in range(b + 1, high + 1))


def _row_tuples(matrix, size, listed):
    """``(rows, sup, meets, found)`` for every tuple of ``size`` rows in
    lexicographic order: the row supports as sets, their pair meets
    ``meets[a, b]`` and ``found = listed(sup, meets)``."""
    supports = [None] + [set(matrix.row_support(r)) for r in range(1, matrix.rows + 1)]
    pairs = list(itertools.combinations(range(size), 2))
    for rows in _increasing(matrix.rows, size):
        sup = [supports[r] for r in rows]
        meets = {(a, b): sup[a] & sup[b] for a, b in pairs}
        yield rows, sup, meets, listed(sup, meets)


def _walks(sup, meets):
    """The oracle's walk over one row tuple, pair meets keyed by position:
    the sorted column tuples of the Tanner cycles through two or three rows,
    in walk order: meet pairs, or chordless (c12, c23, c13), each column
    missing the third row."""
    if len(sup) == 2:
        return list(itertools.combinations(sorted(meets[0, 1]), 2))
    return [tuple(sorted(walk)) for walk in sorted(itertools.product(
        meets[0, 1] - sup[2], meets[1, 2] - sup[0], meets[0, 2] - sup[1]))]


def _vanishable(sup, meets, walks=None):
    """Sorted column sets whose submatrix has two or more nonzero transversals:
    the walks (``walks``, when given) and, for three rows, the 4-cycles of a
    row pair completed by a column of the third row."""
    found = set(_walks(sup, meets) if walks is None else walks)
    if len(sup) == 3:
        for (a, b), meet in meets.items():
            for pair in itertools.combinations(meet, 2):
                found.update(tuple(sorted({*pair, c})) for c in sup[3 - a - b] - set(pair))
    return sorted(found)


def _pattern(sup, cols):
    # bit b of a column's mask is set when the column meets row b
    masks = [sum(1 << b for b, s in enumerate(sup) if c in s) for c in cols]
    if all(m == (1 << len(sup)) - 1 for m in masks):
        return an.PATTERN_FULL
    if sorted(masks) == [0b011, 0b101, 0b110]:  # the columns of a 6-cycle
        return an.PATTERN_CYCLE
    return an.PATTERN_MIXED


def _walked_reports(spec, j):
    """The minor reports of both sizes and the cycle reports of both
    lengths, keyed 2, 3, 4 and 6, from one walk of every row pair and
    triple: per tuple, inclusion-exclusion over the row supports for the
    counts, and every column set of two or more nonzero transversals
    decided by the two-term rule or ``det``."""
    matrix, field = spec.sliding_matrix(j), spec.field
    reports = {}

    def listed(sup, meets):
        walks = _walks(sup, meets)
        return walks, _vanishable(sup, meets, walks)

    for size in (2, 3):
        counts = dict.fromkeys((an.PATTERN_FULL, an.PATTERN_CYCLE, an.PATTERN_MIXED), 0)
        failures, cycles = [], []
        for rows, sup, meets, (walks, col_sets) in _row_tuples(matrix, size, listed):
            common = len(meets[0, 1] & sup[-1])
            if size == 2:
                total, cycle = len(sup[0]) * len(sup[1]) - common, 0
            else:
                a, b, c = map(len, sup)
                ab, bc, ac = len(meets[0, 1]), len(meets[1, 2]), len(meets[0, 2])
                total = a * b * c - ab * c - ac * b - bc * a + 2 * common
                cycle = (ab - common) * (bc - common) * (ac - common)
            singular = {}
            for cols in col_sets:
                grid = submatrix(matrix, rows, cols)
                terms = an._transversals(grid)
                total -= len(terms) - 1
                singular[cols] = (an._two_terms_cancel(field, terms[0][0] - terms[1][0],
                                                       terms[0][1] == terms[1][1])
                                  if len(terms) == 2 else det(field, grid) is ZERO)
                if singular[cols]:
                    failures.append(an.MinorFailure(rows, cols, _pattern(sup, cols)))
            cycles += (an.TannerCycle(rows, cols, singular[cols]) for cols in walks)
            full = math.comb(common, size)
            counts[an.PATTERN_FULL] += full
            counts[an.PATTERN_CYCLE] += cycle
            counts[an.PATTERN_MIXED] += total - full - cycle
        if size == 2:
            del counts[an.PATTERN_CYCLE]
        reports[size] = an.MinorReport(size, j, counts, tuple(failures))
        reports[2 * size] = cycles
    girth = 4 if reports[4] else 6 if reports[6] else None
    for length in (4, 6):
        reports[length] = an.CycleReport(length, j, tuple(reports[length]), girth)
    return reports


def _meet_count(matrix, rows):
    """The number of pairs of ``rows`` that share a column."""
    return sum(not set(matrix.row_support(a)).isdisjoint(matrix.row_support(b))
               for a, b in itertools.combinations(rows, 2))


def _factorable(grid):
    """Whether a row or a column of a 3x3 grid has one nonzero entry."""
    lines = [*grid, *zip(*grid)]
    return any(sum(e is not None for e in line) == 1 for line in lines)


def _local_sweep_cases(ref_spec_a, ref_spec_b):
    """One seeded family per horizon j = 0..60, relaxed and strict in turn,
    over GF(2), GF(3) and every field of DENSE_SWEEP_FIELDS in turn; then
    families with singular 4-cycles over small fields, so that factorable
    completions fail, far ones included, among them GF(2) and GF(3), where
    q - 1 <= 2, so every or every other exponent difference cancels; and
    the reference codes."""
    fields = [make_field(p, e) for p, e in ((2, 1), (3, 1), *DENSE_SWEEP_FIELDS)]
    rng = random.Random(2026)
    cases = []
    for j in range(61):
        field = fields[j % len(fields)]
        if j % 2:
            n, w = rng.randint(2, 3), rng.randint(2, 3)
            cases.append((CodeSpec(_random_strict_family(rng, n, w), field, n), j))
        else:
            n, w = rng.randint(2, 3), rng.randint(1, 3)
            cases.append((CodeSpec(_random_relaxed_family(rng, n, w), field, n), j))
    for sets, p, e, j in (("1,7;1,7", 7, 1, 30), ("1,2,5,7;1,3,7,8", 2, 2, 16),
                          ("1,2,4;1,2,4", 2, 1, 12), ("1,2,4;1,2,4", 3, 1, 12)):
        cases.append((CodeSpec(DifferenceTriangleSet.from_inline(sets), make_field(p, e), 3), j))
    return cases + [(ref_spec_a, 25), (ref_spec_b, 25)]


def test_classes_match_the_dense_walk_up_to_horizon_60(ref_spec_a, ref_spec_b):
    # the whole reports, girth included, read off the cycle classes against
    # the walk of every row pair and triple
    kinds = collections.Counter()
    for spec, j in _local_sweep_cases(ref_spec_a, ref_spec_b):
        walked = _walked_reports(spec, j)
        for size in (2, 3):
            assert an.check_minors(spec, size, j) == walked[size], (spec, size, j)
            assert an.enumerate_cycles(spec, 2 * size, j) == walked[2 * size], (spec, j)
        matrix = spec.sliding_matrix(j)
        for f in walked[3].failures:
            meets = _meet_count(matrix, f.rows)
            kinds["far" if meets == 1 else "local-factorable"
                  if _factorable(submatrix(matrix, f.rows, f.cols)) else "near"] += 1
    assert set(kinds) == {"far", "local-factorable", "near"}, kinds


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
            singular = det(spec.field, grid) is ZERO
            if singular:
                failures.append(an.MinorFailure(rows, cols, pattern))
            if pattern == (an.PATTERN_FULL if size == 2 else an.PATTERN_CYCLE):
                walk = cols
                if size == 3:
                    # c12 meets rows 1 and 2, c23 rows 2 and 3, c13 rows 1 and 3
                    met = [nz[0][k] + 2 * nz[1][k] + 4 * nz[2][k] for k in range(3)]
                    walk = tuple(cols[met.index(m)] for m in (0b011, 0b110, 0b101))
                walks.append((walk, an.TannerCycle(rows=rows, cols=cols, singular=singular)))
        cycles += [cyc for _, cyc in sorted(walks, key=lambda wc: wc[0])]
    report = an.MinorReport(size=size, horizon=j, class_counts=counts, failures=tuple(failures))
    return report, cycles


def _random_relaxed_family(rng, n, w):
    sets = []
    while len(sets) < n - 1:
        s = tuple(sorted(rng.sample(range(1, w + 4), w)))
        if validate(DifferenceTriangleSet((s,)), "relaxed").valid:
            sets.append(s)
    return DifferenceTriangleSet(tuple(sets))


# Both parities: characteristic 2, where -1 = 1, and odd q = 1 and 3 mod 4,
# where -1 = alpha**((q-1)/2) is a square and a non-square.
DENSE_SWEEP_FIELDS = ((2, 2), (2, 3), (2, 5), (2, 8), (5, 1), (3, 2), (13, 1), (5, 2),
                      (7, 1), (3, 3), (3, 5))
DENSE_SWEEP_FAMILIES = 8 * len(DENSE_SWEEP_FIELDS)


def test_enumeration_matches_dense_sweep():
    fields = [make_field(p, e) for p, e in DENSE_SWEEP_FIELDS]
    rng = random.Random(2006)
    failure_patterns = {2: set(), "odd": set()}  # by characteristic
    for trial in range(DENSE_SWEEP_FAMILIES):
        field = fields[trial % len(fields)]
        n, w, j = rng.randint(2, 4), rng.randint(1, 4), rng.randint(0, 4)
        spec = CodeSpec(_random_relaxed_family(rng, n, w), field, n)
        dense = {size: _dense_sweep(spec, size, j) for size in (2, 3)}
        girth = 4 if dense[2][1] else 6 if dense[3][1] else None
        for size, (report, cycles) in dense.items():
            assert an.check_minors(spec, size, j) == report, (spec, size, j)
            assert an.enumerate_cycles(spec, 2 * size, j) == an.CycleReport(
                length=2 * size, horizon=j, cycles=tuple(cycles), girth=girth)
            failure_patterns[2 if field.p == 2 else "odd"] |= {f.pattern for f in report.failures}
    assert set().union(*failure_patterns.values()) == {an.PATTERN_FULL, an.PATTERN_CYCLE,
                                                       an.PATTERN_MIXED}
    # a 6-cycle cancels at alpha**D = -1, which is 1 in characteristic 2; odd
    # fields also fail 2x2 minors, which cancel at alpha**D = 1
    assert an.PATTERN_CYCLE in failure_patterns[2]
    assert {an.PATTERN_FULL, an.PATTERN_CYCLE} <= failure_patterns["odd"]


# Code A has no vanishable 3x3 set of three or more nonzero transversals at
# j = 25, so gf.det never runs for it; the w = 4 family has 281 of them, the
# translates of 16 shapes.
@pytest.mark.parametrize("sets, failures, three_or_more, shapes", [
    ("1,2,6;1,2,4", 65, 0, 0), ("1,2,5,7;1,3,7,8", 342, 281, 16)])
def test_only_sets_of_three_or_more_transversals_are_evaluated(gf32, monkeypatch, sets, failures,
                                                               three_or_more, shapes):
    # at j = 25 over GF(32): two transversals are decided by their exponents,
    # so gf.det runs once per shape of three or more, all of whose translates
    # have the same entries, and never for a cycle
    spec = CodeSpec(DifferenceTriangleSet.from_inline(sets), gf32, 3)
    counted = set()
    for rows, sup, _, col_sets in _row_tuples(spec.sliding_matrix(25), 3, _vanishable):
        for cols in col_sets:
            if sum(all(c in s for c, s in zip(perm, sup))
                   for perm in itertools.permutations(cols)) >= 3:
                counted.add((rows, cols))
    calls = []
    monkeypatch.setattr(an.gf, "det", lambda field, grid: calls.append(grid) or det(field, grid))
    assert len(an.check_minors(spec, 3, 25).failures) == failures
    assert len(counted) == three_or_more
    assert len(calls) == len({_first_translate(spec.n, *minor) for minor in counted}) == shapes
    calls.clear()
    for length in (4, 6):
        an.enumerate_cycles(spec, length, 25)
    assert calls == []


def _first_translate(n, rows, cols):
    """Rows and columns moved up t rows and left t blocks, the largest t
    that keeps every row >= 1 and every block >= 0."""
    t = min(min(rows) - 1, min((c - 1) // n for c in cols))
    return tuple(r - t for r in rows), tuple(c - t * n for c in cols)


def _integer_exponent_sums(spec, rows, cols):
    """The integer exponent sums of the nonzero transversals of a minor: an
    entry is alpha**(base_row * index) for every field (``sliding_entry_origin``)."""
    matrix = spec.sliding_matrix(max(rows) - 1)
    return [sum(math.prod(sliding_entry_origin(spec.n, r, c)) for r, c in zip(rows, perm))
            for perm in itertools.permutations(cols)
            if all(matrix.get(r, c) is not None for r, c in zip(rows, perm))]


def test_char2_3x3_failures_are_the_equal_sum_cycle_patterns(dts_126_124, dts_126_235):
    # predicted with no field: the chordless 6-cycles at j = mu whose two
    # transversals, both even, carry equal integer exponent sums, so their
    # determinant is 2 * alpha**E, zero in every field of characteristic 2
    for dts, expected in ((dts_126_124, REF_A_MINOR3_FAILURES),
                          (dts_126_235, REF_B_MINOR3_FAILURES)):
        pattern = CodeSpec(dts, make_field(2, 5), 3)
        predicted = tuple(
            (rows, cols)
            for rows, _, _, walks in _row_tuples(pattern.sliding_matrix(pattern.mu), 3, _walks)
            for cols in walks
            if len(set(_integer_exponent_sums(pattern, rows, cols))) == 1)
        assert predicted == expected
        assert all(len(_integer_exponent_sums(pattern, *f)) == 2 for f in expected)
        for k in range(3, 14):
            report = an.check_minors(CodeSpec(dts, make_field(2, k), 3), 3)
            assert tuple((f.rows, f.cols) for f in report.failures) == expected, k
            assert {f.pattern for f in report.failures} == {an.PATTERN_CYCLE}


@pytest.mark.parametrize("sets", ["1,2,6;1,2,4", "1,2,6;2,3,5", "1,2,5;1,3,8", "1,2,5,7;1,3,7,8",
                                  "1,2,4;1,2,4", "1,2,5;1,3,8;2,4,9"])
def test_same_column_6_cycle_classes_are_those_with_d_zero(gf32, sets):
    # D = (d1 + d2) k_z - d1 k_x - d2 k_y, read here off the exponents of
    # the class's two transversals, is 0 exactly when its three columns
    # are shifts of one information column; those classes are singular in
    # characteristic 2, and for code A they give all 3 j - 10 failures
    dts = DifferenceTriangleSet.from_inline(sets)
    spec = CodeSpec(dts, gf32, dts.num_sets + 1)
    # every class's D in the table is the first transversal's integer
    # exponent sum less the second's: along the walk (x, y, z) of a
    # 6-cycle, and along (x, y) in increasing set index of a 4-cycle
    table = spec.cycle_classes
    for length in (4, 6):
        for rows, walk, d in table[length]:
            cols = walk if length == 6 else tuple(sorted(walk, key=lambda c: (c - 1) % spec.n))
            first, second = _integer_exponent_sums(spec, rows, cols)
            assert d == first - second, (length, rows, walk)
    # and the table reads no field
    for field in (make_field(2, 5), make_field(3, 6), make_field(13, 1)):
        assert CodeSpec(dts, field, spec.n).cycle_classes == table
    classes = an._cycle_classes(spec, 6, 60)
    same = set()
    for rows, walk, singular in classes:
        cols = tuple(sorted(walk))
        zero = len(set(_integer_exponent_sums(spec, rows, cols))) == 1
        assert zero == (len({(c - 1) % spec.n for c in walk}) == 1), (rows, walk)
        if zero:
            assert singular
            same.add((rows, cols))
    if sets == "1,2,6;1,2,4":
        assert len(same) == 3
        failures = an.enumerate_cycles(spec, 6, 60).frc_failures
        assert {(c.rows, c.cols) for c in failures} == {
            (tuple(r + t for r in rows), tuple(c + 3 * t for c in cols))
            for rows, cols in same for t in range(62 - rows[-1])}
        assert len(failures) == 3 * 60 - 10


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


def test_vanishable_sets_and_near_shapes_past_the_dense_sweep(ref_spec_a, ref_spec_b):
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 3), (2, 5))]
    rng = random.Random(2014)
    cases = [(ref_spec_a, 25), (ref_spec_b, 25)]
    for trial in range(40):
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        spec = CodeSpec(_random_relaxed_family(rng, n, w), fields[trial % len(fields)], n)
        cases.append((spec, rng.randint(5, 14)))
    near_sets = 0
    for spec, j in cases:
        matrix = spec.sliding_matrix(j)
        near = set()
        for size in (2, 3):
            for rows, sup, local, found in _row_tuples(matrix, size, _vanishable):
                assert found == _vanishable_oracle(sup, local)
                if size == 3:
                    # the sets evaluated one by one are those in which no row
                    # and no column has a single nonzero: the 6-cycles and
                    # the near completions, all in triples of three nonempty
                    # pair meets
                    kept = [cols for cols in found if not _factorable(submatrix(matrix, rows, cols))]
                    assert not kept or _meet_count(matrix, rows) == 3
                    near.update((rows, cols) for cols in kept
                                if _pattern(sup, cols) != an.PATTERN_CYCLE)
        # the near sets are the translates of the near shapes of the classes
        shapes = set().union(*(an._near_shapes(spec, cls) for cls in an._cycle_classes(spec, 4, j)))
        assert near == {(rows, cols) for shape in shapes
                        for rows, cols, _ in an._translates((*shape, None), j, spec.n)}
        near_sets += len(near)
        assert an.check_minors(spec, 2, j).class_counts[an.PATTERN_FULL] == len(
            an.enumerate_cycles(spec, 4, j).cycles)
        assert an.check_minors(spec, 3, j).class_counts[an.PATTERN_CYCLE] == len(
            an.enumerate_cycles(spec, 6, j).cycles)
    assert near_sets


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
        an.check_minors(ref_spec_a, 2, budget=0)
    with pytest.raises(HorizonTooLarge):
        an.enumerate_cycles(ref_spec_a, 4, budget=1)
    with pytest.raises(HorizonTooLarge):
        an.column_distance(ref_spec_a, 5, budget=10)
    with pytest.raises(BudgetExhausted):
        an.check_distance_assumptions(ref_spec_a, budget=3)


def test_budget_refusal_walks_no_translate_it_has_not_charged(ref_spec_a):
    # verify --j 1000000 --budget 10: the 4-cycle report charges its one
    # class and its 1000000 translates before it lists one, and the 3x3
    # minors their 16 classes before anything else; no matrix is built
    tracemalloc.start()
    try:
        with pytest.raises(HorizonTooLarge, match="^1000001 steps exceed the budget of 10$"):
            an.enumerate_cycles(ref_spec_a, 4, 10**6, budget=10)
        with pytest.raises(HorizonTooLarge, match="^16 steps exceed the budget of 10$"):
            an.check_minors(ref_spec_a, 3, 10**6, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_row_tuples_come_in_combinations_order():
    for high in range(9):
        for size in (2, 3):
            assert list(_increasing(high, size)) == \
                list(itertools.combinations(range(1, high + 1), size))


def test_meter_charges_up_to_its_limit():
    meter = an.Meter(5)
    meter.charge(5)
    with pytest.raises(HorizonTooLarge, match="budget"):
        meter.charge(1)
    assert (meter.limit, meter.used) == (5, 6)


@pytest.mark.parametrize("j", [100, 200, 1000])
def test_frontier_counts_of_code_a(ref_spec_a, j):
    # A's failures and cycles grow by a fixed number per row past the first
    # rows; its 3x3 minors charge their 1 + 15 classes and their 3 j - 10
    # failures, all singular 6-cycles, so 3 j + 6 steps
    meter = an.Meter(an.DEFAULT_BUDGET)
    minors = an.check_minors(ref_spec_a, 3, j, meter)
    assert len(minors.failures) == 3 * j - 10 and meter.used == 3 * j + 6
    six = an.enumerate_cycles(ref_spec_a, 6, j)
    assert (len(six.cycles), len(six.frc_failures)) == (15 * j - 53, 3 * j - 10)
    four = an.enumerate_cycles(ref_spec_a, 4, j)
    assert (len(four.cycles), len(four.frc_failures)) == (j, 0)


def test_minors_and_cycles_agree_at_horizon_25(ref_spec_a):
    minors = an.check_minors(ref_spec_a, 3, 25)
    cycles = an.enumerate_cycles(ref_spec_a, 6, 25)
    singular = {(f.rows, f.cols) for f in minors.failures if f.pattern == an.PATTERN_CYCLE}
    assert singular == {(c.rows, c.cols) for c in cycles.frc_failures}
    assert len(singular) == 65


# Counts and charges at j = 25, far past the dense sweep's j <= 4; code A
# over GF(32), code B over GF(3^6).  A has 1 + 15 classes and B 1 + 15
# (``_cycle_classes``); only A's 65 singular 6-cycles are charged besides.
FULL, CYCLE, MIXED = an.PATTERN_FULL, an.PATTERN_CYCLE, an.PATTERN_MIXED
DEEP_MINORS = [
    pytest.param("1,2,6;1,2,4", 2, 5, 2, 14049, {FULL: 25, MIXED: 14024}, 0, 1,
                 id="A-minors2"),
    pytest.param("1,2,6;1,2,4", 2, 5, 3, 724924, {FULL: 0, CYCLE: 322, MIXED: 724602}, 65, 81,
                 id="A-minors3"),
    pytest.param("1,2,6;2,3,5", 3, 6, 2, 13554, {FULL: 24, MIXED: 13530}, 0, 1,
                 id="B-minors2"),
    pytest.param("1,2,6;2,3,5", 3, 6, 3, 686228, {FULL: 0, CYCLE: 313, MIXED: 685915}, 0, 16,
                 id="B-minors3"),
]


@pytest.mark.parametrize("sets, p, deg, size, checked, counts, failures, used", DEEP_MINORS)
def test_minor_counts_and_charges_at_horizon_25(sets, p, deg, size, checked, counts,
                                                failures, used):
    spec = CodeSpec(DifferenceTriangleSet.from_inline(sets), make_field(p, deg), 3)
    meter = an.Meter(an.DEFAULT_BUDGET)
    rep = an.check_minors(spec, size, 25, meter)
    assert (rep.checked, rep.class_counts, len(rep.failures)) == (checked, counts, failures)
    assert meter.used == used


@pytest.mark.parametrize("length, count, frc_failures, used", [
    pytest.param(4, 25, 0, 26, id="A-cycles4"), pytest.param(6, 322, 65, 338, id="A-cycles6")])
def test_cycle_counts_and_charges_at_horizon_25(ref_spec_a, length, count, frc_failures, used):
    meter = an.Meter(an.DEFAULT_BUDGET)
    rep = an.enumerate_cycles(ref_spec_a, length, 25, meter)
    assert (len(rep.cycles), len(rep.frc_failures), rep.girth) == (count, frc_failures, 4)
    assert meter.used == used


# The strict family that `search --sets 2 --size 3 --mode strict` finds has
# no 4-cycle, so its 4-cycle report builds the first of its 12 6-cycle
# classes for the girth.
@pytest.mark.parametrize("length, count, frc_failures, used", [
    pytest.param(4, 0, 0, 1, id="strict-cycles4"), pytest.param(6, 85, 12, 97, id="strict-cycles6")])
def test_girth_6_cycle_counts_and_charges_at_horizon_12(gf32, length, count, frc_failures, used):
    spec = CodeSpec(DifferenceTriangleSet.from_inline("1,2,5;1,3,8"), gf32, 3)
    meter = an.Meter(an.DEFAULT_BUDGET)
    rep = an.enumerate_cycles(spec, length, 12, meter)
    assert (len(rep.cycles), len(rep.frc_failures), rep.girth) == (count, frc_failures, 6)
    assert meter.used == used


def _charge_cases(ref_spec_a, gf32):
    """Code A at j = 25, the strict family of girth 6 at j = 12, and seeded
    relaxed and strict families at j = 3..14."""
    fields = [make_field(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 5))]
    rng = random.Random(2018)
    strict = CodeSpec(DifferenceTriangleSet.from_inline("1,2,5;1,3,8"), gf32, 3)
    cases = [(ref_spec_a, 25), (strict, 12)]
    for trial in range(40):
        field = fields[trial % len(fields)]
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        cases.append((CodeSpec(_random_relaxed_family(rng, n, w), field, n), rng.randint(3, 14)))
        n, w = rng.randint(2, 3), rng.randint(2, 3)
        cases.append((CodeSpec(_random_strict_family(rng, n, w), field, n), rng.randint(3, 14)))
    return cases


def test_cycle_reports_charge_their_classes_and_cycles(ref_spec_a, gf32):
    # a cycle report charges the classes with a translate at j that it
    # builds, then one step per cycle; for its girth it builds the first
    # class of the other length, the 4-cycle report only when it has no
    # 4-cycle; the 2x2 minors charge the 4-cycle classes and their failures
    for spec, j in _charge_cases(ref_spec_a, gf32):
        four, six = (len(list(an._cycle_classes(spec, length, j))) for length in (4, 6))
        used, reports = [], []
        for report, size in ((an.enumerate_cycles, 4), (an.enumerate_cycles, 6),
                             (an.check_minors, 2)):
            meter = an.Meter(an.DEFAULT_BUDGET)
            reports.append(report(spec, size, j, meter))
            used.append(meter.used)
        fours, sixes, minors = reports
        assert used == [four + (min(six, 1) if not fours.cycles else 0) + len(fours.cycles),
                        min(four, 1) + six + len(sixes.cycles), four + len(minors.failures)], (spec.dts, j)


def test_reports_on_one_meter_charge_what_they_charge_alone(ref_spec_a, gf32):
    # the four reports of a verify, drawn on one meter in either order, are
    # the reports drawn on fresh meters, and the meter reads the sum of their
    # charges: no report keeps anything for another
    for spec, j in _charge_cases(ref_spec_a, gf32):
        fresh = {}
        for report, size in ((an.check_minors, 2), (an.check_minors, 3),
                             (an.enumerate_cycles, 4), (an.enumerate_cycles, 6)):
            meter = an.Meter(an.DEFAULT_BUDGET)
            fresh[report, size] = report(spec, size, j, meter), meter.used
        for order in (list(fresh), list(reversed(fresh))):
            meter = an.Meter(an.DEFAULT_BUDGET)
            for report, size in order:
                assert report(spec, size, j, meter) == fresh[report, size][0], (spec.dts, j)
            assert meter.used == sum(used for _, used in fresh.values()), (spec.dts, j)


def test_girth_of_4_cycle_free_codes_matches_the_dense_walk(gf32):
    # with no 4-cycle the girth is 6 exactly when the dense walk of the row
    # triples finds a 6-cycle; relaxed families with w = 3 have columns
    # meeting three rows, whose triples hold no 6-cycle.  The ruler 1,3,6,7
    # at j = 5 has such triples only, so its girth is None
    rng = random.Random(2032)
    cases = [(DifferenceTriangleSet.from_inline("1,3,6,7"), 2, 5)]
    for trial in range(200):
        n = rng.randint(2, 3)
        cases.append((_random_strict_family(rng, n, rng.randint(2, 3)) if trial % 2
                      else _random_relaxed_family(rng, n, 3), n, rng.randint(3, 14)))
    girths = collections.Counter()
    for dts, n, j in cases:
        spec = CodeSpec(dts, gf32, n)
        matrix = spec.sliding_matrix(j)
        if any(walks for *_, walks in _row_tuples(matrix, 2, _walks)):
            continue
        found = any(walks for *_, walks in _row_tuples(matrix, 3, _walks))
        girth = 6 if found else None
        assert an.enumerate_cycles(spec, 4, j).girth == an.enumerate_cycles(spec, 6, j).girth == girth
        girths[girth] += 1
    assert girths[6] >= 40 and girths[None]


def test_distance_profile_charges_one_budget(ref_spec_a):
    # when the check holds, the profile charges one step per column
    # distance it reports and the check, and reads every distance off it
    check = _charge(an.check_distance_assumptions, ref_spec_a)
    assert _charge(an.distance_profile, ref_spec_a) == ref_spec_a.mu + 1 + check == 27
    an.distance_profile(ref_spec_a, budget=27)
    with pytest.raises(HorizonTooLarge):
        an.distance_profile(ref_spec_a, budget=26)


def test_distance_profile_charges_its_size_before_the_check(ref_spec_a, monkeypatch):
    # a budget below mu + 1 is refused before the check or a prediction runs
    ran = []
    monkeypatch.setattr(an, "check_distance_assumptions", lambda *args: ran.append(args))
    monkeypatch.setattr(an, "minimal_column_weight", lambda *args: ran.append(args))
    with pytest.raises(HorizonTooLarge, match="^6 steps exceed the budget of 5$"):
        an.distance_profile(ref_spec_a, budget=5)
    assert not ran


def test_failing_check_profile_searches_every_distance():
    # two equal information columns fail the check, so every distance is
    # searched, on one meter, and the profile still equals the oracle's
    spec = CodeSpec(DifferenceTriangleSet(((3, 6), (3, 6))), make_field(2, 2), 3)
    charges = [_charge(an.check_distance_assumptions, spec), _charge(an.free_distance, spec)]
    charges += [_charge(an.column_distance, spec, j) for j in range(spec.mu + 1)]
    assert charges == [11, 6, 0, 0, 3, 3, 3, 6]
    assert _charge(an.distance_profile, spec) == spec.mu + 1 + sum(charges) == 38
    profile = an.distance_profile(spec)
    assert not profile.assumption_check.holds and profile.free == 2
    assert profile == oracle_distance_profile(spec)


# n = 3 families at the distance frontier: a w = 5 DTS over GF(2^6), and
# the optimal 6-, 7- and 8-mark rulers shifted to start at 1, each taken
# twice, over GF(2^8), GF(3^6) and GF(3^7).  Every check holds, so every
# column distance and the free distance are as predicted; the steps are
# mu + 1, one per column distance, and those of the check.
FRONTIER = [
    ("1,2,5,10,12;1,4,6,14,15", 2, 6, 104,
     (2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5, 6)),
    ("1,2,5,11,13,18;1,2,5,11,13,18", 2, 8, 148,
     (2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 6, 6, 6, 6, 6, 7)),
    ("1,2,5,11,19,24,26;1,2,5,11,19,24,26", 3, 6, 245,
     (2, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 8)),
    ("1,2,5,10,16,23,33,35;1,2,5,10,16,23,33,35", 3, 7, 411,
     (2, 3, 3, 3, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7,
      7, 7, 7, 7, 8, 8, 9)),
]


@pytest.mark.parametrize("sets, p, deg, used, columns", FRONTIER)
def test_distance_profile_at_the_frontier(sets, p, deg, used, columns):
    spec = CodeSpec(DifferenceTriangleSet.from_inline(sets), make_field(p, deg), 3)
    meter = an.Meter(an.DEFAULT_BUDGET)
    assert an.distance_profile(spec, meter) == an.DistanceProfile(
        column_distances=columns,
        free=spec.w + 1,
        horizon=(spec.w - 1) * spec.mu + 1,
        predicted_free=spec.w + 1,
        predicted_column=columns,
        assumption_check=an.AssumptionReport(witnesses=()),
    )
    assert meter.used == used


# the 7- and 8-mark rulers, each taken twice, over GF(4) and GF(8): both
# checks fail, and list only their minimal spanning sets
FAILING_FRONTIER = [
    ("1,2,5,11,19,24,26;1,2,5,11,19,24,26", 2, 2, 15114, 15323),
    ("1,2,5,10,16,23,33,35;1,2,5,10,16,23,33,35", 2, 3, 38010, 38383),
]


@pytest.mark.parametrize("sets, p, deg, witnesses, used", FAILING_FRONTIER)
def test_failing_check_at_the_frontier(sets, p, deg, witnesses, used, monkeypatch):
    spec = CodeSpec(DifferenceTriangleSet.from_inline(sets), make_field(p, deg), 3)
    meter = an.Meter(an.DEFAULT_BUDGET)
    report = an.check_distance_assumptions(spec, meter)
    assert len(report.witnesses) == witnesses and meter.used == used
    # the listing is charged whole, so a budget one step short of it is
    # refused before any witness is built
    built = []
    witness = an.AssumptionWitness
    monkeypatch.setattr(an, "AssumptionWitness", lambda **kw: built.append(kw) or witness(**kw))
    with pytest.raises(HorizonTooLarge):
        an.check_distance_assumptions(spec, used - 1)
    assert not built


def test_strict_profile_runs_no_span_test_in_the_check_and_no_search_at_mu(monkeypatch):
    # a strict-valid DTS has no multi-row column: its check tests no span,
    # one-column (_in_column_span) or larger (_in_span), and the profile
    # searches no distance at any horizon
    spans, searched = [], []
    search = an._min_weight_first_block

    def counted(span_test):
        def counted_span_test(*args):
            spans.append(args)
            return span_test(*args)
        return counted_span_test

    def recorded_search(spec, rows, *args):
        searched.append(rows)
        return search(spec, rows, *args)

    monkeypatch.setattr(an, "_in_span", counted(an._in_span))
    monkeypatch.setattr(an, "_in_column_span", counted(an._in_column_span))
    monkeypatch.setattr(an, "_min_weight_first_block", recorded_search)
    fields = [make_field(p, e) for p, e in ((2, 3), (3, 2), (2, 5), (7, 1))]
    rng = random.Random(19)
    specs = [CodeSpec(DifferenceTriangleSet.from_inline("1,2,5;1,3,8"), fields[2], 3)]
    specs += [CodeSpec(_random_strict_family(rng, n, w), fields[trial % len(fields)], n)
              for trial, (n, w) in enumerate(((2, 4), (3, 2), (3, 3), (4, 2), (4, 3)))]
    for spec in specs:
        spans.clear()
        searched.clear()
        profile = an.distance_profile(spec)
        assert profile.assumption_check.holds
        assert not spans and not searched, spec
        assert profile.free == spec.w + 1
        assert profile == oracle_distance_profile(spec), spec


def test_distances_and_the_syndrome_tile_no_sliding_matrix(monkeypatch):
    # the searches, the encoder and the syndrome read the marks: with both
    # tilings refused, a failing profile still searches every distance,
    # and the syndrome is still the word times the untruncated tiling
    spec = CodeSpec(DifferenceTriangleSet.from_inline("1,2,4;1,2,4"), make_field(2, 2), 3)
    expected = oracle_distance_profile(spec)
    rng = random.Random(41)
    els = list(spec.field.elements())
    word = [tuple(rng.choice(els) for _ in range(spec.n)) for _ in range(4)]
    full, f = spec.full_sliding_matrix(len(word)), spec.field
    symbols = [x for block in word for x in block]
    tiled = [functools.reduce(f.add, (f.mul(full.get(r, c), x) for c, x in enumerate(symbols, 1)), ZERO)
             for r in range(1, full.rows + 1)]

    def refuse(*args):
        raise AssertionError("tiled a sliding matrix")

    for name in ("sliding_matrix", "full_sliding_matrix"):
        monkeypatch.setattr(CodeSpec, name, refuse)
    profile = an.distance_profile(spec)
    assert not profile.assumption_check.holds and profile == expected
    assert spec.syndrome(word) == tiled and any(s is not ZERO for s in tiled)
    codeword = spec.encode([block[:-1] for block in word])
    assert all(s is ZERO for s in spec.syndrome(codeword))


def test_column_distances_when_the_check_holds_match_the_search():
    # the profile's closed form against the exhaustive searches: where the
    # check holds, each column distance is w_j + 1 and the free distance
    # w + 1; where it fails, the profile is the oracle's
    fields = [make_field(p, e) for p, e in ((2, 2), (3, 1), (5, 1), (2, 3), (3, 2), (7, 1))]
    rng = random.Random(20)
    specs = [CodeSpec(DifferenceTriangleSet(((3, 6), (3, 6))), fields[0], 3)]
    for trial in range(36):
        field = fields[trial % len(fields)]
        n, w = rng.randint(2, 4), rng.randint(1, 4)
        specs.append(CodeSpec(_random_relaxed_family(rng, n, w), field, n))
        n, w = rng.randint(2, 3), rng.randint(2, 4)
        specs.append(CodeSpec(_random_strict_family(rng, n, w), field, n))
    held = {2: 0, 3: 0}
    failed = {2: 0, 3: 0}
    for spec in specs:
        parity = 2 if spec.field.p == 2 else 3
        if an.check_distance_assumptions(spec).holds:
            held[parity] += 1
            assert [an.column_distance(spec, j) for j in range(spec.mu + 1)] == [
                an.minimal_column_weight(spec, j) + 1 for j in range(spec.mu + 1)], spec
            assert an.free_distance(spec) == spec.w + 1, spec
        else:
            failed[parity] += 1
            assert an.distance_profile(spec) == oracle_distance_profile(spec), spec
    assert all(held.values()) and all(failed.values()), (held, failed)
