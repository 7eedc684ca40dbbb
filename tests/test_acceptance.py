"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` summary line
(visible with ``-s`` and in failure reports) before asserting.  All
arithmetic is exact, so comparisons are equalities, never tolerances;
stated runtime budgets are asserted with ``time.perf_counter``.

Criteria 05 and 06 are expected to fail: every singular 3x3 minor of the
reference codes is a cycle pattern built from shifts of a single
information column, and such patterns have two equal diagonal products
that cancel over any characteristic-2 field.  The failure messages carry
the witnesses; see the README for discussion.
"""

import itertools
import time
from fractions import Fraction

from dts_ldpc import analysis as an
from dts_ldpc.code import CodeSpec, density, sliding_entry_origin
from dts_ldpc.dts import DifferenceTriangleSet, search_min_scope, validate
from dts_ldpc.gf import ZERO, det, make_field

from grids import Grid, submatrix

# 6x18 truncated parity-check matrices of the two reference codes over
# GF(2^5), transcribed entry by entry; values are exponents of alpha.
REF_A_H5 = {
    (1, 1): 1, (1, 2): 2, (1, 3): 0,
    (2, 1): 2, (2, 2): 4, (2, 4): 1, (2, 5): 2, (2, 6): 0,
    (3, 4): 2, (3, 5): 4, (3, 7): 1, (3, 8): 2, (3, 9): 0,
    (4, 2): 8, (4, 7): 2, (4, 8): 4, (4, 10): 1, (4, 11): 2, (4, 12): 0,
    (5, 5): 8, (5, 10): 2, (5, 11): 4, (5, 13): 1, (5, 14): 2, (5, 15): 0,
    (6, 1): 6, (6, 8): 8, (6, 13): 2, (6, 14): 4, (6, 16): 1, (6, 17): 2,
    (6, 18): 0,
}
REF_B_H5 = {
    (1, 1): 1, (1, 3): 0,
    (2, 1): 2, (2, 2): 4, (2, 4): 1, (2, 6): 0,
    (3, 2): 6, (3, 4): 2, (3, 5): 4, (3, 7): 1, (3, 9): 0,
    (4, 5): 6, (4, 7): 2, (4, 8): 4, (4, 10): 1, (4, 12): 0,
    (5, 2): 10, (5, 8): 6, (5, 10): 2, (5, 11): 4, (5, 13): 1, (5, 15): 0,
    (6, 1): 6, (6, 5): 10, (6, 11): 6, (6, 13): 2, (6, 14): 4, (6, 16): 1,
    (6, 18): 0,
}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _relaxed_universe(scope_cap: int, sizes=(1, 2, 3)):
    """Every relaxed-valid family with n in {2, 3} and per-set scope <= cap."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for w in sizes:
        for combo in itertools.combinations(range(1, scope_cap + 1), w):
            if validate(DifferenceTriangleSet((combo,)), "relaxed").valid:
                by_size.setdefault(w, []).append(combo)
    for n in (2, 3):
        for sets_of_w in by_size.values():
            for sets in itertools.product(sets_of_w, repeat=n - 1):
                dts = DifferenceTriangleSet(sets)
                if validate(dts, "relaxed").valid:
                    yield n, dts


def test_criterion_01_golden_construction(ref_spec_a, ref_spec_b):
    t0 = time.perf_counter()
    got_a = ref_spec_a.sliding_matrix(5)
    got_b = ref_spec_b.sliding_matrix(5)
    elapsed = time.perf_counter() - t0
    ok = (
        (got_a.rows, got_a.cols) == (6, 18)
        and (got_b.rows, got_b.cols) == (6, 18)
        and got_a.entries == REF_A_H5
        and got_b.entries == REF_B_H5
        and elapsed < 1.0
    )
    _line(1, ok, f"two 6x18 reference matrices, exponent-for-exponent, "
                 f"{elapsed:.3f}s")
    assert (got_a.rows, got_a.cols) == (6, 18)
    assert got_a.entries == REF_A_H5
    assert (got_b.rows, got_b.cols) == (6, 18)
    assert got_b.entries == REF_B_H5
    assert elapsed < 1.0


def test_criterion_02_reference_distance_profiles(ref_spec_a, ref_spec_b):
    cases = (
        ("A", ref_spec_a, (2, 3, 3, 3, 3, 4)),
        ("B", ref_spec_b, (1, 2, 3, 3, 3, 4)),
    )
    results = []
    for name, spec, want in cases:
        t0 = time.perf_counter()
        got = tuple(an.column_distance(spec, j) for j in range(6))
        free = an.free_distance(spec)
        elapsed = time.perf_counter() - t0
        results.append((name, got, want, free, elapsed))
    ok = all(
        got == want and free == 4 and elapsed < 10.0
        for _, got, want, free, elapsed in results
    )
    _line(2, ok, "; ".join(
        f"{name}: d^c={got} d_free={free} in {elapsed:.2f}s"
        for name, got, _, free, elapsed in results
    ))
    for name, got, want, free, elapsed in results:
        assert got == want, name
        assert free == 4, name
        assert elapsed < 10.0, name


def test_criterion_03_distance_predictions_across_sweep(gf32):
    t0 = time.perf_counter()
    total = held = 0
    misses = []
    for n, dts in _relaxed_universe(7):
        spec = CodeSpec(dts, gf32, n)
        total += 1
        if not an.check_distance_assumptions(spec).holds:
            continue
        held += 1
        free = an.free_distance(spec)
        if free != spec.w + 1:
            misses.append((n, dts.sets, "free", free))
            continue
        for j in range(spec.mu + 1):
            if an.column_distance(spec, j) != an.minimal_column_weight(spec, j) + 1:
                misses.append((n, dts.sets, "column", j))
                break
    elapsed = time.perf_counter() - t0
    ok = not misses and (total, held) == (1220, 1210)
    _line(3, ok, f"{held}/{total} specs pass the hypothesis check, "
                 f"{len(misses)} prediction misses, {elapsed:.1f}s")
    assert (total, held) == (1220, 1210)
    assert not misses, misses[:5]


def test_criterion_04_2x2_minor_sweep_and_closed_form(ref_spec_a, ref_spec_b, gf32):
    t0 = time.perf_counter()
    sweep = []
    for spec in (ref_spec_a, ref_spec_b):
        report = an.check_minors(spec, 2)
        matrix = Grid(spec.sliding_matrix(5))
        seen = 0
        for rows in itertools.combinations(range(1, matrix.rows + 1), 2):
            for cols in itertools.combinations(range(1, matrix.cols + 1), 2):
                grid = submatrix(matrix, rows, cols)
                if any(e is ZERO for row in grid for e in row):
                    continue
                seen += 1
                i, j = sliding_entry_origin(spec.n, rows[0], cols[0])
                l, k = sliding_entry_origin(spec.n, rows[0], cols[1])
                r = rows[1] - rows[0]
                closed = gf32.mul(
                    gf32.alpha_pow(i * j + l * k),
                    gf32.sub(gf32.alpha_pow(r * k), gf32.alpha_pow(r * j)),
                )
                assert det(gf32, grid) == closed, (rows, cols)
        assert seen == report.class_counts.get(an.PATTERN_FULL, 0)
        sweep.append((report.checked, len(report.failures), seen))
    elapsed = time.perf_counter() - t0
    ok = all(f == 0 for _, f, _ in sweep) and elapsed < 30.0
    _line(4, ok, f"A/B checked {sweep[0][0]}/{sweep[1][0]} minors, "
                 f"{sweep[0][1]}+{sweep[1][1]} failures, closed form matched "
                 f"{sweep[0][2]}+{sweep[1][2]} fully-nonzero minors, {elapsed:.2f}s")
    assert sweep[0][:2] == (399, 0)
    assert sweep[1][:2] == (324, 0)
    assert elapsed < 30.0


def test_criterion_05_3x3_minor_sweep(ref_spec_a, ref_spec_b):
    t0 = time.perf_counter()
    report_a = an.check_minors(ref_spec_a, 3)
    report_b = an.check_minors(ref_spec_b, 3)
    elapsed = time.perf_counter() - t0
    ok = report_a.ok and report_b.ok and elapsed < 300.0
    _line(5, ok, f"A: {len(report_a.failures)}/{report_a.checked} singular, "
                 f"B: {len(report_b.failures)}/{report_b.checked} singular, "
                 f"{elapsed:.2f}s")
    assert elapsed < 300.0
    for name, report in (("A", report_a), ("B", report_b)):
        witnesses = [(f.rows, f.cols) for f in report.failures]
        assert report.ok, (
            f"reference {name}: expected zero singular non-trivially-zero "
            f"3x3 minors but found {len(witnesses)}: {witnesses}; each is a "
            f"cycle pattern whose three columns are shifts of one "
            f"information column, so its two diagonal products carry the "
            f"same exponent and cancel over the characteristic-2 field "
            f"GF(2^5)"
        )


def test_criterion_06_frc_cycle_duality(ref_spec_a, ref_spec_b, gf7):
    inventory = []
    for name, spec in (("A", ref_spec_a), ("B", ref_spec_b)):
        minors_2 = {
            (f.rows, f.cols)
            for f in an.check_minors(spec, 2).failures
            if f.pattern == an.PATTERN_FULL
        }
        frc_4 = {(c.rows, c.cols) for c in an.enumerate_cycles(spec, 4).frc_failures}
        minors_3 = {
            (f.rows, f.cols)
            for f in an.check_minors(spec, 3).failures
            if f.pattern == an.PATTERN_CYCLE
        }
        frc_6 = {(c.rows, c.cols) for c in an.enumerate_cycles(spec, 6).frc_failures}
        assert minors_2 == frc_4, name
        assert minors_3 == frc_6, name
        inventory.append((name, len(frc_4), len(frc_6)))

    adversarial = CodeSpec(DifferenceTriangleSet(((1, 7), (1, 7))), gf7, 3)
    adv_minors = {
        (f.rows, f.cols)
        for f in an.check_minors(adversarial, 2).failures
        if f.pattern == an.PATTERN_FULL
    }
    adv_frc = {(c.rows, c.cols) for c in an.enumerate_cycles(adversarial, 4).frc_failures}
    assert adv_minors == adv_frc == {((1, 7), (1, 2))}

    ok = all(c4 == 0 and c6 == 0 for _, c4, c6 in inventory)
    _line(6, ok, "set equality holds everywhere; witness counts " + ", ".join(
        f"{name}: 4-cycle={c4} 6-cycle={c6}" for name, c4, c6 in inventory
    ) + "; adversarial GF(7) witness matched")
    for name, c4, c6 in inventory:
        assert c4 == 0 and c6 == 0, (
            f"reference {name}: the 6-cycle and singular-3x3 witness sets "
            f"are equal but not empty ({c6} matched witnesses); the shared "
            f"witnesses are same-column cycle patterns, singular over any "
            f"characteristic-2 field"
        )


def test_criterion_07_density_closed_form_and_census(ref_spec_a):
    closed = density(3, 3, 5, 18)
    full = ref_spec_a.full_sliding_matrix(6)
    empirical = Fraction(full.nonzero_count, full.rows * full.cols)
    ok = (
        closed == Fraction(7, 33)
        and (full.rows, full.cols) == (11, 18)
        and full.nonzero_count == 42
        and empirical == closed
    )
    _line(7, ok, f"density(3,3,5,18)={closed}, census {full.nonzero_count}/"
                 f"{full.rows * full.cols}={empirical}")
    assert closed == Fraction(7, 33)
    assert (full.rows, full.cols) == (11, 18)
    assert full.nonzero_count == 42
    assert empirical == closed


def test_criterion_08_degree_equals_scope_minus_one(gf32):
    checked = 0
    mismatches = []
    for n, dts in _relaxed_universe(7):
        spec = CodeSpec(dts, gf32, n)
        checked += 1
        if spec.delta != dts.scope - 1:
            mismatches.append((n, dts.sets, spec.delta, dts.scope))
    ok = not mismatches and checked == 1220
    _line(8, ok, f"delta == scope - 1 on {checked} constructed specs, "
                 f"{len(mismatches)} mismatches")
    assert checked == 1220
    assert not mismatches, mismatches[:5]


def _oracle_column_distance(spec: CodeSpec, j: int) -> int:
    """Minimal weight over truncated words with a nonzero leading block.

    Independent of the span criterion: words are generated from the parity
    recursion directly off the difference sets, enumerated by ascending
    information weight so the scan can stop once the information weight
    alone reaches the best total weight seen.
    """
    field, n, sets = spec.field, spec.n, spec.dts.sets
    nonzero = list(range(field.q - 1))
    coefs = [
        [(a - 1, field.alpha_pow(a * k)) for a in sets[k - 1]]
        for k in range(1, n)
    ]
    length = (n - 1) * (j + 1)
    best = None
    for wt in range(1, length + 1):
        if best is not None and wt >= best:
            break
        for pos in itertools.combinations(range(length), wt):
            if pos[0] >= n - 1:
                continue
            for vals in itertools.product(nonzero, repeat=wt):
                u: list = [ZERO] * length
                for p, v in zip(pos, vals):
                    u[p] = v
                total = wt
                for t in range(j + 1):
                    acc = ZERO
                    for k in range(n - 1):
                        for off, c in coefs[k]:
                            if off <= t:
                                acc = field.add(acc, field.mul(c, u[(t - off) * (n - 1) + k]))
                    if acc is not ZERO:
                        total += 1
                if best is None or total < best:
                    best = total
    assert best is not None
    return best


def test_criterion_09_span_criterion_vs_brute_force(gf32):
    t0 = time.perf_counter()
    checked = 0
    mismatches = []
    for p, deg in ((2, 1), (3, 1), (2, 2)):
        field = make_field(p, deg)
        for n, dts in _relaxed_universe(4, sizes=(1, 2, 3, 4)):
            spec = CodeSpec(dts, field, n)
            for j in range(spec.mu + 1):
                checked += 1
                got = an.column_distance(spec, j)
                want = _oracle_column_distance(spec, j)
                if got != want:
                    mismatches.append((field.q, n, dts.sets, j, got, want))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and checked == 714 and elapsed < 60.0
    _line(9, ok, f"{checked} (field, code, horizon) cases, "
                 f"{len(mismatches)} mismatches, {elapsed:.1f}s")
    assert checked == 714
    assert not mismatches, mismatches[:5]
    assert elapsed < 60.0


def test_criterion_10_scope_search_and_validation_modes(dts_126_124):
    result = search_min_scope(1, 3, "relaxed", min_element=1)
    strict = validate(dts_126_124, "strict")
    relaxed = validate(dts_126_124, "relaxed")
    ok = (
        result.scope == 4
        and result.dts.sets == ((1, 2, 4),)
        and result.certificate.exhausted_scopes == (3,)
        and not strict.valid
        and any(d.value == 1 for d in strict.duplicates)
        and relaxed.valid
    )
    _line(10, ok, f"min scope {result.scope} with witness "
                  f"{set(result.dts.sets[0])}, exhausted "
                  f"{list(result.certificate.exhausted_scopes)}; strict "
                  f"rejects the shared difference 1, relaxed accepts")
    assert result.scope == 4
    assert result.dts.sets == ((1, 2, 4),)
    assert result.certificate.exhausted_scopes == (3,)
    assert not strict.valid
    assert any(d.value == 1 for d in strict.duplicates)
    assert relaxed.valid
