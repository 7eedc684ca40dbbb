"""Construction, encoder and parameter-formula tests."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from dts_ldpc.code import (
    CodeSpec,
    ExponentMatrix,
    build_base_matrix,
    density,
    min_field_params,
    sliding_entry_origin,
)
from dts_ldpc.dts import DifferenceTriangleSet, differences, search_min_scope, validate
from dts_ldpc.errors import IncompleteBlock, SetCountMismatch, ZeroElementInDTS
from dts_ldpc.formats import from_alist, render_pretty, to_alist, to_json
from dts_ldpc.gf import ZERO, GaloisField, _factor_prime_power

from grids import submatrix

# frozen golden base matrices, entries (row, col) -> exponent
BASE_126_124 = {
    (1, 1): 1, (2, 1): 2, (6, 1): 6,
    (1, 2): 2, (2, 2): 4, (4, 2): 8,
    (1, 3): 0,
}
BASE_126_235 = {
    (1, 1): 1, (2, 1): 2, (6, 1): 6,
    (2, 2): 4, (3, 2): 6, (5, 2): 10,
    (1, 3): 0,
}


def test_exponent_matrix_basics(gf32):
    m = ExponentMatrix(2, 3, {(1, 1): 5, (2, 3): 0}, gf32)
    assert m.get(1, 1) == 5 and m.get(1, 2) is ZERO
    assert m.nonzero_count == 2
    assert m.row_support(1) == (1,) and m.col_support(3) == (2,)
    assert submatrix(m, [1, 2], [3]) == [[ZERO], [0]]
    assert submatrix(m, [1, 2], [1, 2, 3]) == [[5, None, None], [None, None, 0]]
    assert list(m.items()) == [(1, 1, 5), (2, 3, 0)]
    # a huge shape costs nothing: items() walks only the rows with entries,
    # and the layout keeps only the nonempty columns
    huge = ExponentMatrix(10**12, 10**12, {(1, 1): 5, (10**12, 10**12): 0}, gf32)
    assert list(huge.items()) == [(1, 1, 5), (10**12, 10**12, 0)] and huge.nonzero_count == 2
    assert huge.col_support(10**12) == (10**12,) and huge.row_support(10**12) == (10**12,)
    with pytest.raises(ValueError):
        ExponentMatrix(2, 3, {(3, 1): 0}, gf32)
    with pytest.raises(ValueError):
        ExponentMatrix(2, 3, {(1, 1): 31}, gf32)


def test_reading_a_matrix_changes_nothing(ref_spec_a):
    # a matrix is a value: every reader reads it off the shared pattern and
    # keeps nothing on it, for a tiling and for a matrix read back one copy
    tiling = ref_spec_a.sliding_matrix(8)
    read_back = from_alist(to_alist(ref_spec_a.base))
    for matrix in (tiling, read_back):
        before = set(vars(matrix))
        rows, cols = range(0, matrix.rows + 2), range(0, matrix.cols + 2)
        for r in rows:
            matrix.row_support(r)
            for c in cols:
                matrix.get(r, c)
        for c in cols:
            matrix.col_support(c)
        submatrix(matrix, rows, cols)
        matrix.entries
        list(matrix.items())
        list(matrix.row_runs())
        list(matrix.block_runs())
        assert matrix == matrix
        to_alist(matrix), to_json(matrix), render_pretty(matrix)
        assert set(vars(matrix)) == before


def test_base_matrix_golden(gf32, dts_126_124, dts_126_235):
    base_a = build_base_matrix(dts_126_124, gf32, 3)
    assert base_a.rows == 6 and base_a.cols == 3
    assert base_a.entries == BASE_126_124
    base_b = build_base_matrix(dts_126_235, gf32, 3)
    assert base_b.entries == BASE_126_235


def test_base_matrix_rate_half(gf32):
    base = build_base_matrix(DifferenceTriangleSet(((1,),)), gf32, 2)
    assert base.rows == 1 and base.cols == 2
    assert base.entries == {(1, 1): 1, (1, 2): 0}


def test_base_matrix_exponent_reduction():
    f7 = GaloisField(7, 1)
    base = build_base_matrix(DifferenceTriangleSet(((1, 7), (1, 7))), f7, 3)
    # exponents reduce mod q-1 = 6 at construction time
    assert base.entries == {
        (1, 1): 1, (7, 1): 1,
        (1, 2): 2, (7, 2): 2,
        (1, 3): 0,
    }


def test_base_matrix_errors(gf32, dts_126_124):
    with pytest.raises(SetCountMismatch):
        build_base_matrix(dts_126_124, gf32, 4)
    with pytest.raises(ZeroElementInDTS):
        build_base_matrix(DifferenceTriangleSet(((0, 1),)), gf32, 2)
    with pytest.raises(ValueError):
        # differences 1,1,2 collide within the set
        build_base_matrix(DifferenceTriangleSet(((1, 2, 3),)), gf32, 2)


@pytest.mark.parametrize("sets, n, message", [
    (((1, 2, 6), (1, 2, 4)), 2, "need 1 set(s) for n = 2, got 2"),
    (((1, 2, 4),), 3, "need 2 set(s) for n = 3, got 1"),
])
def test_set_count_mismatch_names_the_count(gf32, sets, n, message):
    with pytest.raises(SetCountMismatch) as refused:
        build_base_matrix(DifferenceTriangleSet(sets), gf32, n)
    assert str(refused.value) == message


def test_spec_parameters(gf32, dts_126_124):
    spec = CodeSpec(dts_126_124, gf32, 3)
    assert spec.w == 3 and spec.scope == 6
    assert spec.mu == 5 and spec.delta == 5


def test_sliding_matrix_horizon_zero(gf32, dts_126_124):
    spec = CodeSpec(dts_126_124, gf32, 3)
    h0 = spec.sliding_matrix(0)
    assert h0.rows == 1 and h0.cols == 3
    assert h0.entries == {(1, 1): 1, (1, 2): 2, (1, 3): 0}


def test_sliding_matrix_block_structure(gf32):
    rng = random.Random(23)
    for _ in range(20):
        found = search_min_scope(2, rng.choice([2, 3]), "relaxed", 1)
        spec = CodeSpec(found.dts, gf32, 3)
        j = rng.randint(0, spec.mu + 2)
        sl = spec.sliding_matrix(j)
        assert sl.rows == j + 1 and sl.cols == 3 * (j + 1)
        for r in range(1, sl.rows + 1):
            for t in range(j + 1):
                for c in range(1, 4):
                    expected = spec.base.get(r - t, c) if r - t >= 1 else ZERO
                    assert sl.get(r, t * 3 + c) == expected


def test_sliding_entry_origin_consistency(gf32, dts_126_235):
    spec = CodeSpec(dts_126_235, gf32, 3)
    sl = spec.sliding_matrix(5)
    for r, c, e in sl.items():
        i, k = sliding_entry_origin(3, r, c)
        assert e == gf32.alpha_pow(i * k)


@pytest.mark.parametrize("inline, n", [("1,2,6;2,3,5", 3), ("1,2,5;1,3,8;2,4,9", 4), ("1,3", 2)])
def test_column_entries_read_the_sliding_matrix(gf32, inline, n):
    # every column, parity columns included, on every row, and no matrix built
    spec = CodeSpec(DifferenceTriangleSet.from_inline(inline), gf32, n)
    entries = [spec.column_entries(c, range(1, spec.mu + 2)) for c in range(1, n * spec.scope + 1)]
    assert "base" not in vars(spec)
    sl = spec.sliding_matrix(spec.mu)
    assert entries == [[sl.get(r, c) for r in range(1, sl.rows + 1)] for c in range(1, sl.cols + 1)]
    # column_at inverts column_origin, and row_columns reads the same supports
    for c in range(1, sl.cols + 1):
        assert spec.column_at(*spec.column_origin(c)) == c
    for r in range(1, sl.rows + 1):
        assert sorted(spec.row_columns(r)) == sorted(sl.row_support(r))
    # the witnesses are the differences, with marks in place of positions
    sets = spec.dts.sets
    assert spec.witnesses == {
        d: [(k, sets[k - 1][low - 1], spec.column_at(-sets[k - 1][low - 1], k)) for k, _, low in found]
        for d, found in differences(spec.dts).items()}


def test_full_sliding_matrix_shape(gf32, dts_126_124):
    spec = CodeSpec(dts_126_124, gf32, 3)
    full = spec.full_sliding_matrix(6)
    assert full.rows == 11 and full.cols == 18
    # every block column is complete: w(n-1)+1 nonzeros each
    for t in range(6):
        per_block = sum(1 for (r, c) in full.entries if (c - 1) // 3 == t)
        assert per_block == 7
    assert full.nonzero_count == 42
    with pytest.raises(ValueError, match="^need at least one block column$"):
        spec.full_sliding_matrix(0)


def oracle_stack(spec, num_blocks, rows):
    """The sliding matrix written out entry by entry from the DTS: block t
    is the base matrix moved down t rows, cut at ``rows``."""
    base = {(i, k): spec.field.alpha_pow(i * k)
            for k, t_k in enumerate(spec.dts.sets, start=1) for i in t_k}
    base[(1, spec.n)] = 0
    entries = {}
    for (i, c), e in base.items():
        for t in range(num_blocks):
            if i + t <= rows:
                entries[(i + t, t * spec.n + c)] = e
    return entries


def assert_matches_stack(matrix, entries):
    """Every reader of ``matrix`` against the written-out entry dict."""
    for r in range(matrix.rows + 2):
        assert [matrix.get(r, c) for c in range(matrix.cols + 2)] == \
            [entries.get((r, c)) for c in range(matrix.cols + 2)]
        assert matrix.row_support(r) == tuple(sorted(c for (i, c) in entries if i == r))
    for c in range(matrix.cols + 2):
        assert matrix.col_support(c) == tuple(sorted(r for (r, j) in entries if j == c))
    assert list(matrix.items()) == sorted((r, c, e) for (r, c), e in entries.items())
    assert matrix.nonzero_count == len(entries)
    assert matrix.entries == entries


def _seeded_family(rng, n, w, mode):
    while True:
        dts = DifferenceTriangleSet(tuple(tuple(sorted(rng.sample(range(1, 4 * w + 4), w)))
                                          for _ in range(n - 1)))
        if validate(dts, mode).valid:
            return dts


def seeded_tilings():
    """``(view, shape, entries)`` of 40 seeded truncated and 40 untruncated
    sliding matrices, each with its entries written out by ``oracle_stack``."""
    fields = [GaloisField(p, e) for p, e in ((2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 5))]
    rng = random.Random(2016)
    cases = []
    for trial in range(40):
        strict = trial % 4 == 3
        # strict families keep to two sets of at most 3, which a random draw finds quickly
        n, w = rng.randint(2, 3 if strict else 4), rng.randint(1, 3 if strict else 4)
        dts = _seeded_family(rng, n, w, "strict" if strict else "relaxed")
        spec = CodeSpec(dts, fields[trial % len(fields)], n)
        j = 60 if trial == 0 else rng.randint(0, 60)
        cases.append((spec.sliding_matrix(j), (j + 1, n * (j + 1)),
                      oracle_stack(spec, j + 1, j + 1)))
        blocks = rng.randint(1, 12)
        cases.append((spec.full_sliding_matrix(blocks), (blocks + spec.mu, n * blocks),
                      oracle_stack(spec, blocks, blocks + spec.mu)))
    return cases


def test_sliding_view_matches_written_out_stack():
    # the writers are checked on the same tilings in test_writers.py
    cases = seeded_tilings()
    for view, shape, entries in cases:
        assert (view.rows, view.cols) == shape
        assert_matches_stack(view, entries)
        oracle = ExponentMatrix(view.rows, view.cols, entries, view.field)
        assert view == oracle and oracle == view
        # a tiling shares its pattern's layout, so it is not tiled again
        with pytest.raises(ValueError, match="one-copy"):
            view._tiled(1, view.rows)
    # an entry of the view differs from an otherwise equal matrix
    view, _, entries = cases[0]
    (r, c), e = next(iter(entries.items()))
    other = (e + 1) % (view.field.q - 1)
    changed = ExponentMatrix(view.rows, view.cols, {**entries, (r, c): other}, view.field)
    assert view != changed and changed != view


def test_sliding_view_costs_the_base_at_any_horizon(ref_spec_a):
    tracemalloc.start()
    try:
        full = ref_spec_a.full_sliding_matrix(10**9)
        view = ref_spec_a.sliding_matrix(10**9 - 1)  # 10**9 rows and blocks
        assert view.nonzero_count == 7 * 10**9 - 10
        assert view.row_support(10**9) == tuple(
            3 * (10**9 - i) + c for i, c in ((6, 1), (4, 2), (2, 1), (2, 2), (1, 1), (1, 2), (1, 3)))
        assert view.col_support(3 * 10**9 - 2) == (10**9,)
        assert full.col_support(3 * 10**9 - 2) == (10**9, 10**9 + 1, 10**9 + 5)
        assert view.get(10**9, 3 * 10**9) == 0 and view.get(10**9, 3 * 10**9 - 3) is ZERO
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_encode_single_symbol_golden(gf32, dts_126_235):
    spec = CodeSpec(dts_126_235, gf32, 3)
    word = spec.encode([(0, ZERO)])
    assert word == [
        (0, None, 1),
        (None, None, 2),
        (None, None, None),
        (None, None, None),
        (None, None, None),
        (None, None, 6),
    ]
    weight = sum(1 for b in word for x in b if x is not None)
    assert weight == spec.w + 1
    assert all(s is ZERO for s in spec.syndrome(word))


def test_encode_parity_recursion_is_char2_negation_free(gf7):
    # over odd characteristic the parity picks up the explicit negation
    spec = CodeSpec(DifferenceTriangleSet(((1, 2),)), gf7, 2)
    word = spec.encode([(0,)])
    # p_0 = -alpha^1, exponent 1 + log(-1) = 1 + 3 mod 6
    assert word[0] == (0, gf7.mul(1, gf7.neg(0)))
    assert all(s is ZERO for s in spec.syndrome(word))


def test_encode_empty_and_zero_messages(gf32, dts_126_124):
    spec = CodeSpec(dts_126_124, gf32, 3)
    assert spec.encode([]) == []
    zero_word = spec.encode([(ZERO, ZERO), (ZERO, ZERO)])
    assert len(zero_word) == 2 + spec.mu
    assert all(x is ZERO for b in zero_word for x in b)


def test_encode_validates_block_size(gf32, dts_126_124):
    spec = CodeSpec(dts_126_124, gf32, 3)
    with pytest.raises(ValueError):
        spec.encode([(0,)])
    with pytest.raises(ValueError):
        spec.syndrome([(0, 0)])


def test_encode_syndrome_random_messages(gf32, gf7, dts_126_124, dts_126_235):
    rng = random.Random(97)
    specs = [
        CodeSpec(dts_126_124, gf32, 3),
        CodeSpec(dts_126_235, gf32, 3),
        CodeSpec(DifferenceTriangleSet(((1, 2, 4),)), gf7, 2),
        CodeSpec(DifferenceTriangleSet(((1, 3), (2, 5))), GaloisField(2, 2), 3),
    ]
    for trial in range(1000):
        spec = specs[trial % len(specs)]
        els = list(spec.field.elements())
        msg = [
            tuple(rng.choice(els) for _ in range(spec.n - 1))
            for _ in range(rng.randint(1, 6))
        ]
        word = spec.encode(msg)
        assert all(s is ZERO for s in spec.syndrome(word))
        for t, block in enumerate(word[: len(msg)]):
            assert block[: spec.n - 1] == msg[t]


def oracle_syndrome(spec, word):
    """The word times the untruncated sliding matrix, written entry by entry
    from ``sliding_entry_origin``: alpha^(base_row * index) where base_row
    is in the support of the column's set, the parity's being {1}."""
    f, symbols = spec.field, [x for block in word for x in block]
    out = []
    for r in range(1, len(word) + spec.mu + 1):
        acc = ZERO
        for c, x in enumerate(symbols, start=1):
            base_row, index = sliding_entry_origin(spec.n, r, c)
            if base_row in (spec.dts.sets[index - 1] if index else (1,)):
                acc = f.add(acc, f.mul(f.alpha_pow(base_row * index), x))
        out.append(acc)
    return out


def test_syndrome_matches_the_entrywise_oracle(ref_spec_a, ref_spec_b, gf7):
    rng = random.Random(41)
    specs = [ref_spec_a, ref_spec_b]
    for field in (gf7, GaloisField(3, 2)):
        n, w = rng.randint(3, 4), rng.randint(3, 4)
        sets = []
        while len(sets) < n - 1:
            s = tuple(sorted(rng.sample(range(1, w + 4), w)))
            if validate(DifferenceTriangleSet((s,)), "relaxed").valid:
                sets.append(s)
        specs.append(CodeSpec(DifferenceTriangleSet(tuple(sets)), field, n))
    for trial in range(400):
        spec = specs[trial % len(specs)]
        els = list(spec.field.elements())
        word = [tuple(rng.choice(els) for _ in range(spec.n)) for _ in range(rng.randint(0, 6))]
        assert spec.syndrome(word) == oracle_syndrome(spec, word), (spec, word)


def test_nonzero_syndrome_for_non_codeword(gf32, dts_126_124):
    spec = CodeSpec(dts_126_124, gf32, 3)
    assert any(s is not ZERO for s in spec.syndrome([(0, ZERO, ZERO)]))


def test_density_golden_and_errors():
    assert density(3, 3, 5, 18) == Fraction(7, 33)
    with pytest.raises(IncompleteBlock):
        density(3, 3, 5, 16)
    for length in (-3, 0, 2):
        with pytest.raises(IncompleteBlock,
                           match=f"^message length {length} is shorter than a block of n = 3$"):
            density(3, 3, 5, length)
    for n, w, mu in [(3, 0, 5), (3, 3, -9), (-3, 3, 5), (0, 3, 5), (1, 3, 5)]:
        with pytest.raises(ValueError, match="need n >= 2"):
            density(n, w, mu, 6)
    # the w marks lie in 1..mu+1
    assert density(3, 3, 2, 3) == Fraction(7, 9)
    with pytest.raises(ValueError, match=r"need w <= mu \+ 1, got w = 3, mu = 0"):
        density(3, 3, 0, 3)


def test_density_matches_untruncated_count():
    f2 = GaloisField(2, 1)
    for n in range(2, 6):
        for w in range(1, 5):
            found = search_min_scope(n - 1, w, "relaxed", 1)
            spec = CodeSpec(found.dts, f2, n)
            assert spec.mu <= 8
            for blocks in (1, 3, 12):
                full = spec.full_sliding_matrix(blocks)
                total = full.rows * full.cols
                assert Fraction(full.nonzero_count, total) == density(
                    n, w, spec.mu, n * blocks
                )


def test_min_field_params_golden():
    got = min_field_params(3, 6, 3)
    assert (got.q_2x2, got.n_3x3) == (12, 5)
    assert (got.p, got.n, got.q) == (2, 5, 32)
    small = min_field_params(3, 2, 2)
    assert (small.q_2x2, small.n_3x3) == (4, 1)
    assert small.q == 4
    # no set of marks >= 1 has more marks than its scope
    with pytest.raises(ValueError, match="^need w <= scope, got w = 3, scope = 2$"):
        min_field_params(3, 2, 3)
    # rate 1/2 never constrains the extension degree
    assert min_field_params(2, 9, 3).n_3x3 == 1


def test_min_field_params_low_weight_ignores_degree_bound():
    got = min_field_params(3, 6, 2)
    assert got.n_3x3 == 5
    assert got.q == 13


def oracle_suggested_field(n, scope, w):
    """(p, e) by stepping q up from the 2x2 bound to a prime power with e >= N_3x3."""
    delta = scope - 1
    min_deg = max(1, (delta - 1) * (n - 2) + 1) if w >= 3 else 1
    q = max(3, (n - 1) * delta + 2)
    while True:
        pp = _factor_prime_power(q)
        if pp is not None and pp[1] >= min_deg:
            return pp
        q += 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_min_field_params_matches_stepping_oracle(n):
    for scope in range(1, 13):
        for w in range(scope + 1, 5):
            with pytest.raises(ValueError):
                min_field_params(n, scope, w)
        for w in range(1, min(scope, 4) + 1):
            got = min_field_params(n, scope, w)
            if w >= 3 and got.n_3x3 > 16:
                # the oracle would step through 2**N_3x3 values; 2**N_3x3 is
                # at least q_2x2 here, and any other p**e with e >= N_3x3 is larger
                assert 2**got.n_3x3 >= got.q_2x2
                assert (got.p, got.n) == (2, got.n_3x3)
            else:
                assert (got.p, got.n) == oracle_suggested_field(n, scope, w)


def test_min_field_params_rejects_bad_input():
    with pytest.raises(ValueError):
        min_field_params(1, 6, 3)
