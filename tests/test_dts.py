"""Difference triangle set tests with an exhaustive search oracle."""

import itertools
import random
import re

import pytest

from dts_ldpc.cli import main
from dts_ldpc.dts import (
    DifferenceTriangleSet,
    SearchCertificate,
    SearchResult,
    differences,
    scope,
    search_min_scope,
    validate,
)
from dts_ldpc.errors import DEFAULT_BUDGET, BudgetExhausted, HorizonTooLarge, Meter

T126_124 = DifferenceTriangleSet(((1, 2, 6), (1, 2, 4)))
T126_235 = DifferenceTriangleSet(((1, 2, 6), (2, 3, 5)))


# ---------------------------------------------------------------------------
# oracle: brute-force validity/minimum scope via plain combinations
# ---------------------------------------------------------------------------

def oracle_valid(mode, sets):
    seen_global = set()
    for s in sets:
        seen_local = set()
        for a, b in itertools.combinations(s, 2):
            d = b - a
            if d in seen_local or (mode == "strict" and d in seen_global):
                return False
            seen_local.add(d)
        seen_global |= seen_local
    return True


def oracle_min_scope(num_sets, set_size, mode, min_element, limit=12):
    for target in range(min_element + set_size - 1, limit + 1):
        pool = range(min_element, target + 1)
        best = None
        for combo in itertools.product(
            itertools.combinations(pool, set_size), repeat=num_sets
        ):
            if max(s[-1] for s in combo) != target:
                continue
            if oracle_valid(mode, combo):
                flat = tuple(a for s in combo for a in s)
                if best is None or flat < best[0]:
                    best = (flat, combo)
        if best:
            return target, best[1]
    return None


def oracle_search_min_scope(num_sets, set_size, mode, min_element, scope_budget=32):
    """Reference DFS: one difference bit per placed mark and candidate, and
    one recursion level per mark of every set.  It counts one node per
    candidate element tried, as search_min_scope must."""
    nodes = 0
    exhausted = []

    def dfs(target, sets_done, cur, cur_mask, carry_mask):
        nonlocal nodes
        if len(cur) == set_size:
            done = sets_done + [tuple(cur)]
            if len(done) == num_sets:
                return done
            next_carry = carry_mask | cur_mask if mode == "strict" else 0
            return dfs(target, done, [], 0, next_carry)
        lo = cur[-1] + 1 if cur else min_element
        hi = target - (set_size - len(cur) - 1)
        for e in range(lo, hi + 1):
            nodes += 1
            new_bits = 0
            ok = True
            for a in cur:
                bit = 1 << (e - a)
                if (cur_mask | carry_mask | new_bits) & bit:
                    ok = False
                    break
                new_bits |= bit
            if not ok:
                continue
            hit = dfs(target, sets_done, cur + [e], cur_mask | new_bits, carry_mask)
            if hit is not None:
                return hit
        return None

    for target in range(min_element + set_size - 1, scope_budget + 1):
        found = dfs(target, [], [], 0, 0)
        if found is not None:
            dts = DifferenceTriangleSet(tuple(found))
            return SearchResult(dts, dts.scope, SearchCertificate(tuple(exhausted), nodes))
        exhausted.append(target)
    raise BudgetExhausted(
        f"no {mode} family of {num_sets} set(s) of size {set_size} with scope <= {scope_budget}"
    )


def oracle_bitvector_search(num_sets, set_size, mode, min_element, scope_budget=32):
    """The bit-vector DFS of search_min_scope without reuse of any subtree:
    every set is walked, and every target from scratch.  Sets that leave
    the carry unchanged are still repeated in closed form, as the search
    has always done."""
    strict = mode == "strict"
    nodes = 0
    exhausted = []

    def marks(last, lst):
        return tuple(last - i for i in range(lst.bit_length() - 1, -1, -1) if lst >> i & 1)

    def place(k, hi, last, lst, used, comp, carry):
        nonlocal nodes
        span = hi - last
        free = ~(comp >> 1) & ((1 << span) - 1)
        nodes += span
        while free:
            low = free & -free
            free ^= low
            s = low.bit_length()
            shifted = lst << s
            if hi < target:
                used_next = used | shifted
                hit = place(k, hi + 1, last + s, shifted | 1, used_next,
                            (comp >> s) | used_next, carry)
            elif k == num_sets - 1:
                hit = []
            else:
                carry_next = used | shifted if strict else carry
                hit = [] if carry_next == carry else place(
                    k + 1, target - set_size + 1, min_element - 1, 0, carry_next, 0, carry_next)
            if hit is not None:
                nodes -= span - s
                return [marks(last + s, shifted | 1), *hit] if hi == target else hit
        return None

    for target in range(min_element + set_size - 1, scope_budget + 1):
        before = nodes
        found = place(0, target - set_size + 1, min_element - 1, 0, 0, 0, 0)
        if found is not None:
            if len(found) < num_sets:
                nodes += (num_sets - 1) * (nodes - before)
                found *= num_sets
            dts = DifferenceTriangleSet(tuple(found))
            return SearchResult(dts, dts.scope, SearchCertificate(tuple(exhausted), nodes))
        exhausted.append(target)
    raise BudgetExhausted(
        f"no {mode} family of {num_sets} set(s) of size {set_size} with scope <= {scope_budget}"
    )


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------

def test_construction_normalizes_and_checks():
    t = DifferenceTriangleSet([[1, 2, 6], [1, 2, 4]])
    assert t.sets == ((1, 2, 6), (1, 2, 4))
    assert t.num_sets == 2 and t.set_size == 3 and t.scope == 6
    with pytest.raises(ValueError):
        DifferenceTriangleSet(((2, 1),))
    with pytest.raises(ValueError):
        DifferenceTriangleSet(((1, 1),))
    with pytest.raises(ValueError):
        DifferenceTriangleSet(((1, 2), (3,)))
    with pytest.raises(ValueError):
        DifferenceTriangleSet(((-1, 2),))
    with pytest.raises(ValueError):
        DifferenceTriangleSet(())
    for sets in (((1.9, 2.2, 6),), ((True, 2, 6),), (("3", 4),), ((1, 2.0),)):
        with pytest.raises(ValueError, match="non-integer"):
            DifferenceTriangleSet(sets)


def test_differences_witnesses():
    assert differences(DifferenceTriangleSet(((1, 2, 6),))) == {
        1: [(1, 2, 1)],
        4: [(1, 3, 2)],
        5: [(1, 3, 1)],
    }
    # difference 1 appears once in each set of T126_235
    assert differences(T126_235)[1] == [(1, 2, 1), (2, 2, 1)]
    assert differences(DifferenceTriangleSet(((0, 1),))) == {1: [(1, 2, 1)]}


def test_validate_modes_on_shared_difference():
    relaxed = validate(T126_124, "relaxed")
    assert relaxed.valid and relaxed.duplicates == ()
    strict = validate(T126_124, "strict")
    assert not strict.valid
    dup_values = [d.value for d in strict.duplicates]
    # the two sets share differences 1, 2 and 4: {1,4,5} vs {1,2,3} share 1 only
    assert dup_values == [1]
    assert set(strict.duplicates[0].witnesses) == {(1, 2, 1), (2, 2, 1)}


def test_validate_within_set_duplicate_fails_both_modes():
    t = DifferenceTriangleSet(((1, 2, 3),))  # differences 1, 1, 2
    for mode in ("relaxed", "strict"):
        rep = validate(t, mode)
        assert not rep.valid
        assert rep.duplicates[0].value == 1
        assert set(rep.duplicates[0].witnesses) == {(1, 2, 1), (1, 3, 2)}


def test_validate_singleton_and_zero():
    t = DifferenceTriangleSet(((0,),))
    assert validate(t, "relaxed").valid and validate(t, "strict").valid
    assert scope(t) == 0


def test_validate_bad_mode():
    with pytest.raises(ValueError):
        validate(T126_124, "lenient")


def test_strict_implies_relaxed_randomized():
    rng = random.Random(11)
    for _ in range(300):
        sets = tuple(
            tuple(sorted(rng.sample(range(0, 12), rng.choice([2, 3]))))
            for _ in range(rng.choice([1, 2, 3]))
        )
        size = len(sets[0])
        if any(len(s) != size for s in sets):
            continue
        t = DifferenceTriangleSet(sets)
        r, s = validate(t, "relaxed"), validate(t, "strict")
        if s.valid:
            assert r.valid
        assert r.valid == oracle_valid("relaxed", sets)
        assert s.valid == oracle_valid("strict", sets)


def test_shift_invariance_of_validity():
    rng = random.Random(3)
    for _ in range(100):
        base = tuple(tuple(sorted(rng.sample(range(1, 10), 3))) for _ in range(2))
        t = DifferenceTriangleSet(base)
        c = rng.randint(0, 5)
        shifted = DifferenceTriangleSet(tuple(tuple(a + c for a in s) for s in base))
        for mode in ("relaxed", "strict"):
            assert validate(t, mode).valid == validate(shifted, mode).valid
        assert shifted.scope == t.scope + c


def test_inline_round_trip():
    assert DifferenceTriangleSet.from_inline("1,2,6;1,2,4") == T126_124
    assert T126_235.inline() == "1,2,6;2,3,5"
    d = T126_124.to_json_dict("relaxed")
    assert d == {"sets": [[1, 2, 6], [1, 2, 4]], "mode": "relaxed"}
    assert DifferenceTriangleSet.from_json_dict(d) == T126_124
    for text in (";", "1,2,,6;1,2,4", "1,2,x", "1.5,2"):
        with pytest.raises(ValueError, match=f"^cannot parse DTS from '{re.escape(text)}'$"):
            DifferenceTriangleSet.from_inline(text)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_single_set_pairs():
    res = search_min_scope(1, 2, "relaxed", 1)
    assert res.dts.sets == ((1, 2),) and res.scope == 2
    assert res.certificate.exhausted_scopes == ()


def test_search_single_set_triple_frozen_oracle_value():
    res = search_min_scope(1, 3, "relaxed", 1)
    # oracle_min_scope(1, 3, relaxed, 1) == (4, ((1, 2, 4),)): scope 3 has only
    # {1,2,3} whose differences collide
    assert res.dts.sets == ((1, 2, 4),)
    assert res.scope == 4
    assert res.certificate.exhausted_scopes == (3,)


def test_search_two_sets_relaxed_frozen_oracle_value():
    res = search_min_scope(2, 3, "relaxed", 1)
    # relaxed mode allows both sets identical
    assert res.dts.sets == ((1, 2, 4), (1, 2, 4))
    assert res.scope == 4


def test_search_two_sets_strict_frozen_oracle_value():
    res = search_min_scope(2, 3, "strict", 1)
    assert res.dts.sets == ((1, 2, 5), (1, 3, 8))
    assert res.scope == 8
    assert res.certificate.exhausted_scopes == (3, 4, 5, 6, 7)
    assert validate(res.dts, "strict").valid


def test_search_min_element_zero():
    res = search_min_scope(1, 3, "relaxed", 0)
    assert res.dts.sets == ((0, 1, 3),)
    assert res.scope == 3


def test_search_finds_optimal_golomb_rulers():
    # one set starting at 0 is a Golomb ruler; known optimal lengths
    # (Atkinson, Santoro & Urrutia 1986)
    for k, length in zip(range(2, 10), (1, 3, 6, 11, 17, 25, 34, 44)):
        res = search_min_scope(1, k, "relaxed", 0, scope_budget=length)
        assert res.scope == length
        assert res.dts.sets[0][0] == 0
        assert validate(res.dts, "relaxed").valid
        assert res.certificate.exhausted_scopes == tuple(range(k - 1, length))
        if k == 7:
            assert res.certificate.nodes == 180_433
        if k == 8:
            assert res.dts.sets == ((0, 1, 4, 9, 15, 22, 32, 34),)
            assert res.certificate.nodes == 2_425_946
        if k == 9:
            assert res.dts.sets == ((0, 1, 5, 12, 25, 27, 35, 41, 44),)
            assert res.certificate.nodes == 28_921_918


def test_search_strict_families_past_the_plain_oracle():
    # witnesses and node counts recorded with the search before it reused
    # failed subtrees
    res = search_min_scope(3, 4, "strict")
    assert res.dts.sets == ((1, 2, 5, 16), (1, 3, 11, 20), (1, 6, 13, 19))
    assert res.certificate == SearchCertificate(tuple(range(4, 20)), 31_800_357)
    res = search_min_scope(2, 5, "strict")
    assert res.dts.sets == ((1, 2, 14, 21, 23), (1, 4, 9, 15, 19))
    assert res.certificate == SearchCertificate(tuple(range(5, 23)), 9_485_138)
    # the default budget bounds the 0.6 M candidates walked, not the
    # full walk's nodes
    res = search_min_scope(5, 3, "strict")
    assert res.dts.sets == ((1, 2, 7), (1, 3, 13), (1, 4, 15), (1, 5, 14), (1, 8, 16))
    assert res.certificate == SearchCertificate(tuple(range(3, 16)), 2_091_106_515)


# Every shape of up to 4 sets of size up to 5 except the strict families the
# oracle takes seconds to minutes on (2x5, 3x4, 3x5, 4x3, 4x4, 4x5).
ORACLE_SHAPES = [
    (num_sets, set_size, mode)
    for mode in ("relaxed", "strict")
    for num_sets in range(1, 5)
    for set_size in range(1, 6)
    if mode == "relaxed" or num_sets == 1 or num_sets + set_size <= 6
]


@pytest.mark.parametrize("num_sets,set_size,mode", ORACLE_SHAPES)
def test_search_matches_oracle_dfs(num_sets, set_size, mode):
    for min_element in (0, 1):
        expected = oracle_search_min_scope(num_sets, set_size, mode, min_element)
        assert search_min_scope(num_sets, set_size, mode, min_element) == expected
        budget = expected.scope - 1
        if budget < 0:  # no smaller scope to exhaust
            with pytest.raises(ValueError, match="^the scope budget must be nonnegative"):
                search_min_scope(num_sets, set_size, mode, min_element, budget)
            continue
        with pytest.raises(BudgetExhausted) as want:
            oracle_search_min_scope(num_sets, set_size, mode, min_element, budget)
        with pytest.raises(BudgetExhausted) as got:
            search_min_scope(num_sets, set_size, mode, min_element, budget)
        assert str(got.value) == str(want.value)


# Shapes where the memo of failed carries (strict families) or the scope
# shift (rulers, relaxed families) skips subtrees.
REUSE_SHAPES = (
    [(1, size, "relaxed") for size in range(1, 8)]
    + [(3, 3, "strict"), (2, 4, "strict"), (5, 2, "strict"), (6, 2, "strict")]
    + [(3, 4, "relaxed"), (3, 5, "relaxed")]
)


@pytest.mark.parametrize("num_sets,set_size,mode", REUSE_SHAPES)
def test_search_matches_bitvector_oracle_and_its_refusals(num_sets, set_size, mode):
    for min_element in (0, 1):
        expected = oracle_bitvector_search(num_sets, set_size, mode, min_element)
        meter = Meter(DEFAULT_BUDGET)
        assert search_min_scope(num_sets, set_size, mode, min_element, budget=meter) == expected
        # the meter is charged with the candidates walked, which the reused
        # subtrees keep at or below the full walk's nodes
        assert 0 < meter.used <= expected.certificate.nodes
        assert search_min_scope(num_sets, set_size, mode, min_element,
                                budget=meter.used) == expected
        refused = meter.used - 1
        with pytest.raises(HorizonTooLarge, match=rf"^\d+ steps exceed the budget of {refused}$"):
            search_min_scope(num_sets, set_size, mode, min_element, budget=refused)


# (num_sets, set_size, mode, min_element): (scope, certificate.nodes,
# Meter.used, the steps refused at a budget of Meter.used // 2), recorded
# before the three placement loops of the search were folded into one.
SEARCH_PINS = {
    (1, 1, "relaxed", 0): (0, 1, 1, 1),
    (1, 1, "relaxed", 1): (1, 1, 1, 1),
    (1, 2, "relaxed", 0): (1, 2, 2, 2),
    (1, 2, "relaxed", 1): (2, 2, 2, 2),
    (1, 3, "relaxed", 0): (3, 7, 7, 5),
    (1, 3, "relaxed", 1): (4, 7, 7, 5),
    (1, 4, "relaxed", 0): (6, 51, 38, 21),
    (1, 4, "relaxed", 1): (7, 51, 38, 21),
    (1, 5, "relaxed", 0): (11, 838, 417, 215),
    (1, 5, "relaxed", 1): (12, 838, 417, 215),
    (1, 6, "relaxed", 0): (17, 10_950, 4_194, 2_099),
    (1, 6, "relaxed", 1): (18, 10_950, 4_194, 2_099),
    (1, 7, "relaxed", 0): (25, 180_433, 55_594, 27_798),
    (1, 7, "relaxed", 1): (26, 180_433, 55_594, 27_798),
    (1, 8, "relaxed", 0): (34, 2_425_946, 633_767, 316_886),
    (1, 8, "relaxed", 1): (35, 2_425_946, 633_767, 316_886),
    (3, 4, "relaxed", 1): (7, 71, 46, 24),
    (600, 2, "relaxed", 1): (2, 1_200, 1_200, 1_200),
    (2, 2, "strict", 1): (3, 9, 12, 8),
    (3, 3, "strict", 1): (11, 134_185, 7_575, 3_795),
    (4, 3, "strict", 1): (13, 6_030_301, 45_649, 22_827),
    (5, 3, "strict", 1): (16, 2_091_106_515, 594_110, 297_063),
    (2, 4, "strict", 1): (14, 88_428, 28_406, 14_207),
    (3, 4, "strict", 1): (20, 31_800_357, 1_313_861, 656_931),
    (5, 1, "strict", 1): (1, 5, 5, 5),
}


@pytest.mark.parametrize("shape", SEARCH_PINS, ids=lambda shape: "-".join(map(str, shape)))
def test_search_pins_nodes_and_charges(shape):
    scope, nodes, used, half = SEARCH_PINS[shape]
    meter = Meter(DEFAULT_BUDGET)
    res = search_min_scope(*shape, scope_budget=35, budget=meter)
    assert (res.scope, res.certificate.nodes, meter.used) == (scope, nodes, used)
    for budget, steps in ((used - 1, used), (used // 2, half)):
        with pytest.raises(HorizonTooLarge, match=rf"^{steps} steps exceed the budget of {budget}$"):
            search_min_scope(*shape, scope_budget=35, budget=budget)


def test_search_repeats_a_set_that_leaves_the_carry_unchanged():
    # relaxed sizes 1..5: nodes of one set, and of each further set at the
    # hit scope (measured with the oracle DFS)
    for size, one, extra in zip(range(1, 6), (1, 2, 7, 51, 838), (1, 2, 4, 10, 34)):
        single = search_min_scope(1, size, "relaxed").dts.sets[0]
        for num_sets in (2, 3, 4, 7):
            res = search_min_scope(num_sets, size, "relaxed")
            assert res.dts.sets == (single,) * num_sets
            assert res.certificate.nodes == one + (num_sets - 1) * extra
    res = search_min_scope(5, 1, "strict", 0)
    assert res.dts.sets == ((0,),) * 5 and res.certificate.nodes == 5


def test_cli_search_long_families(capsys):
    assert main(["search", "--sets", "600", "--size", "2"]) == 0
    out = capsys.readouterr().out
    assert out == ("scope: 2\nsets: " + ";".join(["1,2"] * 600)
                   + "\nexhausted_scopes: \nnodes: 1200\n")
    assert main(["search", "--sets", "600", "--size", "1", "--mode", "strict"]) == 0
    out = capsys.readouterr().out
    assert out == ("scope: 1\nsets: " + ";".join(["1"] * 600)
                   + "\nexhausted_scopes: \nnodes: 600\n")


def test_search_matches_oracle_grid():
    for num_sets, set_size in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (1, 4)]:
        for mode in ("relaxed", "strict"):
            for min_element in (0, 1):
                expected = oracle_min_scope(num_sets, set_size, mode, min_element)
                got = search_min_scope(num_sets, set_size, mode, min_element)
                assert got.scope == expected[0], (num_sets, set_size, mode, min_element)
                assert got.dts.sets == expected[1], (num_sets, set_size, mode, min_element)
                assert validate(got.dts, mode).valid


def test_search_budget_exhausted():
    with pytest.raises(BudgetExhausted):
        search_min_scope(2, 3, "strict", 1, scope_budget=7)
    # scope budgets below the lowest scope exhaust nothing, but are no error
    for scope_budget in (0, 2):
        with pytest.raises(BudgetExhausted, match=f"with scope <= {scope_budget}$"):
            search_min_scope(1, 3, scope_budget=scope_budget)


def test_search_node_budget():
    # the 7-mark ruler walks 55 594 candidates for its 180 433 nodes
    with pytest.raises(HorizonTooLarge, match="^50003 steps exceed the budget of 50000$"):
        search_min_scope(1, 7, "relaxed", 0, budget=50_000)
    assert search_min_scope(1, 7, "relaxed", 0, budget=55_594).certificate.nodes == 180_433
    # the sets repeated in closed form cost one step per element
    assert search_min_scope(600, 2, budget=1200).certificate.nodes == 1200
    with pytest.raises(HorizonTooLarge, match="^1200 steps exceed the budget of 1199$"):
        search_min_scope(600, 2, budget=1199)
    # ... charged before the family is built
    with pytest.raises(HorizonTooLarge, match="^1000000000 steps exceed the budget of 100000000$"):
        search_min_scope(10**9, 1)
    # searches sharing a meter draw on one budget
    meter = Meter(55_594 + 7)
    search_min_scope(1, 7, "relaxed", 0, budget=meter)
    assert search_min_scope(1, 3, budget=meter).certificate.nodes == 7
    with pytest.raises(HorizonTooLarge, match="^55602 steps exceed the budget of 55601$"):
        search_min_scope(1, 2, budget=meter)


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        search_min_scope(1, 2, "relaxed", 2)
    with pytest.raises(ValueError):
        search_min_scope(0, 2)
    with pytest.raises(ValueError):
        search_min_scope(1, 2, "loose")
    with pytest.raises(ValueError, match="^the scope budget must be nonnegative, got -1$"):
        search_min_scope(1, 3, scope_budget=-1)
