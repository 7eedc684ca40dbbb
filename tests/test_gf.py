"""Field arithmetic tests, including independent-oracle cross-checks."""

import hashlib
import itertools
import math
import random

import pytest

from dts_ldpc.errors import FieldTooLarge, NonPrimeCharacteristic, UnsupportedSize
from dts_ldpc.gf import (
    ONE,
    ZERO,
    GaloisField,
    _factor_prime_power,
    _is_prime,
    _prime_factors,
    det,
    make_field,
)


# ---------------------------------------------------------------------------
# independent oracle: tiny polynomial arithmetic written from scratch, used
# only to cross-check the production tables
# ---------------------------------------------------------------------------

def oracle_poly_mul(a, b, modulus, p):
    n = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    while len(prod) > n:
        c = prod.pop()
        if c:
            for k in range(n):
                prod[len(prod) - n + k] = (prod[len(prod) - n + k] - c * modulus[k]) % p
    prod += [0] * (n - len(prod))
    return tuple(prod)


def oracle_powers(f):
    """alpha**0 .. alpha**(q-2) of f as coefficient tuples, by oracle_poly_mul."""
    alpha = f.element_poly(f.alpha_pow(1))
    table = [(1,) + (0,) * (f.degree - 1)]
    for _ in range(f.q - 2):
        table.append(oracle_poly_mul(table[-1], alpha, f.modulus, f.p))
    return table


def test_miller_rabin_is_exact_below_its_bound():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(2, 20000) if _prime_factors(n) == [n]]
    # strong pseudoprimes to every prime base up to 37 (only base 41
    # catches the second); Mersenne and near-power primes
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2**61 - 1) and _is_prime(2**80 - 65)
    # the bound is a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError, match="decided exactly only below 3317044064679887385961981"):
        _is_prime(3317044064679887385961981)


def test_factor_prime_power_matches_the_listed_powers():
    # every prime power below 2**14, listed as the powers of each prime;
    # 0 and 1 are no prime power
    limit = 1 << 14
    powers = {}
    for p in range(2, limit):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            q, e = p, 1
            while q < limit:
                powers[q] = (p, e)
                q, e = q * p, e + 1
    assert [_factor_prime_power(q) for q in range(limit)] == [powers.get(q) for q in range(limit)]


def test_gf9_canonical_data_matches_frozen_values():
    f = GaloisField(3, 2)
    assert f.modulus == (1, 0, 1)
    assert f.element_poly(ONE) == (1, 0)
    assert f.element_poly(f.alpha_pow(1)) == (1, 1)


@pytest.mark.parametrize(
    "p,n",
    # characteristic 2 and odd, prime and extension fields; alpha != x in GF(9), GF(25), GF(49)
    [(2, 1), (7, 1), (2, 2), (2, 3), (2, 5), (3, 2), (5, 2), (3, 3), (7, 2)],
)
def test_addition_against_exhaustive_oracle(p, n):
    f = GaloisField(p, n)
    table = oracle_powers(f)
    assert [f.element_poly(e) for e in range(f.q - 1)] == table
    log = {poly: e for e, poly in enumerate(table)}
    assert len(log) == f.q - 1
    zero = (0,) * n

    def to_poly(a):
        return zero if a is None else table[a]

    def from_poly(poly):
        return None if poly == zero else log[poly]

    for a in f.elements():
        for b in f.elements():
            da, db = to_poly(a), to_poly(b)
            assert f.add(a, b) == from_poly(tuple((x + y) % p for x, y in zip(da, db)))
            assert f.sub(a, b) == from_poly(tuple((x - y) % p for x, y in zip(da, db)))


@pytest.mark.parametrize(
    "p,n",
    # halves of 4 and 3 digits, of 3 and 2, of 2 and 1; one slot of 15 bits;
    # alpha is 2x**2 in GF(5^3) and 1 + 5x in GF(113^2)
    [(2, 7), (3, 5), (5, 3), (113, 2), (12289, 1), (16381, 1)],
)
def test_powers_of_alpha_match_oracle_walk(p, n):
    f = GaloisField(p, n)
    assert [f.element_poly(e) for e in range(f.q - 1)] == oracle_powers(f)


@pytest.mark.parametrize(
    "p,n,digest",
    # SHA-256 of repr([f.element_poly(e) for e in range(q - 1)]), recorded
    # with the per-element polynomial-product walk this build replaced
    [
        (2, 16, "8a263c592c28fb2bdf99e604b1e459c89fbd8dd07737f3429a30453b38776d47"),
        (3, 10, "ee34979636cecd0fd6838f3edd4baa9839e531c76fa2da4118fcdd269fc71d1c"),
        (7, 6, "0ec81f2f892c8908b0f7130f442869e3683f7b123645e9bcf7d6d9584cac11a6"),
    ],
)
def test_big_field_powers_of_alpha_are_pinned(p, n, digest, capsys):
    f = GaloisField(p, n)
    polys = [f.element_poly(e) for e in range(f.q - 1)]
    assert hashlib.sha256(repr(polys).encode()).hexdigest() == digest
    # oracle_powers is too slow here; the pinned walk serves as the oracle
    assert_lazy_zech_matches(polys, f, capsys)


def assert_lazy_zech_matches(polys, fresh, capsys):
    """Zech logarithms of a fresh field, and of the shared field after a
    command used it, against the table ``polys`` of a walk of its powers."""
    from dts_ldpc.cli import main

    p, n = fresh.p, fresh.degree
    log = {poly: e for e, poly in enumerate(polys)}
    # 1 + alpha**k, read off the walk: adding 1 only touches the constant term
    zech = [log.get(((poly[0] + 1) % p,) + poly[1:]) for poly in polys]
    assert not fresh._zech
    assert [fresh.add(0, k) for k in range(fresh.q - 1)] == zech
    # the shared field keeps the entries the command computed: the 3x3
    # minors of this family with three or more transversals reach gf.det
    # (exit 1 when a minor or cycle fails)
    field_arg = f"{p}^{n}" if n > 1 else str(p)
    assert main(["verify", "--dts", "1,2,5,7;1,3,7,8", "--n", "3", "--field", field_arg]) in (0, 1)
    capsys.readouterr()
    used = make_field(p, n)
    assert used is make_field(p, n) and used is not fresh and used._zech
    assert [used.add(0, k) for k in range(used.q - 1)] == zech
    # alpha**k + 1 looks up the negative raw index -k
    assert [used.add(k, 0) for k in range(used.q - 1)] == zech


@pytest.mark.parametrize(
    "p,n", [(2, 1), (3, 1), (2, 8), (3, 6), (7, 3), (5, 3), (113, 2), (12289, 1)],
)
def test_lazy_zech_table_matches_oracle_walk(p, n, capsys):
    f = GaloisField(p, n)
    assert_lazy_zech_matches(oracle_powers(f), f, capsys)


def test_field_state_is_o_sqrt_q():
    # no container the field keeps holds more than 4 * ceil(sqrt(q)) entries
    # once its first arithmetic built the tables, those its multiply
    # closures hold included, and no Zech logarithm is computed yet
    f = GaloisField(2, 20)
    f.element_poly(1)
    held = list(vars(f).values())
    held += [cell.cell_contents for v in vars(f).values() for cell in getattr(v, "__closure__", None) or ()]
    sizes = [len(v) for v in held if isinstance(v, (list, dict, bytes, tuple, set))]
    assert sizes and max(sizes) <= 4 * (math.isqrt(f.q - 1) + 1)
    assert not f._zech


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10), (7, 6), (12289, 1)])
def test_commands_build_only_what_they_read(p, n, capsys, monkeypatch):
    # verify --minors 2 and distance of code A decide every test from
    # exponents: the shared field builds no modulus, alpha or table and
    # computes no Zech logarithm.  construct --out json reads the modulus
    # for its field descriptor, and still builds no table
    from dts_ldpc import gf
    from dts_ldpc.cli import main
    from dts_ldpc.errors import Memo

    monkeypatch.setattr(gf, "_FIELDS", Memo(lambda key: GaloisField(*key)))
    spec = ["--dts", "1,2,6;1,2,4", "--n", "3", "--field", f"{p}^{n}" if n > 1 else str(p)]
    # characteristic 2 cancels A's chordless 6-cycles: an FRC failure
    assert main(["verify", *spec, "--minors", "2", "--json"]) == (1 if p == 2 else 0)
    assert main(["distance", *spec]) == 0
    field = make_field(p, n)
    constructed = {"p", "degree", "q", "_neg_shift", "_zech"}
    assert set(vars(field)) == constructed and not field._zech
    assert main(["construct", *spec, "--j", "20", "--out", "json"]) == 0
    capsys.readouterr()
    assert make_field(p, n) is field and set(vars(field)) == constructed | {"modulus"}


def test_gf9_alpha_has_order_eight():
    f = GaloisField(3, 2)
    acc = ONE
    seen = set()
    for k in range(1, 8):
        acc = f.mul(acc, f.alpha_pow(1))
        seen.add(acc)
        assert acc != ONE
    assert f.mul(acc, f.alpha_pow(1)) == ONE
    assert len(seen) == 7


def test_gf32_alpha_walk_covers_all_nonzero():
    f = GaloisField(2, 5)
    acc = ONE
    seen = {acc}
    for _ in range(30):
        acc = f.mul(acc, f.alpha_pow(1))
        seen.add(acc)
    assert len(seen) == 31
    assert f.mul(acc, f.alpha_pow(1)) == ONE


@pytest.mark.parametrize(
    "p,n,modulus",
    [
        (2, 1, (0, 1)),
        (2, 2, (1, 1, 1)),
        (2, 3, (1, 0, 1, 1)),
        (3, 2, (1, 0, 1)),
        (2, 5, (1, 0, 0, 1, 0, 1)),
        (7, 1, (0, 1)),
        (2, 16, (1,) + (0,) * 10 + (1, 0, 1, 0, 1, 1)),
        (3, 10, (1,) + (0,) * 7 + (2, 0, 1)),
        (7, 6, (1, 0, 0, 0, 1, 0, 1)),
    ],
)
def test_canonical_modulus(p, n, modulus):
    assert GaloisField(p, n).modulus == modulus


@pytest.mark.parametrize(
    "p,n,alpha",
    # x is not primitive in these fields: x**14 + x**15, x**6 + 2x**8 + x**9,
    # x**4 + x**5, and 1 + 9x after every multiple c*x of x, tested through x
    [
        (2, 16, (0,) * 14 + (1, 1)),
        (3, 10, (0,) * 6 + (1, 0, 2, 1)),
        (7, 6, (0, 0, 0, 0, 1, 1)),
        (1021, 2, (1, 9)),
    ],
)
def test_canonical_alpha_for_big_fields(p, n, alpha):
    f = GaloisField(p, n)
    assert f.element_poly(f.alpha_pow(1)) == alpha


def test_canonical_alpha_for_prime_fields():
    # first element in polynomial order with full multiplicative order
    assert GaloisField(2, 1).element_poly(ONE) == (1,)
    assert GaloisField(3, 1).element_poly(GaloisField(3, 1).alpha_pow(1)) == (2,)
    assert GaloisField(7, 1).element_poly(GaloisField(7, 1).alpha_pow(1)) == (3,)


def _smallest_primitive_root(p):
    """Walk the powers of each candidate until they return to 1."""
    for g in range(1, p):
        order, x = 1, g
        while x != 1:
            x, order = x * g % p, order + 1
        if order == p - 1:
            return g


@pytest.mark.parametrize("p", [2, 3, 7, 23, 41, 191, 257, 16381, 65521, 1048573])
def test_prime_field_alpha_is_the_smallest_primitive_root(p):
    f = GaloisField(p, 1)
    assert f.modulus == (0, 1)
    assert f.element_poly(f.alpha_pow(1)) == (_smallest_primitive_root(p),)


def test_gf2_degenerate_exponents():
    f = GaloisField(2, 1)
    assert f.q == 2
    assert f.alpha_pow(17) == ONE
    assert f.mul(ONE, ONE) == ONE
    assert f.add(ONE, ONE) is ZERO


def test_exponent_arithmetic_examples():
    f32 = GaloisField(2, 5)
    assert f32.mul(30, 5) == 4
    assert f32.mul(3, ZERO) is ZERO
    f9 = GaloisField(3, 2)
    assert f9.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f9.inv(ZERO)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_field_axioms_exhaustive(p, n):
    f = GaloisField(p, n)
    els = list(f.elements())
    for a in els:
        assert f.add(a, ZERO) == a
        assert f.mul(a, ONE) == a
        assert f.add(a, f.neg(a)) is ZERO
        if a is not None:
            assert f.mul(a, f.inv(a)) == ONE
    for a, b, c in itertools.product(els, repeat=3):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_axioms_sampled_gf32():
    f = GaloisField(2, 5)
    rng = random.Random(7)
    els = list(f.elements())
    for _ in range(2000):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a)


def test_alpha_pow_periodicity():
    f = GaloisField(2, 5)
    for k in range(-40, 80):
        assert f.alpha_pow(k) == k % 31


def test_construction_guards():
    for p in (0, 1, 4, 6, 9):
        with pytest.raises(NonPrimeCharacteristic):
            GaloisField(p, 1)
    for p, degree in ((2, 21), (10**18 + 3, 1), (2, 10**12)):
        with pytest.raises(FieldTooLarge):
            GaloisField(p, degree)
    with pytest.raises(ValueError):
        GaloisField(2, 0)


def test_descriptor_round_trip():
    f = GaloisField(2, 5)
    d = f.descriptor()
    assert d == {"p": 2, "N": 5, "modulus": [1, 0, 0, 1, 0, 1]}
    assert GaloisField.from_descriptor(d) == f
    with pytest.raises(ValueError):
        GaloisField.from_descriptor({"p": 2, "N": 5, "modulus": [1, 0, 1, 0, 0, 1]})


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_det_identity_and_proportional_rows():
    f = GaloisField(2, 5)
    assert det(f, [[ONE, ZERO], [ZERO, ONE]]) == ONE
    # rank-1 matrix: second row is alpha times the first
    assert det(f, [[1, 2], [2, 3]]) is ZERO
    # Vandermonde-type rows (alpha, alpha^2), (alpha^2, alpha^4) are independent
    assert det(f, [[1, 2], [2, 4]]) is not ZERO


def test_det_closed_form_for_shifted_columns():
    """det [[a^(ij), a^(lk)], [a^((i+r)j), a^((l+r)k)]] = a^(ij+lk) (a^(rk) - a^(rj))."""
    f = GaloisField(2, 5)
    rng = random.Random(1)
    for _ in range(100):
        i, l, r = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 12)
        j, k = rng.sample(range(0, 6), 2)
        grid = [
            [f.alpha_pow(i * j), f.alpha_pow(l * k)],
            [f.alpha_pow((i + r) * j), f.alpha_pow((l + r) * k)],
        ]
        closed = f.mul(
            f.alpha_pow(i * j + l * k),
            f.sub(f.alpha_pow(r * k), f.alpha_pow(r * j)),
        )
        assert det(f, grid) == closed


def sarrus(f, g):
    """Independent 3x3 determinant via the diagonal rule."""
    pos = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    neg = [(2, 1, 0), (0, 2, 1), (1, 0, 2)]
    acc = ZERO
    for c0, c1, c2 in pos:
        acc = f.add(acc, f.mul(f.mul(g[0][c0], g[1][c1]), g[2][c2]))
    for c0, c1, c2 in neg:
        acc = f.sub(acc, f.mul(f.mul(g[0][c0], g[1][c1]), g[2][c2]))
    return acc


@pytest.mark.parametrize("p,n", [(3, 2), (2, 5), (7, 1)])
def test_det3_matches_sarrus_oracle(p, n):
    f = GaloisField(p, n)
    rng = random.Random(13)
    els = list(f.elements())
    for _ in range(200):
        g = [[rng.choice(els) for _ in range(3)] for _ in range(3)]
        assert det(f, g) == sarrus(f, g)


def test_det_equal_columns_is_zero():
    f = GaloisField(3, 2)
    rng = random.Random(5)
    els = list(f.elements())
    for _ in range(100):
        col_a = [rng.choice(els) for _ in range(3)]
        col_b = [rng.choice(els) for _ in range(3)]
        g = [[col_a[r], col_b[r], col_a[r]] for r in range(3)]
        assert det(f, g) is ZERO


def test_det_unsupported_size():
    f = GaloisField(2, 2)
    with pytest.raises(UnsupportedSize):
        det(f, [[ONE] * 4 for _ in range(4)])


def test_det_of_side_1_and_of_a_grid_that_is_not_square():
    f = GaloisField(2, 2)
    assert det(f, [[2]]) == 2 and det(f, [[ZERO]]) is ZERO
    with pytest.raises(ValueError, match="^grid is not square$"):
        det(f, [[ONE, ONE], [ONE]])


def test_element_poly_of_zero_is_the_zero_tuple():
    assert GaloisField(2, 5).element_poly(ZERO) == (0, 0, 0, 0, 0)
    assert GaloisField(7, 1).element_poly(ZERO) == (0,)


def test_make_field_alias():
    assert make_field(2, 5) == GaloisField(2, 5)
    assert make_field(2, 5) is make_field(2, 5)
    fresh = GaloisField(2, 5)  # equal to the shared field, so it hashes alike and finds its entry
    assert fresh is not make_field(2, 5) and hash(fresh) == hash(make_field(2, 5))
    assert {make_field(2, 5): "shared"}[fresh] == "shared"
    assert GaloisField.from_descriptor(make_field(3, 2).descriptor()) is make_field(3, 2)
