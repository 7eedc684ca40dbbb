"""Field arithmetic tests, including independent-oracle cross-checks."""

import itertools
import random

import pytest

from dts_ldpc.errors import FieldTooLarge, NonPrimeCharacteristic, UnsupportedSize
from dts_ldpc.gf import ONE, ZERO, GaloisField, det, make_field


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
    alpha = f.element_poly(f.alpha_pow(1))
    table = [(1,) + (0,) * (n - 1)]
    for _ in range(f.q - 2):
        table.append(oracle_poly_mul(table[-1], alpha, f.modulus, p))
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
    ],
)
def test_canonical_modulus(p, n, modulus):
    assert GaloisField(p, n).modulus == modulus


def test_canonical_alpha_for_prime_fields():
    # first element in polynomial order with full multiplicative order
    assert GaloisField(2, 1).element_poly(ONE) == (1,)
    assert GaloisField(3, 1).element_poly(GaloisField(3, 1).alpha_pow(1)) == (2,)
    assert GaloisField(7, 1).element_poly(GaloisField(7, 1).alpha_pow(1)) == (3,)


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
    with pytest.raises(NonPrimeCharacteristic):
        GaloisField(6, 1)
    with pytest.raises(FieldTooLarge):
        GaloisField(2, 21)
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


def test_make_field_alias():
    assert make_field(2, 5) == GaloisField(2, 5)
