"""Exact arithmetic in GF(p^N) with a canonical primitive element.

Elements are kept in log form: ``None`` is the field zero, and an integer
``e`` with ``0 <= e <= q-2`` stands for ``alpha**e`` where ``alpha`` is the
canonical primitive element.  Multiplication, inversion and powers of
``alpha`` are plain exponent arithmetic mod ``q-1``; addition is one lookup
in a Zech-logarithm table, ``alpha**a + alpha**b == alpha**(a + Z(b - a))``
with ``1 + alpha**k == alpha**Z(k)``, the same for every characteristic.

Everything is reproducible without shipping tables:

* the modulus is the lexicographically smallest monic irreducible
  polynomial of degree ``N`` over GF(p), coefficients compared low degree
  first;
* ``alpha`` is the residue class of ``x`` whenever that class is
  primitive, otherwise the first element in polynomial order (again low
  degree first) whose multiplicative order is exactly ``q - 1``.

The tables come from one walk over the powers of ``alpha``, the same for
every p and N.  A polynomial is packed into an int with one slot of
``(p-1).bit_length() + 1`` bits per coefficient, so adding two of them mod p
is a few int operations.  Multiplying by ``alpha`` is GF(p)-linear: two
tables of ``p**ceil(N/2)`` packed products, one per half of the
coefficients, give the next power as the sum of two lookups, and one table
of the same size turns each half back into its base-p value.  Each step of
the walk is O(1) int work, where a polynomial product would be O(N**2),
and the set-up tables are spanned from N basis products by packed
additions.

Field orders are capped at ``2**20``: the exponent, ``log`` and Zech tables
hold q entries each, so a build costs time and memory in proportion to q.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from .errors import FieldTooLarge, NonPrimeCharacteristic, UnsupportedSize

# Log-form field element: None is zero, an int e in 0..q-2 is alpha**e.
FieldElement = Optional[int]

ZERO: FieldElement = None
ONE: FieldElement = 0

MAX_FIELD_ORDER = 1 << 20


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _factor_prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p**e for a prime p, or None when q is no prime power."""
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
        p += 1 if p == 2 else 2
    return (q, 1)


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Product of two degree < N coefficient tuples, reduced mod the monic modulus."""
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            base = d - n
            for k in range(n):
                if modulus[k]:
                    prod[base + k] = (prod[base + k] - c * modulus[k]) % p
    return tuple(prod[:n])


def _poly_rem(f: list[int], g: tuple[int, ...], p: int) -> bool:
    """True when the monic polynomial g divides f (coefficients low degree first)."""
    r = list(f)
    dg = len(g) - 1
    for d in range(len(r) - 1, dg - 1, -1):
        c = r[d]
        if c:
            base = d - dg
            for k in range(dg + 1):
                r[base + k] = (r[base + k] - c * g[k]) % p
    return not any(r)


def _irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= N // 2."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if _poly_rem(list(f), lower + (1,), p):
                return False
    return True


def _canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    # x divides every candidate with a zero constant term, so past degree 1
    # the constant term starts at 1
    lowest = range(min(1, n - 1), p)
    for lower in itertools.product(lowest, *[range(p)] * (n - 1)):
        cand = lower + (1,)
        if _irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class GaloisField:
    """GF(p^degree) with log-form elements over the canonical modulus."""

    def __init__(self, p: int, degree: int):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        # the size goes first: a huge p is never factored, a huge power never formed
        if p > 1 and (degree >= MAX_FIELD_ORDER.bit_length() or p**degree > MAX_FIELD_ORDER):
            raise FieldTooLarge(f"q = {p}^{degree} exceeds {MAX_FIELD_ORDER}")
        if _prime_factors(p) != [p]:
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.degree = degree
        self.q = p**degree
        self.modulus = _canonical_modulus(p, degree)
        self._build_tables(self._find_alpha())

    # -- construction helpers ------------------------------------------------

    def _has_full_order(self, digits: tuple[int, ...]) -> bool:
        for r in _prime_factors(self.q - 1):
            acc = (1,) + (0,) * (self.degree - 1)
            base = digits
            e = (self.q - 1) // r
            while e:
                if e & 1:
                    acc = _poly_mul(acc, base, self.modulus, self.p)
                base = _poly_mul(base, base, self.modulus, self.p)
                e >>= 1
            if acc == (1,) + (0,) * (self.degree - 1):
                return False
        return True

    def _find_alpha(self) -> tuple[int, ...]:
        # the class of x (zero when the modulus is x itself), then polynomial order
        x = ((0, 1) + (0,) * self.degree)[: self.degree]
        in_order = itertools.product(range(self.p), repeat=self.degree)
        for digits in itertools.chain([x], in_order):
            if any(digits) and self._has_full_order(digits):
                return digits
        raise AssertionError("no primitive element found")  # pragma: no cover

    def _build_tables(self, alpha: tuple[int, ...]) -> None:
        p, n = self.p, self.degree
        # one b-bit slot per coefficient: a slot holds the sum of two digits,
        # at most 2p - 2 < 2**b, and adding 2**top - p to it sets its top bit
        # exactly when the sum reached p, so one shifted mask reduces all slots
        b = (p - 1).bit_length() + 1
        top = b - 1
        ones = sum(1 << (k * b) for k in range(n))
        top_bits, adj = ones << top, ones * ((1 << top) - p)

        def span(basis: list[int]) -> list[int]:
            # packed sum(d[k] * basis[k]) for every digit string d, listed in
            # the order of its base-p value: the entry for value v + p**k
            # is the entry for v plus basis[k]
            out = [0]
            for step in basis:
                for i in range((p - 1) * len(out)):
                    s = out[i] + step
                    out.append(s - (((s + adj) & top_bits) >> top) * p)
            return out

        # alpha * (low + x**half * high) = alpha * low + alpha * x**half * high:
        # one table per half of the digits, spanned by the products
        # x**k * alpha, which are the only polynomial products of the walk.
        # Two halves keep these tables at p**ceil(N/2) entries, not q.
        half = (n + 1) // 2
        size, shift = p**half, half * b
        mask = (1 << shift) - 1
        products = []
        for k in range(n):
            digits = _poly_mul(tuple(int(i == k) for i in range(n)), alpha, self.modulus, p)
            products.append(sum(d << (i * b) for i, d in enumerate(digits)))
        times_low, times_high = span(products[:half]), span(products[half:])
        # the packed slots of one half -> their base-p value
        unpack = dict(zip(span([1 << (k * b) for k in range(half)]), range(size)))
        exp = []
        log: list[Optional[int]] = [None] * self.q
        low, high = 1, 0
        for e in range(self.q - 1):
            enc = low + high * size
            log[enc] = e
            exp.append(enc)
            s = times_low[low] + times_high[high]
            s -= (((s + adj) & top_bits) >> top) * p
            low, high = unpack[s & mask], unpack[s >> shift]
        # a power met twice leaves more than the zero encoding without a log
        if log.count(None) != 1:
            raise AssertionError("alpha is not primitive")  # pragma: no cover
        # base-p encoding of alpha**e; adding 1 only touches digit 0
        self._exp = exp
        # Zech logarithm: 1 + alpha**k == alpha**_zech[k], None when it is zero
        self._zech = [log[enc - enc % p + (enc + 1) % p] for enc in exp]
        # exponent shift implementing negation: -1 == alpha**_neg_shift
        self._neg_shift = log[p - 1]

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        # alpha**a + alpha**b == alpha**a * (1 + alpha**(b - a)); for exponents
        # in 0..q-2 a negative index b - a already wraps to (b - a) mod (q - 1)
        if a is None:
            return b
        if b is None:
            return a
        z = self._zech[b - a]
        return None if z is None else (a + z) % (self.q - 1)

    def neg(self, a: FieldElement) -> FieldElement:
        if a is None:
            return None
        return (a + self._neg_shift) % (self.q - 1)

    def sub(self, a: FieldElement, b: FieldElement) -> FieldElement:
        return self.add(a, self.neg(b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        if a is None or b is None:
            return None
        return (a + b) % (self.q - 1)

    def inv(self, a: FieldElement) -> FieldElement:
        if a is None:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return (-a) % (self.q - 1)

    def alpha_pow(self, k: int) -> FieldElement:
        return k % (self.q - 1)

    def elements(self) -> Iterator[FieldElement]:
        yield None
        yield from range(self.q - 1)

    def element_poly(self, a: FieldElement) -> tuple[int, ...]:
        """Coefficient tuple (low degree first) of the polynomial representative."""
        enc = 0 if a is None else self._exp[a]
        digits = []
        for _ in range(self.degree):
            enc, d = divmod(enc, self.p)
            digits.append(d)
        return tuple(digits)

    # -- identity and serialization -------------------------------------------

    def descriptor(self) -> dict:
        return {"p": self.p, "N": self.degree, "modulus": list(self.modulus)}

    @classmethod
    def from_descriptor(cls, d: dict) -> "GaloisField":
        if not isinstance(d, dict) or not all(type(d.get(k)) is int for k in ("p", "N")):
            raise ValueError('field descriptor must be an object with integer "p" and "N"')
        field = cls(d["p"], d["N"])
        if "modulus" in d and d["modulus"] != list(field.modulus):
            raise ValueError(
                f"modulus {d['modulus']} is not the canonical modulus for GF({field.q})"
            )
        return field

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisField) and (self.p, self.degree) == (other.p, other.degree)

    def __hash__(self) -> int:
        return hash((self.p, self.degree))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.degree == 1 else f"GF({self.p}^{self.degree})"


def make_field(p: int, degree: int) -> GaloisField:
    return GaloisField(p, degree)


def det(field: GaloisField, grid: list[list[FieldElement]]) -> FieldElement:
    """Determinant of a small square grid of field elements (sides 1 to 3)."""
    size = len(grid)
    if any(len(row) != size for row in grid):
        raise ValueError("grid is not square")
    if size == 1:
        return grid[0][0]
    if size == 2:
        (a, b), (c, d) = grid
        return field.sub(field.mul(a, d), field.mul(b, c))
    if size == 3:
        (a, b, c), (d, e, f), (g, h, i) = grid
        m1 = field.mul(a, field.sub(field.mul(e, i), field.mul(f, h)))
        m2 = field.mul(b, field.sub(field.mul(d, i), field.mul(f, g)))
        m3 = field.mul(c, field.sub(field.mul(d, h), field.mul(e, g)))
        return field.add(field.sub(m1, m2), m3)
    raise UnsupportedSize(f"determinants implemented for sides 1..3, got {size}")
