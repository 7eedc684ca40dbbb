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

A field is built only as far as it is read, in three tiers.  The
constructor refuses an order past the cap or a non-prime p and keeps p,
N, q, the shift ``s`` with ``alpha**s == -1`` and an empty Zech memo:
products, inverses, negation and powers of alpha are exponent
arithmetic, and the two-term minor and cycle tests and the one-column
span tests of ``analysis`` read only q and s.  The modulus is searched on its first read
(``descriptor``, ``from_descriptor``).  The first ``element_poly``,
logarithm or Zech lookup searches the modulus if it is not yet known,
sets up the packing, finds alpha and builds the tables below: that first
arithmetic costs about 7 ms over GF(2^16) and 19 ms over GF(2^20), most
of it the modulus search, and under 1 ms over a prime field such as
GF(12289).  So ``verify --minors 2``, and ``verify`` and ``distance`` of
a code whose every test is decided from exponents, build no table, and
``construct --out json`` builds the modulus alone.

The tables are O(sqrt(q)) state, with no table of q entries.  With
``m = ceil(sqrt(q - 1))`` they are the baby steps ``alpha**j`` and the
giant powers ``alpha**(m*i)`` for ``i, j < m``, so ``alpha**e`` for
``e = m*i + j`` is one polynomial product of two of them
(``element_poly``).  A polynomial is packed into an int with one slot of
bits per coefficient, wide enough that one int product of two packed
polynomials holds every coefficient of their product; wrapping the top
N - 1 coefficients around with the packed ``x**d`` mod the modulus, and
reducing each slot mod p, gives the packed result.

Multiplying by a fixed element is GF(p)-linear: over an extension field,
two tables of ``p**ceil(N/2)`` packed products (at most
``sqrt(p*q)`` entries), one per half of the coefficients and keyed by the
packed half, give the product as the sum of two lookups and one reduction
of all slots at once; over a prime field it is one int product mod p.
The baby steps come from the multiply-by-``alpha`` tables, which are then
dropped, and the giant powers from the multiply-by-``alpha**m`` tables,
which are kept for logarithms: the discrete log of a packed element is
found by baby-step giant-step (Shanks) in at most m giant steps.

Zech logarithms are computed on demand: the first ``add`` that needs
``Z(k)`` computes ``log(1 + alpha**k)`` and stores the whole orbit of k
under negation, the Frobenius map and the swap ``Z(Z(k) + s) == k + s``
(see ``_ZechMemo``); commands read only a handful of entries.
``make_field`` builds each field once per process and shares it, memo
included.

Field orders are capped at ``2**20``, which bounds the factoring, the
irreducibility search and the orders of the arithmetic tables.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Iterator, Optional

from .errors import FieldTooLarge, Memo, NonPrimeCharacteristic, UnsupportedSize

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


# Miller-Rabin with the primes up to 41 as bases decides every n below
# this exactly, and this n is a strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 2017)
_PRIME_TEST_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin over ``_PRIME_BASES``; exact for
    every n below ``_PRIME_TEST_BOUND``, and a larger n is refused."""
    if n >= _PRIME_TEST_BOUND:
        raise ValueError(f"primality of a {n.bit_length()}-bit number is decided "
                         f"exactly only below {_PRIME_TEST_BOUND}")
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor_prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p**e for a prime p, or None when q is no prime power."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        return None
    # q is an exact power of p, so the float logarithm is off by far less than 1/2
    return factors[0], round(math.log(q, factors[0]))


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


def _in_order(lowest: range, p: int, n: int) -> Iterator[tuple[int, ...]]:
    """The n-tuples of digits below p, the first one in ``lowest``, in
    lexicographic order; the first digit is walked lazily, as
    ``itertools.product`` would first copy its range, all of GF(p) when
    n = 1."""
    for c in lowest:
        for rest in itertools.product(range(p), repeat=n - 1):
            yield (c, *rest)


def _canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    # x divides every candidate with a zero constant term, so past degree 1
    # the constant term starts at 1
    for lower in _in_order(range(min(1, n - 1), p), p, n):
        cand = lower + (1,)
        if _irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


class _ZechMemo(dict):
    """Zech logarithms of one field, each computed the first time it is read.

    Keys are the raw indices ``b - a`` that ``GaloisField.add`` looks up, in
    ``-(q-2) .. q-2``; a negative index holds the entry of ``k + q - 1``.
    One discrete logarithm ``z = Z(k)`` gives the whole orbit of k, up to
    6N entries, under three maps that hold in every field:

    * negation, ``Z(-k) == Z(k) - k``: ``1 + alpha**-k == alpha**-k * (1 + alpha**k)``;
    * Frobenius, ``Z(p*k) == p*Z(k)``: ``(1 + alpha**k)**p == 1 + alpha**(p*k)``;
    * the swap ``Z(z + s) == k + s`` with ``alpha**s == -1``:
      ``1 - alpha**z == 1 - (1 + alpha**k) == -alpha**k``.
    """

    def __init__(self, field: "GaloisField"):
        super().__init__()
        self._field = field

    def __missing__(self, k: int) -> FieldElement:
        f = self._field
        p, qm1, s = f.p, f.q - 1, f._neg_shift
        if k < 0:
            self[k] = self[k + qm1]
            return self[k]
        z = f._zech_log(k)
        if z is None:  # alpha**k == -1: k == s, an orbit of its own
            self[k] = None
            return None
        # the six images of (k, z) under negation and the swap, then their
        # Frobenius images
        orbit = [(k, z), (-k, z - k), (z + s, k + s), (-z - s, k - z),
                 (z - k + s, s - k), (k - z - s, -z)]
        for _ in range(f.degree):
            for a, b in orbit:
                self[a % qm1] = b % qm1
            orbit = [(a * p, b * p) for a, b in orbit]
        return z


class GaloisField:
    """GF(p^degree) with log-form elements over the canonical modulus."""

    def __init__(self, p: int, degree: int):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        # the size goes first: a huge p is never tested, a huge power never formed
        if p > 1 and (degree >= MAX_FIELD_ORDER.bit_length() or p**degree > MAX_FIELD_ORDER):
            raise FieldTooLarge(f"q = {p}^{degree} exceeds {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise NonPrimeCharacteristic(f"{p} is not prime")
        self.p = p
        self.degree = degree
        self.q = p**degree
        # exponent shift implementing negation: -1 == alpha**_neg_shift
        self._neg_shift = (self.q - 1) // 2 if p > 2 else 0
        # Zech logarithms, computed on first use: 1 + alpha**k == alpha**_zech[k]
        self._zech = _ZechMemo(self)

    @cached_property
    def modulus(self) -> tuple[int, ...]:
        """The canonical modulus, searched on its first read."""
        return _canonical_modulus(self.p, self.degree)

    # -- tables, built on the first element_poly or logarithm ----------------

    def _set_up_packing(self) -> None:
        p, n = self.p, self.degree
        # one w-bit slot per coefficient, wide enough for a coefficient of a
        # raw product of two reduced polynomials plus the wrapped-around
        # terms, at most (2n - 1)(p - 1)**2 < 2**w.  A slot holding the sum
        # of two digits, at most 2p - 2, reaches 2**top after adding
        # 2**top - p exactly when the sum reached p, so one shifted mask
        # reduces all slots of a packed sum
        w = (2 * n * (p - 1) ** 2).bit_length()
        top = w - 1
        self._shifts = range(0, n * w, w)
        self._slot_mask = (1 << w) - 1
        self._low_mask = (1 << (n * w)) - 1
        ones = sum(1 << s for s in self._shifts)
        self._top, self._top_bits, self._adj = top, ones << top, ones * ((1 << top) - p)
        # x**d mod the modulus for d = n .. 2n-2, as (slot shift of x**d, packed)
        x_n = [-c % p for c in self.modulus[:n]]
        self._wrap = []
        power = x_n
        for d in range(n, 2 * n - 1):
            self._wrap.append((d * w, self._pack(power)))
            power = [(lo + power[-1] * c) % p for lo, c in zip([0] + power[:-1], x_n)]

    def _pack(self, digits) -> int:
        return sum(d << s for d, s in zip(digits, self._shifts))

    def _digits(self, packed: int) -> tuple[int, ...]:
        mask, p = self._slot_mask, self.p
        return tuple([((packed >> s) & mask) % p for s in self._shifts])

    def _product(self, a: int, b: int) -> int:
        """a * b mod the modulus, packed, with slots not yet reduced mod p."""
        prod = a * b
        out = prod & self._low_mask
        mask, p = self._slot_mask, self.p
        for shift, wrapped in self._wrap:
            c = (prod >> shift) & mask
            if c:
                out += c % p * wrapped
        return out

    def _mul_packed(self, a: int, b: int) -> int:
        return self._pack(self._digits(self._product(a, b)))

    def _pow_packed(self, base: int, e: int) -> int:
        if self.degree == 1:
            return pow(base, e, self.p)
        acc = 1
        while e:
            if e & 1:
                acc = self._mul_packed(acc, base)
            base = self._mul_packed(base, base)
            e >>= 1
        return acc

    def _find_alpha(self) -> int:
        # the class of x (zero when the modulus is x itself), then polynomial
        # order.  With c the lowest nonzero digit, (c * g0)**e = 1 exactly
        # when g0**e is the constant c**-e, so g0's powers serve its multiples
        p, x = self.p, ((0, 1) + (0,) * self.degree)[: self.degree]
        exponents = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
        powers = Memo(lambda key: self._pow_packed(*key))  # (g0, e) -> g0**e, packed
        for digits in itertools.chain([x], _in_order(range(p), p, self.degree)):
            inv = pow(next((d for d in digits if d), 1), -1, p)
            g0 = self._pack([d * inv % p for d in digits])
            if g0 and all(powers[g0, e] != pow(inv, e, p) for e in exponents):
                return self._pack(digits)
        raise AssertionError("no primitive element found")  # pragma: no cover

    def _multiplier(self, c: int) -> Callable[[int], int]:
        """The GF(p)-linear map y -> c * y on packed elements.

        Over a prime field it is one int product mod p.  Otherwise one table
        per half of the digits, keyed by the packed half of y and spanned by
        the products x**k * c, gives c * y as the sum of two lookups; two
        halves keep the tables at p**ceil(N/2) entries, not q.
        """
        p, n = self.p, self.degree
        if n == 1:
            return lambda y: y * c % p
        top, top_bits, adj = self._top, self._top_bits, self._adj

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

        half = (n + 1) // 2
        units = [1 << s for s in self._shifts]
        products = [self._mul_packed(u, c) for u in units]
        low = dict(zip(span(units[:half]), span(products[:half])))
        high = dict(zip(span(units[: n - half]), span(products[half:])))
        shift = self._shifts[half]
        low_mask = (1 << shift) - 1

        def times(y: int) -> int:
            s = low[y & low_mask] + high[y >> shift]
            return s - (((s + adj) & top_bits) >> top) * p

        return times

    @cached_property
    def _m(self) -> int:
        """The number m = ceil(sqrt(q - 1)) of baby steps.  Its first read
        sets up the packing, finds alpha and builds the tables, so
        ``element_poly`` and ``_log`` read it before any of them."""
        self._set_up_packing()
        # baby steps alpha**0 .. alpha**(m-1) and giant powers alpha**(m*i),
        # i < m: every exponent e <= q - 2 is m*i + j with i, j < m, so
        # alpha**e is one product of two of them
        m = math.isqrt(self.q - 2) + 1
        times_alpha = self._multiplier(self._find_alpha())
        babies = [1]
        for _ in range(m - 1):
            babies.append(times_alpha(babies[-1]))
        self._giant_step = times_alpha_m = self._multiplier(times_alpha(babies[-1]))
        giants = [1]
        for _ in range(m - 1):
            giants.append(times_alpha_m(giants[-1]))
        self._babies, self._giants = babies, giants
        self._baby_log = {y: j for j, y in enumerate(babies)}
        return m

    def _log(self, y: int) -> int:
        """Exponent of the nonzero packed element y, by baby-step giant-step.

        ``y * alpha**(m*i)`` is a baby step ``alpha**j`` for some ``i <= m``,
        and then ``y == alpha**(j - m*i)``.
        """
        m = self._m
        baby, step, i = self._baby_log, self._giant_step, 0
        while y not in baby:
            y, i = step(y), i + 1
        return (baby[y] - i * m) % (self.q - 1)

    def _zech_log(self, k: int) -> FieldElement:
        """log(1 + alpha**k), None when the sum is zero."""
        digits = self.element_poly(k)
        one_plus = self._pack(((digits[0] + 1) % self.p,) + digits[1:])
        return self._log(one_plus) if one_plus else None

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        # alpha**a + alpha**b == alpha**a * (1 + alpha**(b - a)); the memo
        # keys a negative b - a like (b - a) mod (q - 1)
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
        if a is None:
            return (0,) * self.degree
        i, j = divmod(a, self._m)
        return self._digits(self._product(self._giants[i], self._babies[j]))

    # -- identity and serialization -------------------------------------------

    def descriptor(self) -> dict:
        return {"p": self.p, "N": self.degree, "modulus": list(self.modulus)}

    @classmethod
    def from_descriptor(cls, d: dict) -> "GaloisField":
        if not isinstance(d, dict) or not all(type(d.get(k)) is int for k in ("p", "N")):
            raise ValueError('field descriptor must be an object with integer "p" and "N"')
        field = make_field(d["p"], d["N"])
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


_FIELDS = Memo(lambda key: GaloisField(*key))  # (p, degree) -> the shared field


def make_field(p: int, degree: int) -> GaloisField:
    """The canonical GF(p^degree), built once per process and then shared."""
    return _FIELDS[p, degree]


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
