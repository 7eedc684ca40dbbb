"""Seeded command lists for the benchmark workloads.

Each workload is a batch of ``dts-ldpc`` argv lists made from a seed: the
same (workload, seed) pair always gives the same batch.  Batches are
stratified: a fixed number of commands falls in each cost class (shape,
scope, field), and the seed only chooses among inputs of similar cost
(which sets, which field, output flags, order).  That keeps the total
work of a batch nearly the same for every seed, so runs with different
seeds can be compared, while every seed still feeds the program inputs
it has not seen before.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

SMALL_FIELDS = ("2^5", "2^8", "3^6", "7^3")
CODE_A = "1,2,6;1,2,4"
CODE_B = "1,2,6;2,3,5"

# Optimal Golomb ruler lengths (Atkinson, Santoro & Urrutia 1986): the
# smallest largest mark of a k-mark ruler starting at 0.
GOLOMB_LENGTH = {1: 0, 2: 1, 3: 3, 4: 6, 5: 11, 6: 17, 7: 25, 8: 34}

# Smallest scope of one relaxed-valid set of size w with elements >= 1.
_MIN_SCOPE = {w: GOLOMB_LENGTH[w] + 1 for w in GOLOMB_LENGTH}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.argv[0]

    def opt(self, flag: str, default=None):
        """Value of ``--flag value``, True for a bare ``--flag``, else default."""
        argv = self.argv
        for i, tok in enumerate(argv):
            if tok == flag:
                if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                    return argv[i + 1]
                return True
        return default

    def text(self) -> str:
        return " ".join(self.argv)


def _sidon(s: list[int]) -> bool:
    diffs = [b - a for a, b in itertools.combinations(s, 2)]
    return len(diffs) == len(set(diffs))


def _family(rng: random.Random, n: int, w: int, scope: int) -> str:
    """Inline form of a random relaxed-valid family of n-1 sets of size w
    with elements >= 1 and scope exactly ``scope``."""
    sets = []
    for k in range(n - 1):
        while True:
            if k == 0:
                cand = sorted(rng.sample(range(1, scope), w - 1)) + [scope]
            else:
                cand = sorted(rng.sample(range(1, scope + 1), w))
            if _sidon(cand):
                break
        sets.append(cand)
    rng.shuffle(sets)
    return ";".join(",".join(map(str, s)) for s in sets)


def _spread(rng: random.Random, values, count: int) -> list:
    """``count`` values cycling through ``values`` in a seeded order, so each
    value is used equally often (up to one)."""
    order = list(values)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def _spec(dts: str, n: int, field: str) -> tuple[str, ...]:
    return ("--dts", dts, "--n", str(n), "--field", field)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# (n, w, scopes, count).  The dense 3x3 sweep grows steeply with the scope
# (the default horizon is scope - 1), so most commands have a small scope.
# Latency percentiles fall inside blocks of one class, so they do not jump
# between classes from seed to seed: the median inside the 40 commands with
# n = 3 and scope 4, the p90 inside the 20 with n = 3 and scope 5.
_VERIFY_STRATA = (
    (2, 2, (2, 3, 4, 5), 18), (2, 3, (4, 5), 18),
    (3, 2, (4,), 20), (3, 3, (4,), 20),
    (3, 2, (5,), 10), (3, 3, (5,), 10),
    (2, 2, (6,), 1), (2, 3, (6,), 1), (2, 3, (7,), 1),
)


def _verify(rng: random.Random) -> list[Command]:
    cmds = []
    for n, w, scopes, count in _VERIFY_STRATA:
        for scope, field in zip(_spread(rng, scopes, count), _spread(rng, SMALL_FIELDS, count)):
            cmds.append(Command(("verify", *_spec(_family(rng, n, w, scope), n, field), "--json")))
    # The reference codes at horizon 8, A over characteristic 2 and B over
    # an odd field, are the same in every batch: they carry most of its work.
    cmds.append(Command(("verify", *_spec(CODE_A, 3, "2^5"), "--j", "8", "--json")))
    cmds.append(Command(("verify", *_spec(CODE_B, 3, "3^6"), "--j", "8", "--json")))
    return cmds


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

# (n, w, scopes, count).  Families with w = 4 cost 10-100 times more than
# the rest, so their strata are small and use every field equally often;
# n = 4 with w = 4 (0.4-2 s a command) is left out.
_DISTANCE_STRATA = tuple(
    (n, w, tuple(range(_MIN_SCOPE[w], 12)), 30) for n in (2, 3, 4) for w in (2, 3)
) + (
    (2, 4, tuple(range(7, 12)), 24),
    (3, 4, (7, 8, 9, 10), 4),
)


def _distance(rng: random.Random) -> list[Command]:
    cmds = []
    for n, w, scopes, count in _DISTANCE_STRATA:
        for scope, field in zip(_spread(rng, scopes, count), _spread(rng, SMALL_FIELDS, count)):
            cmds.append(Command(("distance", *_spec(_family(rng, n, w, scope), n, field), "--json")))
    return cmds


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# Shapes (sets, size, mode) by cost.  Every shape here terminates: search
# has no node budget, and shapes one step larger (5 strict sets of size 3,
# 3 strict sets of size 4, rulers of 9 marks) run for minutes.  The 20
# strict 3x3 families are the block the p90 latency falls in.
_SEARCH_HEAVY = ((1, 8, "relaxed"), (4, 3, "strict"), (1, 7, "relaxed"), (1, 7, "relaxed"))
_SEARCH_MEDIUM = ((3, 3, "strict"),) * 20
_SEARCH_LIGHT = tuple((1, k, "relaxed") for k in range(2, 7)) + (
    (2, 2, "strict"), (3, 2, "strict"), (4, 2, "strict"), (2, 3, "strict"),
)
_SEARCH_LIGHT_COUNT = 76


def _search(rng: random.Random) -> list[Command]:
    shapes = list(_SEARCH_HEAVY + _SEARCH_MEDIUM)
    shapes += _spread(rng, _SEARCH_LIGHT, _SEARCH_LIGHT_COUNT)
    cmds = []
    for sets, size, mode in shapes:
        min_element = rng.randint(0, 1)
        # --budget is the largest scope tried; keep it at or above the
        # optimum so every command returns a family.
        need = GOLOMB_LENGTH[size] + min_element if sets == 1 else 32
        argv = ["search", "--sets", str(sets), "--size", str(size),
                "--min-element", str(min_element),
                "--budget", str(max(32, need) + rng.randint(0, 6))]
        if mode == "strict" or rng.random() < 0.5:
            argv += ["--mode", mode]
        if rng.random() < 0.5:
            argv.append("--json")
        cmds.append(Command(tuple(argv)))
    return cmds


# ---------------------------------------------------------------------------
# big-field
# ---------------------------------------------------------------------------

# The largest fields: each is built once per batch.
_BIG_FIELDS = ((2, 16), (3, 10), (7, 6))
# (low, high, count): distinct prime-power fields with low <= q < high.
# The median latency falls inside the 58 small fields, the p90 inside the
# 24 fields from 12288 up; only the big fields and the alist exports lie
# above that block.
_FIELD_BANDS = ((32, 512, 58), (512, 12288, 3), (12288, 16384, 24))
# (out, horizon bands, count) for construct, each over one more field from
# the lowest band.  alist rescans every entry per row and column, so its
# cost grows with the square of the horizon.
_CONSTRUCT = (
    ("alist", ((200, 400), (400, 700), (700, 1001)), 3),
    ("json", ((200, 1001),), 6),
    ("pretty", ((100, 201),), 6),
)


def _prime_power(q: int):
    p = 2
    while p * p <= q:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
        p += 1
    return (q, 1)


def _field_arg(p: int, e: int) -> str:
    return str(p) if e == 1 else f"{p}^{e}"


def _big_field(rng: random.Random) -> list[Command]:
    def analyse(fields: list[tuple[int, int]]) -> list[Command]:
        # verify and distance alternate in a seeded order: a coin flip per
        # field would move the median latency between their two costs.
        cmds = []
        for (p, e), kind in zip(fields, _spread(rng, ("verify", "distance"), len(fields))):
            spec = _spec(CODE_A, 3, _field_arg(p, e))
            if kind == "verify":
                cmds.append(Command(("verify", *spec, "--minors", "2", "--json")))
            else:
                cmds.append(Command(("distance", *spec, *("--json",) * rng.randint(0, 1))))
        return cmds

    cmds = analyse(list(_BIG_FIELDS))
    construct_fields = []
    for low, high, count in _FIELD_BANDS:
        pool = [pp for pp in map(_prime_power, range(low, high)) if pp]
        extra = sum(c for _, _, c in _CONSTRUCT) if low == _FIELD_BANDS[0][0] else 0
        picked = rng.sample(pool, count + extra)
        cmds += analyse(picked[:count])
        construct_fields += picked[count:]
    fields = iter(construct_fields)
    for out, bands, count in _CONSTRUCT:
        for low, high in _spread(rng, bands, count):
            j = rng.randrange(low, high)
            cmds.append(Command(("construct", *_spec(CODE_A, 3, _field_arg(*next(fields))),
                                 "--j", str(j), "--out", out)))
    return cmds


GENERATORS = {
    "verify": _verify,
    "distance": _distance,
    "search": _search,
    "big-field": _big_field,
}


def generate(workload: str, seed: int) -> list[Command]:
    """The batch for ``workload`` under ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    cmds = GENERATORS[workload](rng)
    rng.shuffle(cmds)
    return cmds
