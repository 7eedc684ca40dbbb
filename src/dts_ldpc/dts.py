"""Difference triangle sets: validation, difference bookkeeping, search.

A difference triangle set here is a family of strictly increasing sets of
nonnegative integers, all of the same size.  Two validity modes exist:

* ``relaxed`` — within each set, all positive pairwise differences are
  distinct (differences may repeat across sets);
* ``strict`` — additionally no positive difference appears in two
  different sets (all differences of the whole family are distinct).

The scope is the largest last element.  ``search_min_scope`` finds a
minimum-scope family by exhausting every smaller scope, so the result
carries an optimality certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BudgetExhausted

VALID_MODES = ("relaxed", "strict")

# (set index, position j, position k) with j > k, all 1-based: the witness
# of the difference  set[j] - set[k].
Witness = tuple[int, int, int]


@dataclass(frozen=True)
class DifferenceTriangleSet:
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(int(a) for a in s) for s in self.sets)
        object.__setattr__(self, "sets", norm)
        if not norm:
            raise ValueError("at least one set is required")
        size = len(norm[0])
        for i, s in enumerate(norm, start=1):
            if len(s) != size:
                raise ValueError(f"set {i} has size {len(s)}, expected {size}")
            if not s:
                raise ValueError("sets must be nonempty")
            if any(a < 0 for a in s):
                raise ValueError(f"set {i} contains a negative element")
            if any(b <= a for a, b in zip(s, s[1:])):
                raise ValueError(f"set {i} is not strictly increasing")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def set_size(self) -> int:
        return len(self.sets[0])

    @property
    def scope(self) -> int:
        return max(s[-1] for s in self.sets)

    @classmethod
    def from_inline(cls, text: str) -> "DifferenceTriangleSet":
        """Parse the inline form ``"1,2,6;1,2,4"``."""
        groups = [g for g in text.split(";") if g.strip()]
        if not groups:
            raise ValueError(f"cannot parse DTS from {text!r}")
        return cls(tuple(tuple(int(a) for a in g.split(",")) for g in groups))

    @classmethod
    def from_json_dict(cls, d: dict) -> "DifferenceTriangleSet":
        sets = d.get("sets") if isinstance(d, dict) else None
        if not isinstance(sets, list) or not all(
            isinstance(s, list) and all(type(a) is int for a in s) for s in sets
        ):
            raise ValueError('DTS JSON must be an object whose "sets" is a list of integer lists')
        return cls(tuple(tuple(s) for s in sets))

    def to_json_dict(self, mode: str = "relaxed") -> dict:
        return {"sets": [list(s) for s in self.sets], "mode": mode}

    def inline(self) -> str:
        return ";".join(",".join(str(a) for a in s) for s in self.sets)


def differences(dts: DifferenceTriangleSet) -> dict[int, list[Witness]]:
    """Map each positive pairwise difference to its witnesses."""
    out: dict[int, list[Witness]] = {}
    for si, s in enumerate(dts.sets, start=1):
        for k, j in itertools.combinations(range(len(s)), 2):
            d = s[j] - s[k]
            out.setdefault(d, []).append((si, j + 1, k + 1))
    return out


def scope(dts: DifferenceTriangleSet) -> int:
    return dts.scope


@dataclass(frozen=True)
class DuplicateDifference:
    value: int
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    valid: bool
    duplicates: tuple[DuplicateDifference, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": "dts-validation/v1",
            "mode": self.mode,
            "valid": self.valid,
            "duplicates": [
                {"value": d.value, "witnesses": [list(w) for w in d.witnesses]}
                for d in self.duplicates
            ],
        }


def validate(dts: DifferenceTriangleSet, mode: str = "relaxed") -> ValidationReport:
    """Check difference distinctness under the given mode."""
    if mode not in VALID_MODES:
        raise ValueError(f"mode must be one of {VALID_MODES}, got {mode!r}")
    dups = []
    diff_map = differences(dts)
    for value in sorted(diff_map):
        wits = diff_map[value]
        if mode == "strict":
            if len(wits) > 1:
                dups.append(DuplicateDifference(value, tuple(wits)))
        else:
            by_set: dict[int, list[Witness]] = {}
            for w in wits:
                by_set.setdefault(w[0], []).append(w)
            offending = [w for ws in by_set.values() if len(ws) > 1 for w in ws]
            if offending:
                dups.append(DuplicateDifference(value, tuple(offending)))
    return ValidationReport(mode=mode, valid=not dups, duplicates=tuple(dups))


@dataclass(frozen=True)
class SearchCertificate:
    """Scopes proven infeasible by exhaustion before the minimum was found."""

    exhausted_scopes: tuple[int, ...]
    nodes: int


@dataclass(frozen=True)
class SearchResult:
    dts: DifferenceTriangleSet
    scope: int
    certificate: SearchCertificate

    def to_json_dict(self, mode: str) -> dict:
        return {
            "schema": "dts-search/v1",
            "sets": [list(s) for s in self.dts.sets],
            "scope": self.scope,
            "mode": mode,
            "exhausted_scopes": list(self.certificate.exhausted_scopes),
            "nodes": self.certificate.nodes,
        }


def search_min_scope(
    num_sets: int,
    set_size: int,
    mode: str = "relaxed",
    min_element: int = 1,
    scope_budget: int = 32,
) -> SearchResult:
    """Lexicographically smallest family of minimum scope.

    Scopes are tried in increasing order; a depth-first search with a
    used-difference bitmask exhausts each scope before moving on, so the
    first hit is optimal and every smaller scope is certified infeasible.
    Raises BudgetExhausted when no family exists within scope_budget.
    """
    if mode not in VALID_MODES:
        raise ValueError(f"mode must be one of {VALID_MODES}, got {mode!r}")
    if min_element not in (0, 1):
        raise ValueError(f"min_element must be 0 or 1, got {min_element}")
    if num_sets < 1 or set_size < 1:
        raise ValueError("num_sets and set_size must be >= 1")

    nodes = 0
    exhausted: list[int] = []
    lowest = min_element + set_size - 1

    def dfs(target: int, sets_done: list[tuple[int, ...]], cur: list[int],
            cur_mask: int, carry_mask: int):
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

    for target in range(lowest, scope_budget + 1):
        found = dfs(target, [], [], 0, 0)
        if found is not None:
            dts = DifferenceTriangleSet(tuple(found))
            return SearchResult(
                dts=dts,
                scope=dts.scope,
                certificate=SearchCertificate(tuple(exhausted), nodes),
            )
        exhausted.append(target)
    raise BudgetExhausted(
        f"no {mode} family of {num_sets} set(s) of size {set_size} with scope <= {scope_budget}"
    )
