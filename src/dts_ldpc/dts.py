"""Difference triangle sets: validation, difference bookkeeping, search.

A difference triangle set here is a family of strictly increasing sets of
nonnegative integers, all of the same size.  Two validity modes exist:

* ``relaxed`` — within each set, all positive pairwise differences are
  distinct (differences may repeat across sets);
* ``strict`` — additionally no positive difference appears in two
  different sets (all differences of the whole family are distinct).

The scope is the largest last element.  ``search_min_scope`` finds a
minimum-scope family by exhausting every smaller scope, so the result
carries an optimality certificate.  Its depth-first search keeps the
marks, the differences taken and the offsets that would repeat one as
bit-vectors relative to the last mark, so each candidate element costs a
few shifts, and its ``nodes`` count is the number of candidate elements
tried, rejected ones included.  A level with no free step, one whose
candidates all repeat a difference, is charged by the level above it and
never entered.  Subtrees whose count is already known are added without a
walk: a set started from a carry that already failed at this scope, and,
when the carry never changes (one set, relaxed mode, or sets of size 1),
every first mark past the smallest, which repeats the scope before.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .errors import DEFAULT_BUDGET, BudgetExhausted, Meter, as_meter, parse_digits

VALID_MODES = ("relaxed", "strict")

# (set index, position j, position k) with j > k, all 1-based: the witness
# of the difference  set[j] - set[k].
Witness = tuple[int, int, int]


# a NamedTuple may not define __new__ in its own body, so the checks
# live in a subclass
class _Sets(NamedTuple):
    sets: tuple[tuple[int, ...], ...]


class DifferenceTriangleSet(_Sets):
    __slots__ = ()

    def __new__(cls, sets):
        norm = tuple(tuple(s) for s in sets)
        if not norm:
            raise ValueError("at least one set is required")
        size = len(norm[0])
        for i, s in enumerate(norm, start=1):
            if any(type(a) is not int for a in s):
                raise ValueError(f"set {i} contains a non-integer element")
            if len(s) != size:
                raise ValueError(f"set {i} has size {len(s)}, expected {size}")
            if not s:
                raise ValueError("sets must be nonempty")
            if any(a < 0 for a in s):
                raise ValueError(f"set {i} contains a negative element")
            if any(b <= a for a, b in zip(s, s[1:])):
                raise ValueError(f"set {i} is not strictly increasing")
        return super().__new__(cls, norm)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

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
        try:
            sets = tuple(tuple(map(parse_digits, g.split(","))) for g in text.split(";"))
        except ValueError:
            raise ValueError(f"cannot parse DTS from {text!r}") from None
        return cls(sets)

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


class DuplicateDifference(NamedTuple):
    value: int
    witnesses: tuple[Witness, ...]


class ValidationReport(NamedTuple):
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
        if mode == "relaxed":  # only a repeat within one set counts
            owners = [w[0] for w in wits]
            wits = [w for w in wits if owners.count(w[0]) > 1]
        if len(wits) > 1:
            dups.append(DuplicateDifference(value, tuple(wits)))
    return ValidationReport(mode=mode, valid=not dups, duplicates=tuple(dups))


class SearchCertificate(NamedTuple):
    """Scopes proven infeasible by exhaustion before the minimum was found."""

    exhausted_scopes: tuple[int, ...]
    nodes: int


class SearchResult(NamedTuple):
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


def _marks(last: int, lst: int) -> tuple[int, ...]:
    """The marks of a set whose bit i of ``lst`` is the mark ``last - i``."""
    return tuple(last - i for i in range(lst.bit_length() - 1, -1, -1) if lst >> i & 1)


def search_min_scope(
    num_sets: int,
    set_size: int,
    mode: str = "relaxed",
    min_element: int = 1,
    scope_budget: int = 32,
    budget: int | Meter = DEFAULT_BUDGET,
) -> SearchResult:
    """Lexicographically smallest family of minimum scope.

    Scopes are tried in increasing order; a depth-first search exhausts
    each scope before moving on, so the first hit is optimal and every
    smaller scope is certified infeasible.  Raises BudgetExhausted when no
    family exists within scope_budget, and its subclass HorizonTooLarge
    once the work charged to the meter ``budget`` passes its limit.

    The search places the marks of each set left to right, the sets in
    order, and keeps the shift-register bit-vectors of optimal Golomb ruler
    searches, all relative to the last mark placed, ``last``:

    * ``lst``: bit i is set when ``last - i`` is a mark of the current set;
    * ``used``: the differences taken by the current set and the carry (in
      strict mode the differences of the sets before it, else 0);
    * ``comp``: bit x is set when a mark at ``last + x`` would repeat a
      difference of ``used``.

    A set starts from a virtual mark ``min_element - 1`` with ``lst = comp
    = 0`` and ``used`` = the carry.  A mark ``s`` past the last one makes
    ``lst' = (lst << s) | 1``, ``used' = used | (lst << s)`` and ``comp' =
    (comp >> s) | used'``; the free steps are the clear bits of ``comp >>
    1``, so a candidate costs no loop over the marks placed.

    ``certificate.nodes`` counts every candidate element of the full walk,
    rejected ones included: a level whose candidates run up to step
    ``span`` adds ``span``, and a level left on success gives back ``span -
    s`` for the steps past its hit ``s`` that were never tried.  The meter
    is charged with the candidates the search walks, the ``span`` of every
    level it places, and with one step per element of the sets repeated in
    closed form; the subtrees below that it reuses, and the give-backs,
    change ``nodes`` only.

    A level is charged before its first candidate, as the walk reaches
    it, by the level above: that level works out the ``span`` and the
    free steps of the one below, adds the span to the candidates walked,
    checks the meter, and calls ``place`` only when a step is free (for
    the first level of a set, where every step is free, ``enter`` does
    this).  A level with no free step, more than half of those a ruler
    search reaches, would only charge itself and return, so ``nodes``,
    the meter and every refusal are those of a walk that enters it.

    How many sets are searched is decided once.  A completed set leaves
    the carry as it was in relaxed mode (the carry stays 0) and when it
    has no differences (size 1); in strict mode a larger set adds
    differences that avoid the carry, so the carry grows.  When the carry
    never changes (one set, relaxed mode, or sets of size 1), every later
    set would restart the first set's search from the same state and reach
    the same set after the same nodes.  Such shapes search one set and
    repeat it: each copy costs the nodes the first set spent at the hit
    scope, and every smaller scope costs that of a single set.  Otherwise
    all ``num_sets`` sets are searched.

    Two kinds of subtree are never walked twice; the count they add is the
    count they took the first time.

    * Failed carries.  ``enter`` and ``place`` depend only on their
      arguments and on the target, and the meter only decides when they
      raise.  Set k + 1 starts with ``enter(k + 1, first_hi, min_element -
      1, 0, carry)``, so within one target its outcome and node count
      depend on ``(k + 1, carry)`` alone.  Translated, mirrored or reordered earlier
      sets leave the same carry, so the same subtree comes back.  A failed
      subtree gives no nodes back (give-backs happen only on the way out
      of a hit), so its count is a constant.  ``failed`` keeps it per
      target; a repeat adds it instead of recursing.
    * Scope shift.  When one set is searched, its state after a first mark
      m is ``last = m``, ``lst = 1``, ``used = comp = 0`` with level bound
      ``first_hi + 1``, and every later step depends only on ``hi - last``
      and ``target - hi``.  So first mark m at target T + 1 has the subtree
      of first mark m - 1 at target T, translated by one.  T was
      exhausted, so at T + 1 every first mark past ``min_element`` fails,
      and together those subtrees cost all of T's nodes but its first
      level of ``span(T)`` candidates.  From the second target on only the
      first mark ``min_element`` is searched; if it fails, that count is
      added.  A hit can only come from ``min_element``, so the cost at the
      hit scope, which the repeat above copies, is unchanged.
    """
    if mode not in VALID_MODES:
        raise ValueError(f"mode must be one of {VALID_MODES}, got {mode!r}")
    if min_element not in (0, 1):
        raise ValueError(f"min_element must be 0 or 1, got {min_element}")
    if num_sets < 1 or set_size < 1:
        raise ValueError("num_sets and set_size must be >= 1")
    if scope_budget < 0:
        raise ValueError(f"the scope budget must be nonnegative, got {scope_budget}")

    # one set when the carry never changes: see the docstring
    searched = 1 if num_sets == 1 or mode == "relaxed" or set_size == 1 else num_sets
    last_set = searched - 1
    meter = as_meter(budget)
    room = meter.limit - meter.used
    walked = 0  # the candidates walked: the spans of the levels placed
    unwalked = 0  # nodes - walked: the subtrees reused, less the give-backs
    exhausted: list[int] = []
    lowest = min_element + set_size - 1

    def enter(k: int, hi: int, last: int, lst: int, used: int) -> Optional[list[tuple[int, ...]]]:
        # Charge the first level of set k and place it: comp = 0 there, so
        # each of its steps is free.
        nonlocal walked
        span = hi - last
        walked += span
        if walked > room:
            meter.charge(walked)
        return place(k, hi, last, lst, used, 0, (1 << span) - 1)

    def place(k: int, hi: int, last: int, lst: int, used: int, comp: int,
              free: int) -> Optional[list[tuple[int, ...]]]:
        # Place the next mark of set k at a free step of last+1..hi, the
        # nonzero bit-vector ``free``; the caller has charged this level.
        # hi == target for the set's last mark.
        nonlocal walked, unwalked
        span = hi - last
        if hi < target:
            below = span + 1  # the level below step s spans below - s
            while free:
                low = free & -free
                free ^= low
                s = low.bit_length()
                shifted = lst << s
                used_next = used | shifted
                # comp' is exact.  A mark at x > new repeats a difference
                # when x - b is in used' for a mark b.  For b = new that is
                # bit x - new of used'.  For an old b with x - b in used it
                # is bit x - last of comp, i.e. bit x - new of comp >> s.
                # Otherwise x - b = new - a for an old a, and then
                # x - new = b - a is a difference of old marks, in used'.
                comp_next = (comp >> s) | used_next
                # charge the level below here, and enter it only when one
                # of its steps is free
                step = below - s
                walked += step
                if walked > room:
                    meter.charge(walked)
                mask = (1 << step) - 1
                taken = comp_next >> 1 & mask
                if taken != mask:
                    hit = place(k, hi + 1, last + s, shifted | 1, used_next, comp_next,
                                taken ^ mask)
                    if hit is not None:
                        unwalked -= span - s
                        return hit
            return None
        if k == last_set:  # the first free step ends the family
            s = (free & -free).bit_length()
            unwalked -= span - s
            return [_marks(last + s, lst << s | 1)]
        while free:
            low = free & -free
            free ^= low
            s = low.bit_length()
            used_next = used | lst << s
            key = k + 1, used_next
            if key in failed:
                unwalked += failed[key]
                continue
            start = walked + unwalked
            hit = enter(k + 1, first_hi, min_element - 1, 0, used_next)
            if hit is not None:
                unwalked -= span - s
                return [_marks(last + s, lst << s | 1), *hit]
            failed[key] = walked + unwalked - start
        return None

    spent = 0  # nodes of the last target exhausted
    for target in range(lowest, scope_budget + 1):
        first_hi = target - set_size + 1
        failed: dict[tuple[int, int], int] = {}
        before = walked + unwalked
        if searched == 1 and exhausted:
            # first marks past min_element repeat target - 1 (see the
            # docstring): a hit counts the first mark min_element alone, a
            # miss the span(target - 1) + 1 first marks and, past
            # min_element, the rest of spent
            found = enter(0, first_hi + 1, min_element, 1, 0)
            unwalked += 1 if found is not None else spent + 1
        else:
            found = enter(0, first_hi, min_element - 1, 0, 0)
        if found is not None:
            copies = num_sets - searched
            unwalked += copies * (walked + unwalked - before)
            meter.charge(walked + copies * set_size)
            found += found[:1] * copies
            dts = DifferenceTriangleSet(tuple(found))
            return SearchResult(
                dts=dts,
                scope=dts.scope,
                certificate=SearchCertificate(tuple(exhausted), walked + unwalked),
            )
        spent = walked + unwalked - before
        exhausted.append(target)
    meter.charge(walked)
    raise BudgetExhausted(
        f"no {mode} family of {num_sets} set(s) of size {set_size} with scope <= {scope_budget}"
    )
