"""Exception types, the work meter, the memo dict and the integer parser
shared across the package."""

from typing import Callable

DEFAULT_BUDGET = 10**8


class NonPrimeCharacteristic(ValueError):
    """Field characteristic is not a prime number."""


class FieldTooLarge(ValueError):
    """Requested field order exceeds the supported table size."""


class UnsupportedSize(ValueError):
    """Determinant requested for a matrix side that is not implemented."""


class ZeroElementInDTS(ValueError):
    """A difference triangle set used for construction contains 0."""


class SetCountMismatch(ValueError):
    """Number of sets in the DTS does not match the requested n - 1."""


class IncompleteBlock(ValueError):
    """Message length is not a whole number of code blocks."""


class BudgetExhausted(RuntimeError):
    """A bounded search ran out of budget without reaching a result."""


class HorizonTooLarge(BudgetExhausted):
    """The work done so far by a command exceeds its work budget."""


class Meter:
    """Work budget of one command, charged where each exhaustive loop works:
    past ``limit`` steps it raises HorizonTooLarge.  It holds nothing else."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, steps: int) -> None:
        self.used += steps
        if self.used > self.limit:
            raise HorizonTooLarge(f"{self.used} steps exceed the budget of {self.limit}")


class Memo(dict):
    """``fn(key)`` for each key, computed on first use and kept."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def as_meter(budget: int | Meter) -> Meter:
    """The shared meter itself, or a fresh one with ``budget`` as its limit."""
    return budget if isinstance(budget, Meter) else Meter(budget)


def parse_digits(text: str) -> int:
    """A nonnegative integer written as ASCII digits only: no blank, sign
    or ``_``, all of which ``int`` would accept."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a string of digits: {text!r}")
    return int(text)
