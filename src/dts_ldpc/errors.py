"""Exception types shared across the package."""


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
