"""Exception hierarchy shared across the package.

CLI exit codes map onto these: ContractViolation -> 1, NumericError
(including an exhausted witness search) -> 2, I/O errors (plain OSError) and
MemoryError (a size that cannot be allocated) -> 3.
"""


class ContractViolation(ValueError):
    """An argument breaks a documented precondition."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite / degenerate values."""


class DegenerateNormError(NumericError):
    """A vector needed for a cosine has (near-)zero norm."""


class SearchBudgetExhausted(NumericError):
    """A randomized witness search ran out of budget without succeeding."""
