"""Exception types shared across the package."""


class GategroupsError(Exception):
    """Base of every error the package raises on purpose."""


class CapacityError(GategroupsError, RuntimeError):
    """A computation was refused because the group exceeds a configured size limit."""


class ClosureOverflowError(CapacityError):
    """Generated set exceeded its element budget (wrong generators or non-finite group)."""


class BudgetExceededError(GategroupsError, RuntimeError):
    """A bounded search ran out of its node/time budget; the result is inconclusive."""


class ParseError(GategroupsError, ValueError):
    """A text file could not be parsed; the message names the line."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class LedgerParseError(ParseError):
    """A claims ledger file could not be parsed."""


class GroupFileError(ParseError):
    """A group file could not be parsed."""
