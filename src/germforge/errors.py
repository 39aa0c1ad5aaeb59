"""Typed errors shared across the library and surfaced by the CLI.

Every error carries a stable machine-readable code. The CLI maps codes to
exit statuses: precondition/parse failures exit 2, genericity/assumption
failures exit 3, and INTERNAL_CHECK_FAILED, its report of an AssertionError
from one of the library's own postchecks, exits 4 with no answer printed.
"""

from __future__ import annotations

# Codes that mean the input violated a documented precondition.
PRECONDITION_CODES = frozenset(
    {
        "PARSE_ERROR",
        "UNKNOWN_VARIABLE",
        "PRECONDITION_VIOLATED",
        "ZERO_IDEAL",
        "F_NOT_IN_IDEAL",
        "F_NOT_UNFOLDING",
        "F_NOT_IN_JSQUARED",
        "NON_ADAPTED_COORDINATES",
        "NOT_FINITE_CODIM",
        "NOT_ZERO_DIMENSIONAL",
        "NOT_ISOLATED",
        "INFINITE_LENGTH",
        "POSITIVE_DIMENSIONAL_CRITICAL_LOCUS",
        "LIFTING_FAILED",
        "LOCAL_ORDER_UNSUPPORTED",
        "BAD_REQUEST",
    }
)

# Codes that mean an assumption or genericity expectation failed.
ASSUMPTION_CODES = frozenset({"GENERICITY_SUSPECT", "RADICAL_UNAVAILABLE"})

# The code of a failed internal consistency check.
INTERNAL_CODE = "INTERNAL_CHECK_FAILED"


class GermforgeError(Exception):
    """Library error with a stable code string."""

    def __init__(self, code: str, message: str) -> None:
        if code not in PRECONDITION_CODES | ASSUMPTION_CODES | {INTERNAL_CODE}:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"

    @property
    def exit_code(self) -> int:
        if self.code == INTERNAL_CODE:
            return 4
        return 3 if self.code in ASSUMPTION_CODES else 2


class ParseError(GermforgeError):
    """Problem-file or polynomial syntax error with position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            where = f" at line {line}, column {column}"
        elif column:
            where = f" at column {column}"
        else:
            where = ""
        super().__init__("PARSE_ERROR", f"{message}{where}")
        self.line = line
        self.column = column
