"""Exception hierarchy shared by the frontend, translator, and harness."""

from __future__ import annotations

# What every command reports when Python's recursion limit stops it.
TOO_DEEP = "source or value nested too deeply (RecursionError)"


class SolmemError(Exception):
    """Base class for all user-facing errors."""


class SourceError(SolmemError):
    """Error tied to a source location."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class ParseError(SourceError):
    """Lexical or syntactic error."""


class ResolveError(SourceError):
    """Name resolution, typing, or data-location error."""


class UnsupportedError(SourceError):
    """Construct outside the supported fragment.

    Raised for out-of-fragment syntax and for translations that would
    require quantifiers or unbounded iteration. The harness counts these
    as `unsupported` rather than as failures.
    """


class IrError(SolmemError):
    """Ill-formed IR program handed to a transformation or the evaluator."""


class SolverFailure(SolmemError):
    """The external solver could not be run or produced garbage."""
