"""Diagnostics shared by every frontend stage.

Every token and AST node carries a :class:`SourceLocation`.  All frontend
errors derive from :class:`FrontendError` so callers can catch one type
regardless of which stage (preprocessing, lexing, parsing, type checking)
rejected the input.
"""

from __future__ import annotations


class SourceLocation:
    """A position in preprocessed source text.

    ``filename`` is the logical file name (tracks ``#include``), ``line``
    and ``column`` are 1-based.  Every token and AST node holds one, so
    this is a plain slotted value class: cheap to build, compared and
    hashed by its three fields.
    """

    __slots__ = ("filename", "line", "column")

    def __init__(
        self, filename: str = "<input>", line: int = 1, column: int = 1
    ):
        self.filename = filename
        self.line = line
        self.column = column

    def _key(self) -> tuple[str, int, int]:
        return (self.filename, self.line, self.column)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"SourceLocation(filename={self.filename!r}, "
            f"line={self.line!r}, column={self.column!r})"
        )

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for synthesized constructs with no source counterpart.
UNKNOWN_LOCATION = SourceLocation("<builtin>", 0, 0)


class FrontendError(Exception):
    """Base class for all errors raised while processing C source."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location or UNKNOWN_LOCATION
        super().__init__(f"{self.location}: {message}")

    def diagnostic(self) -> str:
        """The one-line ``file:line:col: message`` form of this error.

        This is what CLI commands print (to stderr, with a nonzero
        exit) instead of a traceback when user-supplied source is
        rejected.
        """
        return f"{self.location}: {self.message}"

    def diagnostic_dict(self) -> dict:
        """The structured form of :meth:`diagnostic`.

        This is the analysis daemon's 400 error surface: rejected
        source becomes ``{error, file, line, col}`` JSON — never a
        traceback — so API clients can jump to the offending token
        exactly like CLI users do from the one-line form.
        """
        return {
            "error": self.message,
            "file": self.location.filename,
            "line": self.location.line,
            "col": self.location.column,
        }


class PreprocessorError(FrontendError):
    """Raised for malformed directives, unbalanced conditionals, etc."""


class LexError(FrontendError):
    """Raised for characters or literals the lexer cannot tokenize."""


class ParseError(FrontendError):
    """Raised when the token stream does not match the C grammar."""
