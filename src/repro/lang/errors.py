"""Error types raised by the RC language front end.

Every front-end error carries a :class:`SourceLocation` so tools built on
top of the library (the closing tool, the C front end, the examples) can
report precise positions.  Runtime errors live in :mod:`repro.runtime.errors`.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import ReproError


class SourceLocation(NamedTuple):
    """A position in an RC source text (1-based line and column).

    A named tuple: the lexer builds one per token, and a tuple is the
    cheapest immutable record to build.  Like any tuple it is hashable
    and equal to the plain tuple ``(line, column)``.
    """

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


#: Location used for synthesized nodes (normalization temporaries,
#: VS_toss branch nodes inserted by the closing transformation, ...).
SYNTHETIC = SourceLocation(0, 0)


class LangError(ReproError):
    """Base class of all RC front-end errors."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        super().__init__(message, None if location == SYNTHETIC else location)
        self.location = location


class LexError(LangError):
    """An unrecognised character or malformed literal in the input."""


class ParseError(LangError):
    """The token stream does not form a valid RC program."""


class NormalizationError(LangError):
    """The program cannot be brought into core form (see lang.normalize)."""


class CFrontError(LangError):
    """The pycparser-based C front end met an unsupported C construct."""
