"""Token definitions for the RC language.

RC is the small C-like imperative language used throughout this
reproduction.  Its statement forms are exactly the four kinds assumed by
Section 4 of the paper (assignments, conditionals, procedure calls and
termination statements) plus surface sugar (``for``, ``switch``,
``break``/``continue``) that the normalizer and CFG builder lower.

A :class:`Token` is a named tuple ``(kind, value, location)`` and its
location a named tuple ``(line, column)``, the cheapest immutable
records to build: the lexer makes two per token.  A :class:`TokenKind`
hashes by identity.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Every lexical token kind of the RC language.

    Members are singletons compared by identity, so they hash by
    identity too: the parser's operator tables then look a kind up
    without calling ``Enum.__hash__`` in Python.
    """

    __hash__ = object.__hash__

    # Literals and identifiers.
    INT = "int literal"
    STRING = "string literal"
    IDENT = "identifier"

    # Keywords.
    PROC = "proc"
    EXTERN = "extern"
    VAR = "var"
    IF = "if"
    ELSE = "else"
    WHILE = "while"
    FOR = "for"
    SWITCH = "switch"
    CASE = "case"
    DEFAULT = "default"
    RETURN = "return"
    EXIT = "exit"
    BREAK = "break"
    CONTINUE = "continue"
    SKIP = "skip"
    TRUE = "true"
    FALSE = "false"
    TOP = "top"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    DOT = "."

    # Operators.
    ASSIGN = "="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "&&"
    OR = "||"
    NOT = "!"

    EOF = "end of input"


#: Keywords, mapped from their spelling to their token kind.
KEYWORDS: dict[str, TokenKind] = {
    "proc": TokenKind.PROC,
    "extern": TokenKind.EXTERN,
    "var": TokenKind.VAR,
    "if": TokenKind.IF,
    "else": TokenKind.ELSE,
    "while": TokenKind.WHILE,
    "for": TokenKind.FOR,
    "switch": TokenKind.SWITCH,
    "case": TokenKind.CASE,
    "default": TokenKind.DEFAULT,
    "return": TokenKind.RETURN,
    "exit": TokenKind.EXIT,
    "break": TokenKind.BREAK,
    "continue": TokenKind.CONTINUE,
    "skip": TokenKind.SKIP,
    "true": TokenKind.TRUE,
    "false": TokenKind.FALSE,
    "top": TokenKind.TOP,
}


class Token(NamedTuple):
    """A single lexical token.

    ``value`` holds the decoded payload: an ``int`` for integer literals,
    the string contents for string literals, and the spelling for
    identifiers; it is ``None`` for punctuation and keywords.

    A named tuple ``(kind, value, location)``, like its
    :class:`~repro.lang.errors.SourceLocation`.
    """

    kind: TokenKind
    value: int | str | None
    location: SourceLocation

    def __str__(self) -> str:
        if self.value is not None:
            return f"{self.kind.name}({self.value!r})"
        return self.kind.name
