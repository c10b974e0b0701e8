"""Hand-written lexer for the RC language.

The lexer is a straightforward single-pass scanner.  It supports ``//``
line comments and ``/* ... */`` block comments, decimal integer literals,
single- or double-quoted string literals (used as symbolic message tags,
e.g. ``send(out, 'even')``), identifiers and the operator set listed in
:mod:`repro.lang.tokens`.
"""

from __future__ import annotations

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

_TWO_CHAR_OPERATORS = {
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "&&": TokenKind.AND,
    "||": TokenKind.OR,
}

_ONE_CHAR_OPERATORS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "&": TokenKind.AMP,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.NOT,
}


_ASCII_DIGITS = frozenset("0123456789")
_ASCII_WORD_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_ASCII_WORD = _ASCII_WORD_START | _ASCII_DIGITS


class Lexer:
    """Tokenizes RC source text."""

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokenize(self) -> list[Token]:
        """Scan the whole input and return the token list (ending in EOF)."""
        tokens: list[Token] = []
        while True:
            token = self._next_token()
            tokens.append(token)
            if token.kind is TokenKind.EOF:
                return tokens

    # -- internals ---------------------------------------------------------

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._col)

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self) -> str:
        char = self._source[self._pos]
        self._pos += 1
        if char == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        return char

    def _skip_trivia(self) -> None:
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance()
                self._advance()
                while True:
                    if self._pos >= len(self._source):
                        raise LexError("unterminated block comment", start)
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance()
                        self._advance()
                        break
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        location = self._location()
        if self._pos >= len(self._source):
            return Token(TokenKind.EOF, None, location)

        char = self._peek()
        # ASCII-only classification: str.isdigit()/isalpha() accept
        # characters like '²' that int() cannot parse.
        if char in _ASCII_DIGITS:
            return self._lex_number(location)
        if char in _ASCII_WORD_START:
            return self._lex_word(location)
        if char in "'\"":
            return self._lex_string(location)

        two = self._source[self._pos : self._pos + 2]
        if two in _TWO_CHAR_OPERATORS:
            self._advance()
            self._advance()
            return Token(_TWO_CHAR_OPERATORS[two], None, location)
        if char in _ONE_CHAR_OPERATORS:
            self._advance()
            return Token(_ONE_CHAR_OPERATORS[char], None, location)
        raise LexError(f"unexpected character {char!r}", location)

    def _lex_number(self, location: SourceLocation) -> Token:
        digits = []
        while self._pos < len(self._source) and self._peek() in _ASCII_DIGITS:
            digits.append(self._advance())
        if self._pos < len(self._source) and self._peek() in _ASCII_WORD_START:
            raise LexError("identifier may not start with a digit", location)
        return Token(TokenKind.INT, int("".join(digits)), location)

    def _lex_word(self, location: SourceLocation) -> Token:
        chars = []
        while self._pos < len(self._source) and self._peek() in _ASCII_WORD:
            chars.append(self._advance())
        word = "".join(chars)
        keyword = KEYWORDS.get(word)
        if keyword is not None:
            return Token(keyword, None, location)
        return Token(TokenKind.IDENT, word, location)

    def _lex_string(self, location: SourceLocation) -> Token:
        quote = self._advance()
        chars = []
        while True:
            if self._pos >= len(self._source) or self._peek() == "\n":
                raise LexError("unterminated string literal", location)
            char = self._advance()
            if char == quote:
                break
            if char == "\\":
                if self._pos >= len(self._source):
                    raise LexError("unterminated string literal", location)
                escape = self._advance()
                replacements = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
                if escape not in replacements:
                    raise LexError(f"unknown escape sequence \\{escape}", location)
                chars.append(replacements[escape])
            else:
                chars.append(char)
        return Token(TokenKind.STRING, "".join(chars), location)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source).tokenize()
