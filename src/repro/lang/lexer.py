"""Regex scanner for the RC language.

:func:`tokenize` walks the source with one compiled master regex.  Each
match is the blanks before a token plus one alternative, in order:
trivia (newlines, ``//`` line comments and ``/* ... */`` block
comments), decimal integer literals, identifiers and keywords, single-
or double-quoted string literals (used as symbolic message tags, e.g.
``send(out, 'even')``), and the operators of :mod:`repro.lang.tokens`,
longest spelling first.  The other alternatives match malformed input:
an unterminated block comment, digits running into a word, a string
literal cut off by a newline, the end of the input or an unknown
escape, and any one other character.  So the matches cover the whole
input, and the first malformed spot raises a :class:`LexError` located
where its token starts.

Character classes are ASCII-only: ``str.isdigit()`` and ``\\d`` accept
characters like ``'²'`` that ``int()`` cannot parse.  Newlines occur
only in trivia, so the line count is kept there and a token's column is
its offset from the start of its line.

Each token and its location are named tuples (see
:mod:`repro.lang.tokens`), built with ``tuple.__new__``: two tuples per
token and nothing else.
"""

from __future__ import annotations

import re

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, Token, TokenKind

#: Punctuation and operators, keyed by spelling.
_OPERATORS = {kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()}

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}

_SCAN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<trivia>(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/)+)
    | (?P<open_comment>/\*)
    | (?P<int>[0-9]+(?![0-9A-Za-z_]))
    | (?P<digit_word>[0-9]+)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>'(?:[^'\\\n]|\\[nt\\'"])*'|"(?:[^"\\\n]|\\[nt\\'"])*")
    | (?P<bad_string>['"](?:[^\\\n]|\\[nt\\'"])*)
    | (?P<op>"""
    + "|".join(re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + r""")
    | (?P<other>[\s\S])
    )
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Scan the whole of ``source`` and return its tokens, ending in EOF."""
    tokens: list[Token] = []
    append = tokens.append
    # Tokens and locations are named tuples; tuple.__new__ builds them
    # without the Python-level __new__ a named tuple's constructor runs.
    # The kinds are read once (see the note in the parser).
    new = tuple.__new__
    ident, integer, string = TokenKind.IDENT, TokenKind.INT, TokenKind.STRING
    line, line_start = 1, 0
    for match in _SCAN.finditer(source):
        group = match.lastgroup
        start = match.start(group)
        if group == "trivia":
            text = match.group(group)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            continue
        location = new(SourceLocation, (line, start - line_start + 1))
        if group == "word":
            word = match.group(group)
            keyword = KEYWORDS.get(word)
            if keyword is None:
                append(new(Token, (ident, word, location)))
            else:
                append(new(Token, (keyword, None, location)))
        elif group == "op":
            append(new(Token, (_OPERATORS[match.group(group)], None, location)))
        elif group == "int":
            append(new(Token, (integer, int(match.group(group)), location)))
        elif group == "string":
            body = match.group(group)[1:-1]
            if "\\" in body:
                body = re.sub(r"\\(.)", lambda escape: _ESCAPES[escape[1]], body)
            append(new(Token, (string, body, location)))
        else:
            raise LexError(_error(group, source, match.end(group)), location)
    append(Token(TokenKind.EOF, None, SourceLocation(line, len(source) - line_start + 1)))
    return tokens


def _error(group: str, source: str, end: int) -> str:
    """The message for a match of one of the error alternatives."""
    if group == "open_comment":
        return "unterminated block comment"
    if group == "digit_word":
        return "identifier may not start with a digit"
    if group == "bad_string":
        # The literal stops before a newline, the end of the input, or a
        # backslash whose escape is unknown (or missing, at the end).
        if source.startswith("\\", end) and end + 1 < len(source):
            return f"unknown escape sequence \\{source[end + 1]}"
        return "unterminated string literal"
    return f"unexpected character {source[end - 1]!r}"
