"""Hypothesis fuzzing of the front end: no input may crash the tools
with anything but a LangError, and several semantic oracles."""

import bisect
import re

from hypothesis import example, given, settings, strategies as st

from repro.closing.generators import generate_sized_program
from repro.lang.errors import LangError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.tokens import TokenKind


class TestLexerRobustness:
    @given(st.text(max_size=200))
    @example("'\\")  # a backslash escape cut off by EOF
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            tokenize(text)
        except LangError:
            pass

    @given(st.text(alphabet="(){}[];,.+-*/%&|!<>= \n\t'\"abc_019", max_size=100))
    @settings(max_examples=300, deadline=None)
    def test_operator_soup_never_crashes(self, text):
        try:
            tokenize(text)
        except LangError:
            pass


def _lexes(text):
    try:
        tokenize(text)
    except LangError:
        return False
    return True


#: Pieces of RC text; a concatenation of them usually lexes.
_PIECES = [
    "x", "_t0", "proc", "var", "iffy", "42", "0", "'tag'", '"s"', "'a\\n'", "'é'",
    "==", "=", "<=", "&&", "||", "!", "(", ")", "{", "}", ";", ",", ".", "+",
    "-", "*", "/", "%", "&", "<", ">", " ", "\n", "\t", "\r", "// note\n",
    "/* é\n */",
]

sized_programs = st.builds(
    generate_sized_program, st.integers(0, 400), st.integers(0, 2**16)
)
lexable_text = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join).filter(_lexes)


class TestTokenLocations:
    """Every token's (line, column) points at its own spelling."""

    @given(sized_programs | lexable_text)
    @settings(max_examples=100, deadline=None)
    def test_each_token_points_at_its_spelling(self, source):
        line_starts = [0] + [m.end() for m in re.finditer("\n", source)]
        for token in tokenize(source):
            line, column = token.location.line, token.location.column
            offset = line_starts[line - 1] + column - 1
            # The location is on its line, and the line is the right one.
            assert bisect.bisect_right(line_starts, offset) == line
            rest = source[offset:]
            if token.kind is TokenKind.EOF:
                assert offset == len(source)
            elif token.kind is TokenKind.IDENT:
                assert re.match(r"[A-Za-z_][A-Za-z0-9_]*", rest)[0] == token.value
            elif token.kind is TokenKind.INT:
                assert int(re.match("[0-9]+", rest)[0]) == token.value
            elif token.kind is TokenKind.STRING:
                assert rest[0] in "'\""
            else:
                assert rest.startswith(token.kind.value)


class TestParserRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_program(text)
        except LangError:
            pass

    @given(
        st.lists(
            st.sampled_from(
                [
                    "proc", "var", "if", "else", "while", "return", "(", ")",
                    "{", "}", ";", "=", "x", "1", "+", "send", ",", "'tag'",
                ]
            ),
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_token_soup_never_crashes(self, tokens):
        try:
            parse_program(" ".join(tokens))
        except LangError:
            pass


# --- arithmetic oracle -------------------------------------------------------


def c_div(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def c_mod(a, b):
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


@st.composite
def arith_exprs(draw, depth=0):
    """(expression text, python value) pairs with C division semantics."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=-50, max_value=50))
        if value < 0:
            return f"(0 - {-value})", value
        return str(value), value
    op = draw(st.sampled_from(["+", "-", "*", "/", "%"]))
    left_text, left = draw(arith_exprs(depth + 1))
    right_text, right = draw(arith_exprs(depth + 1))
    if op in ("/", "%") and right == 0:
        op = "+"
    if op == "+":
        return f"({left_text} + {right_text})", left + right
    if op == "-":
        return f"({left_text} - {right_text})", left - right
    if op == "*":
        return f"({left_text} * {right_text})", left * right
    if op == "/":
        return f"({left_text} / {right_text})", c_div(left, right)
    return f"({left_text} % {right_text})", c_mod(left, right)


class TestInterpreterArithmeticOracle:
    @given(arith_exprs())
    @settings(max_examples=300, deadline=None)
    def test_expression_evaluation_matches_c_semantics(self, pair):
        from tests.helpers import outputs_of, run_single

        text, expected = pair
        run = run_single(f"proc main() {{ send(out, {text}); }}")
        assert outputs_of(run) == [expected]


@st.composite
def comparison_exprs(draw):
    a = draw(st.integers(min_value=-20, max_value=20))
    b = draw(st.integers(min_value=-20, max_value=20))
    op = draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]))
    result = {
        "==": a == b,
        "!=": a != b,
        "<": a < b,
        "<=": a <= b,
        ">": a > b,
        ">=": a >= b,
    }[op]
    a_text = f"(0 - {-a})" if a < 0 else str(a)
    b_text = f"(0 - {-b})" if b < 0 else str(b)
    return f"{a_text} {op} {b_text}", result


class TestComparisonOracle:
    @given(comparison_exprs())
    @settings(max_examples=200, deadline=None)
    def test_comparisons(self, pair):
        from tests.helpers import outputs_of, run_single

        text, expected = pair
        run = run_single(
            f"proc main() {{ if ({text}) {{ send(out, 1); }} else {{ send(out, 0); }} }}"
        )
        assert outputs_of(run) == [1 if expected else 0]
