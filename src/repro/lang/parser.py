"""Recursive-descent parser for the RC language.

Grammar (EBNF, ``[]`` optional, ``{}`` repetition)::

    program   = { procdecl | externdecl }
    externdecl= "extern" "proc" IDENT "(" [ params ] ")" ";"
    procdecl  = "proc" IDENT "(" [ params ] ")" block
    params    = IDENT { "," IDENT }
    block     = "{" { stmt } "}"
    stmt      = "var" IDENT [ "[" INT "]" ] [ "=" expr ] ";"
              | "if" "(" expr ")" block [ "else" ( block | ifstmt ) ]
              | "while" "(" expr ")" block
              | "for" "(" [ simple ] ";" [ expr ] ";" [ simple ] ")" block
              | "switch" "(" expr ")" "{" { case } [ defaultcase ] "}"
              | "return" [ expr ] ";"
              | "exit" ";" | "break" ";" | "continue" ";" | "skip" ";"
              | simple ";"
    simple    = lvalue "=" expr            (assignment; rhs may be a call)
              | IDENT "(" [ args ] ")"     (call statement)
    case      = "case" (INT | STRING) ":" { stmt }
    defaultcase = "default" ":" { stmt }

Expressions use standard C precedence:
``||`` < ``&&`` < ``== !=`` < ``< <= > >=`` < ``+ -`` < ``* / %`` <
unary (``- ! & *``) < postfix (``[...]``, ``.field``, call) < primary.
The binary levels are one table, parsed by precedence climbing.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind

#: Binary operators: token kind -> (operator, precedence level).  A
#: higher level binds tighter; every level is left-associative.
_BINARY = {
    TokenKind.OR: ("||", 1),
    TokenKind.AND: ("&&", 2),
    TokenKind.EQ: ("==", 3),
    TokenKind.NE: ("!=", 3),
    TokenKind.LT: ("<", 4),
    TokenKind.LE: ("<=", 4),
    TokenKind.GT: (">", 4),
    TokenKind.GE: (">=", 4),
    TokenKind.PLUS: ("+", 5),
    TokenKind.MINUS: ("-", 5),
    TokenKind.STAR: ("*", 6),
    TokenKind.SLASH: ("/", 6),
    TokenKind.PERCENT: ("%", 6),
}

_UNARY = {TokenKind.MINUS: "-", TokenKind.NOT: "!", TokenKind.AMP: "&", TokenKind.STAR: "*"}

#: Statements that are one keyword and a semicolon.
_KEYWORD_STMTS = {
    TokenKind.EXIT: ast.Exit,
    TokenKind.BREAK: ast.Break,
    TokenKind.CONTINUE: ast.Continue,
    TokenKind.SKIP: ast.Skip,
}


# The kinds the parser tests, as module globals.  On CPython 3.11 every
# ``TokenKind.X`` read goes through the enum metaclass's ``__getattr__``
# hook, about ten times the cost of reading a global, and the parser
# tests a kind at nearly every token.
_IDENT, _INT, _STRING, _TRUE, _FALSE, _TOP = (
    TokenKind.IDENT, TokenKind.INT, TokenKind.STRING, TokenKind.TRUE, TokenKind.FALSE,
    TokenKind.TOP,
)
_PROC, _EXTERN, _VAR, _IF, _ELSE, _WHILE, _FOR, _SWITCH, _CASE, _DEFAULT, _RETURN = (
    TokenKind.PROC, TokenKind.EXTERN, TokenKind.VAR, TokenKind.IF, TokenKind.ELSE,
    TokenKind.WHILE, TokenKind.FOR, TokenKind.SWITCH, TokenKind.CASE, TokenKind.DEFAULT,
    TokenKind.RETURN,
)
_LPAREN, _RPAREN, _LBRACE, _RBRACE, _LBRACKET, _RBRACKET = (
    TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.LBRACE, TokenKind.RBRACE,
    TokenKind.LBRACKET, TokenKind.RBRACKET,
)
_COMMA, _SEMI, _COLON, _DOT, _ASSIGN, _MINUS, _EOF = (
    TokenKind.COMMA, TokenKind.SEMI, TokenKind.COLON, TokenKind.DOT, TokenKind.ASSIGN,
    TokenKind.MINUS, TokenKind.EOF,
)


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.Program`."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self) -> Token:
        # The list ends in EOF, and _advance never moves past it.
        return self._tokens[self._pos]

    def _at(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not _EOF:
            self._pos += 1
        return token

    def _expect(self, kind: TokenKind) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise ParseError(f"expected {kind.value!r}, found {token}", token.location)
        return self._advance()

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    # -- top level -----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        procs: dict[str, ast.Proc] = {}
        externs: dict[str, ast.ExternDecl] = {}
        while not self._at(_EOF):
            if self._at(_EXTERN):
                decl = self._parse_extern()
                if decl.name in externs or decl.name in procs:
                    raise ParseError(f"duplicate declaration of {decl.name!r}", decl.location)
                externs[decl.name] = decl
            else:
                proc = self._parse_proc()
                if proc.name in procs or proc.name in externs:
                    raise ParseError(f"duplicate declaration of {proc.name!r}", proc.location)
                procs[proc.name] = proc
        return ast.Program(procs=procs, externs=externs)

    def _parse_extern(self) -> ast.ExternDecl:
        location = self._expect(_EXTERN).location
        self._expect(_PROC)
        name = self._expect(_IDENT)
        params = self._parse_params()
        self._expect(_SEMI)
        return ast.ExternDecl(str(name.value), params, location)

    def _parse_proc(self) -> ast.Proc:
        location = self._expect(_PROC).location
        name = self._expect(_IDENT)
        params = self._parse_params()
        body = self._parse_block()
        return ast.Proc(str(name.value), params, body, location)

    def _parse_params(self) -> tuple[str, ...]:
        self._expect(_LPAREN)
        params: list[str] = []
        if not self._at(_RPAREN):
            while True:
                token = self._expect(_IDENT)
                if token.value in params:
                    raise ParseError(f"duplicate parameter {token.value!r}", token.location)
                params.append(str(token.value))
                if self._accept(_COMMA) is None:
                    break
        self._expect(_RPAREN)
        return tuple(params)

    # -- statements ----------------------------------------------------------

    def _parse_block(self) -> tuple[ast.Stmt, ...]:
        self._expect(_LBRACE)
        stmts: list[ast.Stmt] = []
        while not self._at(_RBRACE):
            stmts.append(self._parse_stmt())
        self._expect(_RBRACE)
        return tuple(stmts)

    def _parse_stmt(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is _VAR:
            return self._parse_var_decl()
        if kind is _IF:
            return self._parse_if()
        if kind is _WHILE:
            return self._parse_while()
        if kind is _FOR:
            return self._parse_for()
        if kind is _SWITCH:
            return self._parse_switch()
        if kind is _RETURN:
            self._advance()
            value = None
            if not self._at(_SEMI):
                value = self._parse_expr()
            self._expect(_SEMI)
            return ast.Return(value, token.location)
        if kind in _KEYWORD_STMTS:
            self._advance()
            self._expect(_SEMI)
            return _KEYWORD_STMTS[kind](token.location)
        stmt = self._parse_simple_stmt()
        self._expect(_SEMI)
        return stmt

    def _parse_var_decl(self) -> ast.VarDecl:
        location = self._expect(_VAR).location
        name = self._expect(_IDENT)
        array_size = None
        if self._accept(_LBRACKET) is not None:
            size = self._expect(_INT)
            self._expect(_RBRACKET)
            array_size = int(size.value)
            if array_size <= 0:
                raise ParseError("array size must be positive", size.location)
        init = None
        if self._accept(_ASSIGN) is not None:
            if array_size is not None:
                raise ParseError("array declarations cannot have initializers", location)
            init = self._parse_expr()
        self._expect(_SEMI)
        return ast.VarDecl(str(name.value), init, array_size, location)

    def _parse_if(self) -> ast.If:
        location = self._expect(_IF).location
        self._expect(_LPAREN)
        cond = self._parse_expr()
        self._expect(_RPAREN)
        then_body = self._parse_block()
        else_body: tuple[ast.Stmt, ...] = ()
        if self._accept(_ELSE) is not None:
            if self._at(_IF):
                else_body = (self._parse_if(),)
            else:
                else_body = self._parse_block()
        return ast.If(cond, then_body, else_body, location)

    def _parse_while(self) -> ast.While:
        location = self._expect(_WHILE).location
        self._expect(_LPAREN)
        cond = self._parse_expr()
        self._expect(_RPAREN)
        body = self._parse_block()
        return ast.While(cond, body, location)

    def _parse_for(self) -> ast.For:
        location = self._expect(_FOR).location
        self._expect(_LPAREN)
        init = None
        if self._at(_VAR):
            init = self._parse_var_decl()  # consumes its own semicolon
        elif not self._at(_SEMI):
            init = self._parse_simple_stmt()
            self._expect(_SEMI)
        else:
            self._expect(_SEMI)
        cond = None
        if not self._at(_SEMI):
            cond = self._parse_expr()
        self._expect(_SEMI)
        step = None
        if not self._at(_RPAREN):
            step = self._parse_simple_stmt()
        self._expect(_RPAREN)
        body = self._parse_block()
        return ast.For(init, cond, step, body, location)

    def _parse_switch(self) -> ast.Switch:
        location = self._expect(_SWITCH).location
        self._expect(_LPAREN)
        subject = self._parse_expr()
        self._expect(_RPAREN)
        self._expect(_LBRACE)
        cases: list[ast.SwitchCase] = []
        default: tuple[ast.Stmt, ...] = ()
        seen_default = False
        seen_values: set[int | str] = set()
        while not self._at(_RBRACE):
            if self._at(_CASE):
                case_loc = self._advance().location
                if seen_default:
                    raise ParseError("case after default", case_loc)
                value_token = self._peek()
                if value_token.kind is _INT:
                    value: int | str = int(self._advance().value)
                elif value_token.kind is _STRING:
                    value = str(self._advance().value)
                elif value_token.kind is _MINUS:
                    self._advance()
                    value = -int(self._expect(_INT).value)
                else:
                    raise ParseError("case label must be an integer or string literal", value_token.location)
                if value in seen_values:
                    raise ParseError(f"duplicate case label {value!r}", case_loc)
                seen_values.add(value)
                self._expect(_COLON)
                body = self._parse_case_body()
                cases.append(ast.SwitchCase(value, body, case_loc))
            elif self._at(_DEFAULT):
                default_loc = self._advance().location
                if seen_default:
                    raise ParseError("duplicate default case", default_loc)
                seen_default = True
                self._expect(_COLON)
                default = self._parse_case_body()
            else:
                raise ParseError(f"expected 'case' or 'default', found {self._peek()}", self._peek().location)
        self._expect(_RBRACE)
        return ast.Switch(subject, tuple(cases), default, location)

    def _parse_case_body(self) -> tuple[ast.Stmt, ...]:
        stmts: list[ast.Stmt] = []
        while not (
            self._at(_CASE) or self._at(_DEFAULT) or self._at(_RBRACE)
        ):
            stmts.append(self._parse_stmt())
        return tuple(stmts)

    def _parse_simple_stmt(self) -> ast.Stmt:
        """An assignment or a call statement (no trailing semicolon)."""
        location = self._peek().location
        expr = self._parse_expr()
        if self._accept(_ASSIGN) is not None:
            if not ast.is_lvalue(expr):
                raise ParseError("assignment target is not an lvalue", location)
            value = self._parse_expr()
            if isinstance(value, ast.CallExpr):
                return ast.CallStmt(value.callee, value.args, expr, location)
            return ast.Assign(expr, value, location)
        if isinstance(expr, ast.CallExpr):
            return ast.CallStmt(expr.callee, expr.args, None, location)
        raise ParseError("expression statement must be a call or assignment", location)

    # -- expressions ---------------------------------------------------------

    def _parse_expr(self, min_level: int = 1) -> ast.Expr:
        """Precedence climbing: operands joined by binary operators of
        level ``min_level`` or above."""
        left = self._parse_unary()
        while True:
            token = self._tokens[self._pos]
            binary = _BINARY.get(token.kind)
            if binary is None or binary[1] < min_level:
                return left
            self._pos += 1
            op, level = binary
            right = self._parse_expr(level + 1)
            left = ast.Binary(op, left, right, token.location)

    def _parse_unary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        op = _UNARY.get(token.kind)
        if op is None:
            return self._parse_postfix()
        self._pos += 1
        operand = self._parse_unary()
        if op == "&" and not ast.is_lvalue(operand):
            raise ParseError("'&' requires an lvalue operand", token.location)
        return ast.Unary(op, operand, token.location)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._tokens[self._pos]
            if token.kind is _LBRACKET:
                self._advance()
                index = self._parse_expr()
                self._expect(_RBRACKET)
                expr = ast.Index(expr, index, token.location)
            elif token.kind is _DOT:
                self._advance()
                field = self._expect(_IDENT)
                expr = ast.Field(expr, str(field.value), token.location)
            elif token.kind is _LPAREN and isinstance(expr, ast.Name):
                args = self._parse_args()
                expr = ast.CallExpr(expr.ident, args, token.location)
            else:
                return expr

    def _parse_args(self) -> tuple[ast.Expr, ...]:
        self._expect(_LPAREN)
        args: list[ast.Expr] = []
        if not self._at(_RPAREN):
            while True:
                args.append(self._parse_expr())
                if self._accept(_COMMA) is None:
                    break
        self._expect(_RPAREN)
        return tuple(args)

    def _parse_primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        kind = token.kind
        if kind is _LPAREN:
            self._pos += 1
            expr = self._parse_expr()
            self._expect(_RPAREN)
            return expr
        if kind is _IDENT:
            node = ast.Name(str(token.value), token.location)
        elif kind is _INT:
            node = ast.IntLit(int(token.value), token.location)
        elif kind is _STRING:
            node = ast.StrLit(str(token.value), token.location)
        elif kind is _TRUE or kind is _FALSE:
            node = ast.BoolLit(kind is _TRUE, token.location)
        elif kind is _TOP:
            node = ast.AbstractLit(token.location)
        else:
            raise ParseError(f"expected expression, found {token}", token.location)
        self._pos += 1
        return node


def parse_program(source: str) -> ast.Program:
    """Parse RC source text into a :class:`repro.lang.ast.Program`."""
    parser = Parser(tokenize(source))
    return parser.parse_program()


def parse_expr(source: str) -> ast.Expr:
    """Parse a single RC expression (handy in tests and the REPL examples)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expr()
    trailing = parser._peek()
    if trailing.kind is not _EOF:
        raise ParseError(f"unexpected trailing input {trailing}", trailing.location)
    return expr
