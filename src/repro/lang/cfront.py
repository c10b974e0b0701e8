"""A pycparser-based front end for a subset of real C.

The paper's prototype tool closed open programs *written in the C
programming language*.  This module mirrors that ingestion path: it
translates a supported C subset into RC ASTs, after which the entire
pipeline (normalize → CFG → close → explore) is identical.

Supported subset:

* function definitions and ``extern``-style prototypes (a prototype with
  no body becomes an RC extern — an environment procedure);
* scalar declarations with optional initializers, constant-size arrays,
  ``struct`` variables (field-insensitive records);
* assignments including compound forms (``+=`` ...), ``++``/``--``;
* ``if``/``while``/``for``/``switch``/``break``/``continue``/``return``;
* the operators ``+ - * / % == != < <= > >= && || !``, unary ``- & *``;
* calls, including the VeriSoft-style primitives ``VS_toss``,
  ``VS_assert`` and the communication operations ``send``/``recv``/
  ``sem_p``/... (spelled as ordinary C function calls);
* ``.`` and ``->`` member access, array indexing.

Anything else (gotos, function pointers, casts with semantic content,
varargs, preprocessor output beyond plain code) raises
:class:`~repro.lang.errors.CFrontError`.  Run the preprocessor first;
``VS_toss``/``VS_assert``/channel primitives need no declarations.
"""

from __future__ import annotations

from . import ast
from .errors import SYNTHETIC, CFrontError, SourceLocation

try:  # pycparser is an optional dependency.
    from pycparser import c_ast, c_parser

    HAVE_PYCPARSER = True
except ImportError:  # pragma: no cover - exercised only without pycparser
    HAVE_PYCPARSER = False


_BINARY_OPS = {
    "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
}

_COMPOUND_ASSIGN = {
    "+=": "+",
    "-=": "-",
    "*=": "*",
    "/=": "/",
    "%=": "%",
}

#: Names treated as built-in even though C sees plain function calls.
_PRIMITIVES = {
    "send", "recv", "poll", "sem_p", "sem_v", "read", "write",
    "VS_toss", "VS_assert", "channel", "semaphore", "shared", "record",
}


def _loc(node) -> SourceLocation:
    coord = getattr(node, "coord", None)
    if coord is None:
        return SYNTHETIC
    return SourceLocation(coord.line or 0, coord.column or 0)


class _Translator:
    def __init__(self):
        if not HAVE_PYCPARSER:
            raise CFrontError(
                "pycparser is not installed; install the 'cfront' extra to "
                "translate C sources"
            )

    # -- top level ----------------------------------------------------------------

    def translate(self, c_source: str) -> ast.Program:
        parser = c_parser.CParser()
        try:
            unit = parser.parse(c_source)
        except Exception as err:  # pycparser raises plain Exceptions
            raise CFrontError(f"C parse error: {err}") from err
        procs: dict[str, ast.Proc] = {}
        externs: dict[str, ast.ExternDecl] = {}
        for item in unit.ext:
            if isinstance(item, c_ast.FuncDef):
                proc = self._func_def(item)
                procs[proc.name] = proc
            elif isinstance(item, c_ast.Decl) and isinstance(item.type, c_ast.FuncDecl):
                name = item.name
                if name in _PRIMITIVES:
                    continue  # primitive prototypes need no declaration
                params = self._param_names(item.type)
                externs[name] = ast.ExternDecl(name, params, _loc(item))
            elif isinstance(item, c_ast.Typedef):
                continue  # layout-only; records are structural in RC
            elif isinstance(item, c_ast.Decl) and item.name is None:
                continue  # bare struct/union/enum declaration: layout-only
            elif isinstance(item, c_ast.Decl):
                raise CFrontError(
                    f"global variables are not supported ({item.name}); RC "
                    "processes share data only through communication objects",
                    _loc(item),
                )
            else:
                raise CFrontError(
                    f"unsupported top-level construct {type(item).__name__}", _loc(item)
                )
        # Functions defined later in the file are not externs.
        for name in list(externs):
            if name in procs:
                del externs[name]
        return ast.Program(procs=procs, externs=externs)

    def _param_names(self, func_decl) -> tuple[str, ...]:
        params: list[str] = []
        if func_decl.args is None:
            return ()
        for param in func_decl.args.params:
            if isinstance(param, c_ast.EllipsisParam):
                raise CFrontError("varargs are not supported", _loc(param))
            name = getattr(param, "name", None)
            if name is None:
                # `void` parameter list.
                if self._is_void(param):
                    continue
                raise CFrontError("unnamed parameter", _loc(param))
            params.append(name)
        return tuple(params)

    @staticmethod
    def _is_void(param) -> bool:
        type_ = getattr(param, "type", None)
        names = getattr(getattr(type_, "type", None), "names", None)
        return names == ["void"]

    def _func_def(self, node) -> ast.Proc:
        name = node.decl.name
        if not isinstance(node.decl.type, c_ast.FuncDecl):
            # pycparser parses `int f { ... }` and `int *f { ... }` as
            # definitions whose declarator is not a function.
            raise CFrontError(
                f"function definition {name} has no parameter list", _loc(node)
            )
        params = self._param_names(node.decl.type)
        body = self._compound(node.body)
        return ast.Proc(name, params, tuple(body), _loc(node))

    # -- statements -----------------------------------------------------------------

    def _compound(self, node) -> list[ast.Stmt]:
        if node is None or node.block_items is None:
            return []
        out: list[ast.Stmt] = []
        for item in node.block_items:
            out.extend(self._stmt(item))
        return out

    def _stmt_block(self, node) -> tuple[ast.Stmt, ...]:
        if node is None:
            return ()
        if isinstance(node, c_ast.Compound):
            return tuple(self._compound(node))
        return tuple(self._stmt(node))

    def _stmt(self, node) -> list[ast.Stmt]:
        if isinstance(node, c_ast.Decl):
            return [self._decl(node)]
        if isinstance(node, c_ast.DeclList):
            return [self._decl(decl) for decl in node.decls]
        if isinstance(node, c_ast.Assignment):
            return [self._assignment(node)]
        if isinstance(node, c_ast.UnaryOp) and node.op in ("p++", "p--", "++", "--"):
            return [self._incdec(node)]
        if isinstance(node, c_ast.FuncCall):
            callee, args = self._call_parts(node)
            return [ast.CallStmt(callee, args, None, _loc(node))]
        if isinstance(node, c_ast.If):
            cond = self._expr(node.cond)
            return [
                ast.If(
                    cond,
                    self._stmt_block(node.iftrue),
                    self._stmt_block(node.iffalse),
                    _loc(node),
                )
            ]
        if isinstance(node, c_ast.While):
            return [ast.While(self._expr(node.cond), self._stmt_block(node.stmt), _loc(node))]
        if isinstance(node, c_ast.DoWhile):
            body = self._stmt_block(node.stmt)
            # do { B } while (c)  ==>  B; while (c) { B }
            return list(body) + [ast.While(self._expr(node.cond), body, _loc(node))]
        if isinstance(node, c_ast.For):
            init: ast.Stmt | None = None
            if node.init is not None:
                init_stmts = self._stmt(node.init)
                if len(init_stmts) != 1:
                    raise CFrontError("for-init must be a single statement", _loc(node))
                init = init_stmts[0]
            cond = self._expr(node.cond) if node.cond is not None else None
            step: ast.Stmt | None = None
            if node.next is not None:
                step_stmts = self._stmt(node.next)
                if len(step_stmts) != 1:
                    raise CFrontError("for-step must be a single statement", _loc(node))
                step = step_stmts[0]
            return [ast.For(init, cond, step, self._stmt_block(node.stmt), _loc(node))]
        if isinstance(node, c_ast.Switch):
            return [self._switch(node)]
        if isinstance(node, c_ast.Return):
            value = self._expr(node.expr) if node.expr is not None else None
            return [ast.Return(value, _loc(node))]
        if isinstance(node, c_ast.Break):
            return [ast.Break(_loc(node))]
        if isinstance(node, c_ast.Continue):
            return [ast.Continue(_loc(node))]
        if isinstance(node, c_ast.EmptyStatement):
            return [ast.Skip(_loc(node))]
        if isinstance(node, c_ast.Compound):
            return self._compound(node)
        raise CFrontError(f"unsupported statement {type(node).__name__}", _loc(node))

    def _decl(self, node) -> ast.Stmt:
        if isinstance(node.type, c_ast.ArrayDecl):
            size = node.type.dim
            if not isinstance(size, c_ast.Constant):
                raise CFrontError("array size must be a constant", _loc(node))
            if node.init is not None:
                raise CFrontError("array initializers are not supported", _loc(node))
            return ast.VarDecl(node.name, None, int(size.value, 0), _loc(node))
        init = self._expr(node.init) if node.init is not None else None
        if init is None and self._is_struct_value(node.type):
            # `struct s x;` declares a by-value record: start it empty.
            init = ast.CallExpr("record", (), _loc(node))
        return ast.VarDecl(node.name, init, None, _loc(node))

    @staticmethod
    def _is_struct_value(type_node) -> bool:
        return isinstance(type_node, c_ast.TypeDecl) and isinstance(
            type_node.type, (c_ast.Struct, c_ast.Union)
        )

    def _assignment(self, node) -> ast.Stmt:
        target = self._expr(node.lvalue)
        if not ast.is_lvalue(target):
            raise CFrontError("assignment target is not an lvalue", _loc(node))
        value = self._expr(node.rvalue)
        if node.op == "=":
            if isinstance(value, ast.CallExpr):
                return ast.CallStmt(value.callee, value.args, target, _loc(node))
            return ast.Assign(target, value, _loc(node))
        base_op = _COMPOUND_ASSIGN.get(node.op)
        if base_op is None:
            raise CFrontError(f"unsupported assignment operator {node.op!r}", _loc(node))
        return ast.Assign(
            target, ast.Binary(base_op, target, value, _loc(node)), _loc(node)
        )

    def _incdec(self, node) -> ast.Stmt:
        target = self._expr(node.expr)
        op = "+" if "++" in node.op else "-"
        return ast.Assign(
            target,
            ast.Binary(op, target, ast.IntLit(1, _loc(node)), _loc(node)),
            _loc(node),
        )

    def _switch(self, node) -> ast.Stmt:
        subject = self._expr(node.cond)
        cases: list[ast.SwitchCase] = []
        default: tuple[ast.Stmt, ...] = ()
        if not isinstance(node.stmt, c_ast.Compound) or node.stmt.block_items is None:
            raise CFrontError("switch body must be a compound statement", _loc(node))
        for item in node.stmt.block_items:
            if isinstance(item, c_ast.Case):
                label = self._expr(item.expr)
                if isinstance(label, ast.IntLit):
                    value: int | str = label.value
                elif isinstance(label, ast.Unary) and label.op == "-" and isinstance(
                    label.operand, ast.IntLit
                ):
                    value = -label.operand.value
                elif isinstance(label, ast.StrLit):
                    value = label.value
                else:
                    raise CFrontError("case label must be a constant", _loc(item))
                body = self._case_body(item.stmts)
                cases.append(ast.SwitchCase(value, body, _loc(item)))
            elif isinstance(item, c_ast.Default):
                default = self._case_body(item.stmts)
            else:
                raise CFrontError(
                    "statements between switch cases are not supported", _loc(item)
                )
        return ast.Switch(subject, tuple(cases), default, _loc(node))

    def _case_body(self, stmts) -> tuple[ast.Stmt, ...]:
        out: list[ast.Stmt] = []
        for stmt in stmts or []:
            if isinstance(stmt, c_ast.Break):
                # RC switch arms never fall through; a trailing break is
                # implicit.  (Fall-through between arms is unsupported.)
                break
            out.extend(self._stmt(stmt))
        return tuple(out)

    # -- expressions ---------------------------------------------------------------------

    def _call_parts(self, node) -> tuple[str, tuple[ast.Expr, ...]]:
        if not isinstance(node.name, c_ast.ID):
            raise CFrontError("function pointers are not supported", _loc(node))
        args: tuple[ast.Expr, ...] = ()
        if node.args is not None:
            args = tuple(self._expr(arg) for arg in node.args.exprs)
        return node.name.name, args

    def _expr(self, node) -> ast.Expr:
        if isinstance(node, c_ast.Constant):
            if node.type in ("int", "long int", "unsigned int", "long long int"):
                return ast.IntLit(int(node.value.rstrip("uUlL"), 0), _loc(node))
            if node.type == "char":
                return ast.StrLit(node.value.strip("'"), _loc(node))
            if node.type == "string":
                return ast.StrLit(node.value.strip('"'), _loc(node))
            raise CFrontError(f"unsupported constant type {node.type!r}", _loc(node))
        if isinstance(node, c_ast.ID):
            return ast.Name(node.name, _loc(node))
        if isinstance(node, c_ast.BinaryOp):
            if node.op not in _BINARY_OPS:
                raise CFrontError(f"unsupported binary operator {node.op!r}", _loc(node))
            return ast.Binary(
                node.op, self._expr(node.left), self._expr(node.right), _loc(node)
            )
        if isinstance(node, c_ast.UnaryOp):
            if node.op == "-":
                return ast.Unary("-", self._expr(node.expr), _loc(node))
            if node.op == "+":
                return self._expr(node.expr)
            if node.op == "!":
                return ast.Unary("!", self._expr(node.expr), _loc(node))
            if node.op == "&":
                return ast.Unary("&", self._expr(node.expr), _loc(node))
            if node.op == "*":
                return ast.Unary("*", self._expr(node.expr), _loc(node))
            if node.op == "sizeof":
                raise CFrontError("sizeof is not supported", _loc(node))
            raise CFrontError(f"unsupported unary operator {node.op!r}", _loc(node))
        if isinstance(node, c_ast.ArrayRef):
            return ast.Index(self._expr(node.name), self._expr(node.subscript), _loc(node))
        if isinstance(node, c_ast.StructRef):
            base = self._expr(node.name)
            if node.type == "->":
                base = ast.Unary("*", base, _loc(node))
            return ast.Field(base, node.field.name, _loc(node))
        if isinstance(node, c_ast.FuncCall):
            callee, args = self._call_parts(node)
            return ast.CallExpr(callee, args, _loc(node))
        if isinstance(node, c_ast.TernaryOp):
            raise CFrontError(
                "the ?: operator is not supported; rewrite as if/else", _loc(node)
            )
        if isinstance(node, c_ast.Cast):
            # Value-preserving casts are dropped (RC is untyped).
            return self._expr(node.expr)
        raise CFrontError(f"unsupported expression {type(node).__name__}", _loc(node))


def c_to_program(c_source: str) -> ast.Program:
    """Translate a C translation unit (already preprocessed) into an RC
    program ready for :func:`repro.closing.close_program`."""
    return _Translator().translate(c_source)
