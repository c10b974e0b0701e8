"""Normalization of surface RC programs into *core form*.

Core form is the shape assumed by Section 4 of the paper and consumed by
the CFG builder:

* every call appears as a statement (``CallStmt``), never inside an
  expression, and **every call argument is an atom** — a variable name or
  a literal ("we assume that each argument of a procedure call is a
  variable");
* ``for`` loops are desugared to ``while`` loops (``continue`` is
  rewritten to run the step first);
* ``while``/``if``/``switch`` guards contain no calls — calls in a loop
  guard are re-evaluated each iteration via the standard
  ``while (true) {{ t = f(); if (!cond) break; ... }}`` rewrite;
* all local names within a procedure are unique (alpha-renaming), so a
  variable name denotes exactly one memory location per activation,
  matching the paper's semantic notion of "variable";
* every use of a name refers to a declared parameter or local —
  undeclared uses are rejected.

The normalizer introduces temporaries named ``_t0``, ``_t1``, ... chosen
to avoid every identifier occurring in the procedure.

AST nodes are frozen, so a node whose normal form equals it is returned
as it is: a name that keeps its identifier, and an expression,
assignment, declaration or return whose children all came back as the
same objects.  Only what normalization changes is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .errors import SYNTHETIC, NormalizationError


@dataclass
class _Scope:
    """A lexical scope mapping source names to unique names."""

    parent: "_Scope | None" = None
    bindings: dict[str, str] = field(default_factory=dict)

    def lookup(self, name: str) -> str | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None


class _ProcNormalizer:
    """Normalizes a single procedure."""

    def __init__(self, proc: ast.Proc, known_callees: set[str]):
        self._proc = proc
        self._known_callees = known_callees
        self._used_names: set[str] = set(proc.params)
        for stmt in ast.walk_stmts(proc.body):
            if isinstance(stmt, ast.VarDecl):
                self._used_names.add(stmt.name)
        self._temp_counter = 0
        self._unique_counter = 0

    # -- name management ----------------------------------------------------

    def _fresh_temp(self) -> str:
        while True:
            name = f"_t{self._temp_counter}"
            self._temp_counter += 1
            if name not in self._used_names:
                self._used_names.add(name)
                return name

    def _fresh_unique(self, base: str) -> str:
        if base not in self._used_names:
            self._used_names.add(base)
            return base
        while True:
            self._unique_counter += 1
            name = f"{base}_{self._unique_counter}"
            if name not in self._used_names:
                self._used_names.add(name)
                return name

    # -- driver --------------------------------------------------------------

    def run(self) -> ast.Proc:
        scope = _Scope()
        # Parameters keep their names; they are declared first so later
        # locals with the same name get renamed.
        declared: set[str] = set()
        for param in self._proc.params:
            scope.bindings[param] = param
            declared.add(param)
        self._used_names = set(self._proc.params)
        body = self._normalize_block(self._proc.body, scope, loop_step=None)
        return ast.Proc(self._proc.name, self._proc.params, tuple(body), self._proc.location)

    # -- statements ----------------------------------------------------------

    def _normalize_block(
        self,
        stmts: tuple[ast.Stmt, ...],
        scope: _Scope,
        loop_step: ast.Stmt | None,
    ) -> list[ast.Stmt]:
        inner = _Scope(parent=scope)
        out: list[ast.Stmt] = []
        for stmt in stmts:
            out.extend(self._normalize_stmt(stmt, inner, loop_step))
        return out

    def _normalize_stmt(
        self,
        stmt: ast.Stmt,
        scope: _Scope,
        loop_step: ast.Stmt | None,
    ) -> list[ast.Stmt]:
        if isinstance(stmt, ast.VarDecl):
            out: list[ast.Stmt] = []
            init = stmt.init
            if init is not None:
                init = self._normalize_expr(init, scope, out)
            unique = self._fresh_unique(stmt.name)
            scope.bindings[stmt.name] = unique
            if unique != stmt.name or init is not stmt.init:
                stmt = ast.VarDecl(unique, init, stmt.array_size, stmt.location)
            out.append(stmt)
            return out

        if isinstance(stmt, ast.Assign):
            out = []
            value = stmt.value
            if isinstance(value, ast.CallExpr):
                args = self._normalize_args(value.callee, value.args, scope, out)
                target = self._normalize_lvalue(stmt.target, scope, out)
                self._check_callee(value.callee, stmt.location)
                out.append(
                    ast.CallStmt(value.callee, tuple(args), target, stmt.location)
                )
                return out
            value = self._normalize_expr(value, scope, out)
            target = self._normalize_lvalue(stmt.target, scope, out)
            if target is not stmt.target or value is not stmt.value:
                stmt = ast.Assign(target, value, stmt.location)
            out.append(stmt)
            return out

        if isinstance(stmt, ast.CallStmt):
            out = []
            args = self._normalize_args(stmt.callee, stmt.args, scope, out)
            result = None
            if stmt.result is not None:
                result = self._normalize_lvalue(stmt.result, scope, out)
            self._check_callee(stmt.callee, stmt.location)
            out.append(ast.CallStmt(stmt.callee, tuple(args), result, stmt.location))
            return out

        if isinstance(stmt, ast.If):
            out = []
            cond = self._normalize_expr(stmt.cond, scope, out)
            then_body = self._normalize_block(stmt.then_body, scope, loop_step)
            else_body = self._normalize_block(stmt.else_body, scope, loop_step)
            out.append(ast.If(cond, tuple(then_body), tuple(else_body), stmt.location))
            return out

        if isinstance(stmt, ast.While):
            return self._normalize_while(stmt, scope)

        if isinstance(stmt, ast.For):
            return self._normalize_for(stmt, scope)

        if isinstance(stmt, ast.Switch):
            out = []
            subject = self._normalize_expr(stmt.subject, scope, out)
            cases = tuple(
                ast.SwitchCase(
                    case.value,
                    tuple(self._normalize_block(case.body, scope, loop_step)),
                    case.location,
                )
                for case in stmt.cases
            )
            default = tuple(self._normalize_block(stmt.default, scope, loop_step))
            out.append(ast.Switch(subject, cases, default, stmt.location))
            return out

        if isinstance(stmt, ast.Return):
            out = []
            value = stmt.value
            if value is not None:
                value = self._normalize_expr(value, scope, out)
            if value is not stmt.value:
                stmt = ast.Return(value, stmt.location)
            out.append(stmt)
            return out

        if isinstance(stmt, ast.Continue):
            # Inside a desugared for-loop, continue must run the step first.
            if loop_step is not None:
                return [loop_step, stmt]
            return [stmt]

        if isinstance(stmt, (ast.Exit, ast.Break, ast.Skip)):
            return [stmt]

        raise NormalizationError(
            f"unknown statement node {type(stmt).__name__}",
            getattr(stmt, "location", SYNTHETIC),
        )

    def _normalize_while(self, stmt: ast.While, scope: _Scope) -> list[ast.Stmt]:
        hoisted: list[ast.Stmt] = []
        cond = self._normalize_expr(stmt.cond, scope, hoisted)
        if not hoisted:
            body = self._normalize_block(stmt.body, scope, loop_step=None)
            return [ast.While(cond, tuple(body), stmt.location)]
        # The guard contained calls: re-evaluate them on every iteration.
        body = self._normalize_block(stmt.body, scope, loop_step=None)
        guard = ast.If(
            ast.Unary("!", cond, stmt.location),
            (ast.Break(stmt.location),),
            (),
            stmt.location,
        )
        loop_body = tuple(hoisted) + (guard,) + tuple(body)
        return [ast.While(ast.BoolLit(True, stmt.location), loop_body, stmt.location)]

    def _normalize_for(self, stmt: ast.For, scope: _Scope) -> list[ast.Stmt]:
        # A fresh scope so `for (var i = 0; ...)` does not leak `i`.
        for_scope = _Scope(parent=scope)
        out: list[ast.Stmt] = []
        if stmt.init is not None:
            out.extend(self._normalize_stmt(stmt.init, for_scope, loop_step=None))
        cond = stmt.cond if stmt.cond is not None else ast.BoolLit(True, stmt.location)
        step = stmt.step
        # Normalize the step once to know what to inject at continues; the
        # step may not declare variables.
        step_stmts: list[ast.Stmt] = []
        if step is not None:
            step_stmts = self._normalize_stmt(step, for_scope, loop_step=None)
            if len(step_stmts) != 1:
                raise NormalizationError(
                    "for-loop step must normalize to a single statement "
                    "(avoid calls with complex arguments in the step)",
                    stmt.location,
                )
        loop_step = step_stmts[0] if step_stmts else None
        hoisted: list[ast.Stmt] = []
        cond_norm = self._normalize_expr(cond, for_scope, hoisted)
        body = self._normalize_block(stmt.body, for_scope, loop_step=loop_step)
        body.extend(step_stmts)
        if hoisted:
            guard = ast.If(
                ast.Unary("!", cond_norm, stmt.location),
                (ast.Break(stmt.location),),
                (),
                stmt.location,
            )
            loop_body = tuple(hoisted) + (guard,) + tuple(body)
            out.append(ast.While(ast.BoolLit(True, stmt.location), loop_body, stmt.location))
        else:
            out.append(ast.While(cond_norm, tuple(body), stmt.location))
        return out

    # -- expressions ---------------------------------------------------------

    def _check_callee(self, callee: str, location) -> None:
        if callee not in self._known_callees:
            raise NormalizationError(f"call to undeclared procedure {callee!r}", location)

    def _normalize_name(self, expr: ast.Name, scope: _Scope) -> ast.Name:
        unique = scope.lookup(expr.ident)
        if unique is None:
            raise NormalizationError(f"undeclared variable {expr.ident!r}", expr.location)
        if unique == expr.ident:
            return expr
        return ast.Name(unique, expr.location)

    def _normalize_lvalue(self, expr: ast.Expr, scope: _Scope, out: list[ast.Stmt]) -> ast.Expr:
        """Normalize an assignment target: rename, hoist calls in indices."""
        if isinstance(expr, ast.Name):
            return self._normalize_name(expr, scope)
        if isinstance(expr, ast.Index):
            base = self._normalize_lvalue(expr.base, scope, out)
            index = self._normalize_expr(expr.index, scope, out)
            if base is expr.base and index is expr.index:
                return expr
            return ast.Index(base, index, expr.location)
        if isinstance(expr, ast.Field):
            base = self._normalize_lvalue(expr.base, scope, out)
            if base is expr.base:
                return expr
            return ast.Field(base, expr.field, expr.location)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            operand = self._normalize_expr(expr.operand, scope, out)
            if operand is expr.operand:
                return expr
            return ast.Unary("*", operand, expr.location)
        raise NormalizationError(
            f"invalid assignment target {type(expr).__name__}",
            getattr(expr, "location", SYNTHETIC),
        )

    def _normalize_expr(self, expr: ast.Expr, scope: _Scope, out: list[ast.Stmt]) -> ast.Expr:
        """Normalize an expression, hoisting calls into ``out``."""
        if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.StrLit, ast.AbstractLit)):
            return expr
        if isinstance(expr, ast.Name):
            return self._normalize_name(expr, scope)
        if isinstance(expr, ast.Unary):
            if expr.op == "&":
                operand = self._normalize_lvalue(expr.operand, scope, out)
            else:
                operand = self._normalize_expr(expr.operand, scope, out)
            if operand is expr.operand:
                return expr
            return ast.Unary(expr.op, operand, expr.location)
        if isinstance(expr, ast.Binary):
            left = self._normalize_expr(expr.left, scope, out)
            right = self._normalize_expr(expr.right, scope, out)
            if left is expr.left and right is expr.right:
                return expr
            return ast.Binary(expr.op, left, right, expr.location)
        if isinstance(expr, ast.Index):
            base = self._normalize_expr(expr.base, scope, out)
            index = self._normalize_expr(expr.index, scope, out)
            if base is expr.base and index is expr.index:
                return expr
            return ast.Index(base, index, expr.location)
        if isinstance(expr, ast.Field):
            base = self._normalize_expr(expr.base, scope, out)
            if base is expr.base:
                return expr
            return ast.Field(base, expr.field, expr.location)
        if isinstance(expr, ast.CallExpr):
            args = self._normalize_args(expr.callee, expr.args, scope, out)
            self._check_callee(expr.callee, expr.location)
            temp = self._fresh_temp()
            out.append(ast.VarDecl(temp, None, None, expr.location))
            out.append(
                ast.CallStmt(expr.callee, tuple(args), ast.Name(temp, expr.location), expr.location)
            )
            return ast.Name(temp, expr.location)
        raise NormalizationError(
            f"unknown expression node {type(expr).__name__}",
            getattr(expr, "location", SYNTHETIC),
        )

    def _normalize_args(
        self,
        callee: str,
        args: tuple[ast.Expr, ...],
        scope: _Scope,
        out: list[ast.Stmt],
    ) -> list[ast.Expr]:
        """Atomize call arguments.

        The *object argument* of a built-in operation (e.g. the ``out`` in
        ``send(out, v)``) may be a bare name that is not a local variable:
        it then denotes a registered communication object and is lowered
        to a string atom, which the runtime resolves by name.
        """
        from ..runtime.ops import BUILTIN_OPERATIONS

        spec = BUILTIN_OPERATIONS.get(callee)
        object_arg = spec.object_arg if spec is not None else None
        normalized: list[ast.Expr] = []
        for index, arg in enumerate(args):
            if (
                index == object_arg
                and isinstance(arg, ast.Name)
                and scope.lookup(arg.ident) is None
            ):
                normalized.append(ast.StrLit(arg.ident, arg.location))
            else:
                normalized.append(self._atomize(arg, scope, out))
        return normalized

    def _atomize(self, expr: ast.Expr, scope: _Scope, out: list[ast.Stmt]) -> ast.Expr:
        """Normalize a call argument down to a literal or variable name."""
        normalized = self._normalize_expr(expr, scope, out)
        if isinstance(
            normalized, (ast.IntLit, ast.BoolLit, ast.StrLit, ast.AbstractLit, ast.Name)
        ):
            return normalized
        # `&x` arguments are kept intact: they denote the address atom of a
        # variable, which the alias analysis and runtime both understand.
        if isinstance(normalized, ast.Unary) and normalized.op == "&":
            return normalized
        temp = self._fresh_temp()
        location = getattr(expr, "location", SYNTHETIC)
        out.append(ast.VarDecl(temp, normalized, None, location))
        return ast.Name(temp, location)


def normalize_proc(proc: ast.Proc, known_callees: set[str]) -> ast.Proc:
    """Normalize one procedure to core form."""
    return _ProcNormalizer(proc, known_callees).run()


def normalize_program(program: ast.Program) -> ast.Program:
    """Normalize a whole program to core form.

    ``known_callees`` comprises the program's own procedures, its extern
    (environment) procedures, and the built-in operations of the runtime
    (communication-object operations, ``VS_toss``, ``VS_assert``, ...).
    """
    from ..runtime.ops import BUILTIN_OPERATIONS

    known = set(program.procs) | set(program.externs) | set(BUILTIN_OPERATIONS)
    procs = {name: normalize_proc(proc, known) for name, proc in program.procs.items()}
    return ast.Program(procs=procs, externs=dict(program.externs))
