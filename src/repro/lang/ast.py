"""Abstract syntax trees for the RC language.

The AST mirrors the abstract imperative language of Section 4 of the
paper: a program is a finite collection of procedures; statements are
assignments, conditionals (``if``/``while``/``for``/``switch``),
procedure calls and termination statements (``return``/``exit``).
Expressions cover integers, booleans, string atoms (symbolic message
tags), arrays, record fields and pointers (``&x`` / ``*p``), which give
the may-alias analysis something real to do.

Two node families deserve a note:

* :class:`CallExpr` may appear inside expressions in *surface* programs
  only.  The normalizer (:mod:`repro.lang.normalize`) hoists them out so
  that, in core form, calls appear solely as :class:`CallStmt`, each of
  whose arguments is a simple variable or literal — exactly the shape the
  paper assumes ("each argument of a procedure call is a variable").
* ``extern proc`` declarations declare environment procedures: calls to
  them are the open interface of the system (their results are values
  "defined by the environment" in the paper's terminology).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SYNTHETIC, SourceLocation

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Expr:
    """Base class of all expressions."""


@dataclass(frozen=True, slots=True)
class IntLit(Expr):
    value: int
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class BoolLit(Expr):
    value: bool
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class StrLit(Expr):
    """A string atom, used as a symbolic constant (message tags etc.)."""

    value: str
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class AbstractLit(Expr):
    """The erased-value literal ``top``.

    The closing transformation substitutes it for call arguments whose
    value depended on the environment (e.g. a non-preserved assertion's
    subject, or a message payload computed from an input).  It evaluates
    to the abstract value :data:`repro.runtime.values.TOP`.
    """

    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Name(Expr):
    """A variable reference (also an lvalue)."""

    ident: str
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Unary(Expr):
    """Unary operation.  ``op`` is one of ``-``, ``!``, ``&``, ``*``.

    ``&`` takes the address of an lvalue; ``*`` dereferences a pointer and
    is also an lvalue form.
    """

    op: str
    operand: Expr
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Binary(Expr):
    """Binary operation over the arithmetic/comparison/boolean operators."""

    op: str
    left: Expr
    right: Expr
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Index(Expr):
    """Array indexing ``base[index]`` (also an lvalue)."""

    base: Expr
    index: Expr
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Field(Expr):
    """Record field selection ``base.field`` (also an lvalue)."""

    base: Expr
    field: str
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class CallExpr(Expr):
    """A call in expression position (surface programs only)."""

    callee: str
    args: tuple[Expr, ...]
    location: SourceLocation = SYNTHETIC


#: Expression forms that may appear on the left of an assignment.
LVALUE_TYPES = (Name, Index, Field, Unary)


def is_lvalue(expr: Expr) -> bool:
    """Return whether ``expr`` is a valid assignment target."""
    if isinstance(expr, (Name, Index, Field)):
        return True
    return isinstance(expr, Unary) and expr.op == "*"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Stmt:
    """Base class of all statements."""


@dataclass(frozen=True, slots=True)
class VarDecl(Stmt):
    """``var x;`` / ``var x = e;`` / ``var a[n];``

    Declarations initialize to 0 (or a fresh n-element array of zeroes),
    so a declaration is semantically an assignment; the CFG builder
    represents it as one assignment node.
    """

    name: str
    init: Expr | None = None
    array_size: int | None = None
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Assign(Stmt):
    target: Expr  # an lvalue
    value: Expr
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class CallStmt(Stmt):
    """``f(a, b);`` or ``x = f(a, b);`` (when ``result`` is an lvalue)."""

    callee: str
    args: tuple[Expr, ...]
    result: Expr | None = None
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class If(Stmt):
    cond: Expr
    then_body: tuple[Stmt, ...]
    else_body: tuple[Stmt, ...] = ()
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class For(Stmt):
    """``for (init; cond; step) body`` — desugared to While by normalize."""

    init: Stmt | None
    cond: Expr | None
    step: Stmt | None
    body: tuple[Stmt, ...]
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class SwitchCase:
    """One ``case v:`` arm.  ``value`` is an int or string atom."""

    value: int | str
    body: tuple[Stmt, ...]
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Switch(Stmt):
    """``switch (e) { case v: ...; default: ... }``.

    RC switch arms do not fall through; each arm is a block.
    """

    subject: Expr
    cases: tuple[SwitchCase, ...]
    default: tuple[Stmt, ...] = ()
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Return(Stmt):
    value: Expr | None = None
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Exit(Stmt):
    """``exit;`` terminates the executing process."""

    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Break(Stmt):
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Continue(Stmt):
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Skip(Stmt):
    """``skip;`` — the empty statement."""

    location: SourceLocation = SYNTHETIC


# ---------------------------------------------------------------------------
# Procedures and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Proc:
    name: str
    params: tuple[str, ...]
    body: tuple[Stmt, ...]
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class ExternDecl:
    """``extern proc f(a, b);`` — an environment procedure."""

    name: str
    params: tuple[str, ...]
    location: SourceLocation = SYNTHETIC


@dataclass(frozen=True, slots=True)
class Program:
    """A parsed RC program: its procedures plus extern declarations."""

    procs: dict[str, Proc] = field(default_factory=dict)
    externs: dict[str, ExternDecl] = field(default_factory=dict)

    def proc_names(self) -> list[str]:
        return list(self.procs)


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Index):
        yield from walk_expr(expr.base)
        yield from walk_expr(expr.index)
    elif isinstance(expr, Field):
        yield from walk_expr(expr.base)
    elif isinstance(expr, CallExpr):
        for arg in expr.args:
            yield from walk_expr(arg)


def expr_names(expr: Expr) -> set[str]:
    """The set of variable identifiers occurring anywhere in ``expr``."""
    names: set[str] = set()
    stack = [expr]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if isinstance(node, Name):
            names.add(node.ident)
        elif isinstance(node, Binary):
            push(node.left)
            push(node.right)
        elif isinstance(node, Unary):
            push(node.operand)
        elif isinstance(node, Index):
            push(node.base)
            push(node.index)
        elif isinstance(node, Field):
            push(node.base)
        elif isinstance(node, CallExpr):
            stack.extend(node.args)
    return names


def walk_stmts(stmts) :
    """Yield every statement in ``stmts``, recursively, pre-order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, While):
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, For):
            if stmt.init is not None:
                yield from walk_stmts((stmt.init,))
            if stmt.step is not None:
                yield from walk_stmts((stmt.step,))
            yield from walk_stmts(stmt.body)
        elif isinstance(stmt, Switch):
            for case in stmt.cases:
                yield from walk_stmts(case.body)
            yield from walk_stmts(stmt.default)
