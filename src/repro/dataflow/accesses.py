"""Per-node *use* and *define* sets.

Section 4 of the paper: "a variable v is **used** in node n if the value
of v may be required during some execution of the statement corresponding
to n", and "**defined** in n if the value of v may be modified".  We
compute these at variable granularity:

* writing ``a[i]`` or ``r.f`` is a *weak* definition of ``a``/``r`` (some
  part of the variable may change) and uses ``i``;
* writing ``*p`` uses ``p`` and weakly defines every variable ``p`` may
  point to (supplied by the may-alias analysis);
* a direct ``x = e`` is a *strong* definition (it kills previous
  definitions of ``x`` in the reaching-definitions dataflow);
* passing ``&x`` to a user procedure both *uses* and *weakly defines*
  ``x`` (the callee may read or write through the pointer).

The paper assumes every assignment defines exactly one variable per
execution; weak/strong is the static reflection of that (a ``*p = e``
writes one location dynamically but several are statically possible).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg.nodes import CfgNode, NodeKind
from ..lang import ast
from ..runtime.ops import BUILTIN_OPERATIONS

# The node kinds as module globals: on CPython 3.11 a ``NodeKind.X``
# read goes through the enum metaclass's ``__getattr__`` hook, about
# ten times the cost of reading a global.
_START, _ASSIGN, _COND, _TOSS, _CALL, _RETURN, _EXIT = (
    NodeKind.START,
    NodeKind.ASSIGN,
    NodeKind.COND,
    NodeKind.TOSS,
    NodeKind.CALL,
    NodeKind.RETURN,
    NodeKind.EXIT,
)


@dataclass(frozen=True, slots=True)
class Definition:
    """A definition of ``var`` at some node; ``strong`` kills earlier defs."""

    var: str
    strong: bool


@dataclass(frozen=True, slots=True)
class NodeAccess:
    """The use/def sets of one CFG node."""

    uses: frozenset[str]
    defs: tuple[Definition, ...]

    def defined_vars(self) -> set[str]:
        return {definition.var for definition in self.defs}


def _expr_uses(expr: ast.Expr | None) -> set[str]:
    if expr is None:
        return set()
    return ast.expr_names(expr)


def _lvalue_access(target: ast.Expr, points_to: dict[str, set[str]]) -> tuple[set[str], list[Definition]]:
    """uses and defs of writing through lvalue ``target``.

    ``points_to`` maps pointer variable names (within this procedure) to
    the local variables they may reference; pointers that may reach
    unknown/non-local storage should already be reflected there by the
    caller (see :mod:`repro.dataflow.alias`).
    """
    if isinstance(target, ast.Name):
        return set(), [Definition(target.ident, strong=True)]
    if isinstance(target, ast.Index):
        base_uses, base_defs = _lvalue_access(target.base, points_to)
        weak = [Definition(d.var, strong=False) for d in base_defs]
        uses = base_uses | _expr_uses(target.index)
        # Reading parts of the base may be needed to locate the element.
        uses |= {d.var for d in base_defs}
        return uses, weak
    if isinstance(target, ast.Field):
        base_uses, base_defs = _lvalue_access(target.base, points_to)
        weak = [Definition(d.var, strong=False) for d in base_defs]
        uses = base_uses | {d.var for d in base_defs}
        return uses, weak
    if isinstance(target, ast.Unary) and target.op == "*":
        uses = _expr_uses(target.operand)
        pointer_names = ast.expr_names(target.operand)
        targets: set[str] = set()
        for name in pointer_names:
            targets |= points_to.get(name, set())
        weak = [Definition(var, strong=False) for var in sorted(targets)]
        return uses, weak
    raise ValueError(f"invalid lvalue {type(target).__name__}")


def node_access(node: CfgNode, points_to: dict[str, set[str]] | None = None) -> NodeAccess:
    """Compute the :class:`NodeAccess` of ``node``.

    ``points_to`` is the procedure-local slice of the may-alias result;
    when omitted, dereferencing writes define nothing locally (callers
    doing real analysis must supply it).
    """
    points_to = points_to or {}

    if node.kind in (_START, _EXIT, _TOSS):
        # Start nodes use and define nothing (paper assumption);
        # termination statements define nothing; TOSS tests a fresh
        # nondeterministic value only.
        return NodeAccess(frozenset(), ())

    if node.kind is _ASSIGN:
        if node.array_size is not None:
            __, defs = _lvalue_access(node.target, points_to)
            return NodeAccess(frozenset(), tuple(defs))
        target_uses, defs = _lvalue_access(node.target, points_to)
        uses = target_uses | _expr_uses(node.value)
        return NodeAccess(frozenset(uses), tuple(defs))

    if node.kind is _COND:
        return NodeAccess(frozenset(_expr_uses(node.expr)), ())

    if node.kind is _RETURN:
        return NodeAccess(frozenset(_expr_uses(node.value)), ())

    if node.kind is _CALL:
        uses: set[str] = set()
        defs: list[Definition] = []
        is_builtin = node.callee in BUILTIN_OPERATIONS
        for arg in node.args:
            if isinstance(arg, ast.Unary) and arg.op == "&":
                # Address-of argument: the callee may read or write the
                # pointed-to variable.  Built-in operations never do.
                inner = ast.expr_names(arg.operand)
                uses |= inner
                if not is_builtin:
                    defs.extend(Definition(var, strong=False) for var in sorted(inner))
            else:
                uses |= _expr_uses(arg)
                if not is_builtin and isinstance(arg, ast.Name):
                    # A pointer-valued variable argument: the callee may
                    # write through it into whatever it points to.
                    pointees = points_to.get(arg.ident, set())
                    defs.extend(Definition(var, strong=False) for var in sorted(pointees))
        if node.result is not None:
            result_uses, result_defs = _lvalue_access(node.result, points_to)
            uses |= result_uses
            defs.extend(result_defs)
        return NodeAccess(frozenset(uses), tuple(defs))

    raise ValueError(f"unknown node kind {node.kind}")
