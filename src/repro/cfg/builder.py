"""Build control-flow graphs from core-form RC procedures.

The builder uses the classic "dangling arcs" scheme: translating a
statement list yields the set of loose ends ``(node_id, guard)`` to be
wired to whatever comes next.  ``break``/``continue`` are resolved
against an enclosing-loop stack.  A synthetic ``return`` is appended when
control can fall off the end of the body, so every path ends in a
termination statement (as the paper's model requires).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast
from ..lang.normalize import normalize_program
from .graph import CfgError, ControlFlowGraph
from .nodes import (
    ALWAYS,
    BoolGuard,
    CaseGuard,
    DefaultGuard,
    Guard,
    NodeKind,
)

# The node kinds as module globals: on CPython 3.11 a ``NodeKind.X``
# read goes through the enum metaclass's ``__getattr__`` hook, about
# ten times the cost of reading a global.
_START, _ASSIGN, _COND, _CALL, _RETURN, _EXIT = (
    NodeKind.START,
    NodeKind.ASSIGN,
    NodeKind.COND,
    NodeKind.CALL,
    NodeKind.RETURN,
    NodeKind.EXIT,
)

#: A dangling out-edge: the source node and the guard its arc must carry.
Dangling = tuple[int, Guard]


@dataclass
class _LoopContext:
    """Records where break/continue inside the current loop must jump."""

    head_id: int
    breaks: list[Dangling]


class _Builder:
    def __init__(self, proc: ast.Proc):
        self._proc = proc
        self._cfg = ControlFlowGraph(proc_name=proc.name, params=proc.params)
        self._loops: list[_LoopContext] = []

    def build(self) -> ControlFlowGraph:
        start = self._cfg.new_node(_START, location=self._proc.location)
        dangling = self._build_block(self._proc.body, [(start.id, ALWAYS)])
        if dangling:
            implicit = self._cfg.new_node(_RETURN, location=self._proc.location)
            self._connect(dangling, implicit.id)
        self._cfg.prune_unreachable()
        self._cfg.validate()
        return self._cfg

    # -- wiring ----------------------------------------------------------------

    def _connect(self, dangling: list[Dangling], target: int) -> None:
        for src, guard in dangling:
            self._cfg.add_arc(src, target, guard)

    def _build_block(self, stmts: tuple[ast.Stmt, ...], incoming: list[Dangling]) -> list[Dangling]:
        current = incoming
        for stmt in stmts:
            if not current:
                # The rest of the block is unreachable (after return/break
                # etc.); skip building dead nodes.
                break
            current = self._build_stmt(stmt, current)
        return current

    # -- statements ---------------------------------------------------------------

    def _build_stmt(self, stmt: ast.Stmt, incoming: list[Dangling]) -> list[Dangling]:
        if isinstance(stmt, ast.VarDecl):
            node = self._cfg.new_node(
                _ASSIGN,
                location=stmt.location,
                target=ast.Name(stmt.name, stmt.location),
                value=stmt.init if stmt.init is not None else (
                    None if stmt.array_size is not None else ast.IntLit(0, stmt.location)
                ),
                array_size=stmt.array_size,
            )
            self._connect(incoming, node.id)
            return [(node.id, ALWAYS)]

        if isinstance(stmt, ast.Assign):
            node = self._cfg.new_node(
                _ASSIGN, location=stmt.location, target=stmt.target, value=stmt.value
            )
            self._connect(incoming, node.id)
            return [(node.id, ALWAYS)]

        if isinstance(stmt, ast.CallStmt):
            node = self._cfg.new_node(
                _CALL,
                location=stmt.location,
                callee=stmt.callee,
                args=stmt.args,
                result=stmt.result,
            )
            self._connect(incoming, node.id)
            return [(node.id, ALWAYS)]

        if isinstance(stmt, ast.If):
            cond = self._cfg.new_node(_COND, location=stmt.location, expr=stmt.cond)
            self._connect(incoming, cond.id)
            then_out = self._build_block(stmt.then_body, [(cond.id, BoolGuard(True))])
            else_out = self._build_block(stmt.else_body, [(cond.id, BoolGuard(False))])
            return then_out + else_out

        if isinstance(stmt, ast.While):
            cond = self._cfg.new_node(_COND, location=stmt.location, expr=stmt.cond)
            self._connect(incoming, cond.id)
            context = _LoopContext(head_id=cond.id, breaks=[])
            self._loops.append(context)
            body_out = self._build_block(stmt.body, [(cond.id, BoolGuard(True))])
            self._loops.pop()
            self._connect(body_out, cond.id)
            return [(cond.id, BoolGuard(False))] + context.breaks

        if isinstance(stmt, ast.Switch):
            cond = self._cfg.new_node(_COND, location=stmt.location, expr=stmt.subject)
            self._connect(incoming, cond.id)
            out: list[Dangling] = []
            for case in stmt.cases:
                out += self._build_block(case.body, [(cond.id, CaseGuard(case.value))])
            out += self._build_block(stmt.default, [(cond.id, DefaultGuard())])
            return out

        if isinstance(stmt, ast.Return):
            node = self._cfg.new_node(_RETURN, location=stmt.location, value=stmt.value)
            self._connect(incoming, node.id)
            return []

        if isinstance(stmt, ast.Exit):
            node = self._cfg.new_node(_EXIT, location=stmt.location)
            self._connect(incoming, node.id)
            return []

        if isinstance(stmt, ast.Break):
            if not self._loops:
                raise CfgError(f"{stmt.location}: {self._proc.name}: 'break' outside of a loop")
            self._loops[-1].breaks.extend(incoming)
            return []

        if isinstance(stmt, ast.Continue):
            if not self._loops:
                raise CfgError(
                    f"{stmt.location}: {self._proc.name}: 'continue' outside of a loop"
                )
            self._connect(incoming, self._loops[-1].head_id)
            return []

        if isinstance(stmt, ast.Skip):
            # skip is pure control; it needs no node of its own.
            return incoming

        if isinstance(stmt, ast.For):
            raise CfgError(
                f"{self._proc.name}: 'for' must be desugared before CFG construction "
                "(run lang.normalize first)"
            )

        raise CfgError(f"{self._proc.name}: unknown statement {type(stmt).__name__}")


def build_cfg(proc: ast.Proc) -> ControlFlowGraph:
    """Build the CFG of one core-form procedure."""
    return _Builder(proc).build()


def build_cfgs(program: ast.Program, normalized: bool = False) -> dict[str, ControlFlowGraph]:
    """Build CFGs for every procedure of ``program``.

    Unless ``normalized`` is true the program is first normalized to core
    form (see :mod:`repro.lang.normalize`).
    """
    if not normalized:
        program = normalize_program(program)
    return {name: build_cfg(proc) for name, proc in program.procs.items()}
