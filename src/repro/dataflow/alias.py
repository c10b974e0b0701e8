"""Interprocedural may-alias (points-to) analysis, Andersen style.

Section 4 of the paper requires define-use computation, which "relies on
a (conservative) solution to the aliasing problem" [CWZ90, Lan91, Deu94,
Ruf95].  This module provides a flow-insensitive, context-insensitive,
inclusion-based (Andersen) analysis over the whole program.

Two kinds of abstract locations are tracked in one constraint system:

* :class:`VarLoc` ``(proc, var)`` — a local variable or parameter of one
  procedure (RC has no globals; processes share data only through
  communication objects);
* :class:`ObjLoc` ``name`` — a communication object.  Object *references*
  flow like pointers (``c = channel('ctl'); send(c, v)``), and values
  *transmitted through* an object (``send(ch, p)`` / ``recv(ch)``) flow
  through the object's location, so pointers mailed between processes
  are tracked soundly.

Containers are collapsed: an array/record variable is one location, and
storing into ``a[i]`` / ``r.f`` adds to the points-to set of ``a`` / ``r``.

The solver is the textbook worklist algorithm with complex constraints
(loads/stores through pointers re-evaluated as points-to sets grow).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg.graph import ControlFlowGraph
from ..cfg.nodes import CfgNode, NodeKind
from ..lang import ast
from ..runtime.ops import BUILTIN_OPERATIONS

# The node kinds as module globals: on CPython 3.11 a ``NodeKind.X``
# read goes through the enum metaclass's ``__getattr__`` hook, about
# ten times the cost of reading a global.
_ASSIGN, _CALL, _RETURN = (
    NodeKind.ASSIGN,
    NodeKind.CALL,
    NodeKind.RETURN,
)


@dataclass(frozen=True, slots=True)
class VarLoc:
    proc: str
    var: str

    def __repr__(self) -> str:
        return f"{self.proc}::{self.var}"


@dataclass(frozen=True, slots=True)
class ObjLoc:
    name: str

    def __repr__(self) -> str:
        return f"obj::{self.name}"


Loc = VarLoc | ObjLoc


class PointsToResult:
    """The solved points-to relation."""

    def __init__(self, pts: dict[Loc, set[Loc]], object_names: set[str]):
        self._pts = pts
        self.object_names = object_names

    def points_to(self, loc: Loc) -> set[Loc]:
        return self._pts.get(loc, set())

    def var_points_to(self, proc: str, var: str) -> set[Loc]:
        return self.points_to(VarLoc(proc, var))

    def local_pointer_map(self, proc: str) -> dict[str, set[str]]:
        """For each variable of ``proc``: the *local* variables it may
        point to (the slice :func:`repro.dataflow.accesses.node_access`
        needs for ``*p = e`` defs)."""
        out: dict[str, set[str]] = {}
        for loc, targets in self._pts.items():
            if isinstance(loc, VarLoc) and loc.proc == proc:
                local = {
                    t.var for t in targets if isinstance(t, VarLoc) and t.proc == proc
                }
                if local:
                    out[loc.var] = local
        return out

    def nonlocal_pointees(self, proc: str, var: str) -> set[VarLoc]:
        """Locations *outside* ``proc`` that ``var`` may point to —
        writes through such pointers escape the procedure."""
        return {
            t
            for t in self.var_points_to(proc, var)
            if isinstance(t, VarLoc) and t.proc != proc
        }

    def objects_of(self, proc: str, expr: ast.Expr) -> set[str] | None:
        """Communication objects an operation's object argument may
        denote.  Returns ``None`` for "unknown — could be any object"."""
        if isinstance(expr, ast.StrLit):
            return {expr.value}
        if isinstance(expr, ast.Name):
            pts = self.var_points_to(proc, expr.ident)
            objects = {t.name for t in pts if isinstance(t, ObjLoc)}
            if objects:
                return objects
            return None
        return None


class _Solver:
    """Inclusion-constraint solver."""

    def __init__(self):
        self.pts: dict[Loc, set[Loc]] = {}
        # subset edges: copy constraints src ⊆ dst
        self.edges: dict[Loc, set[Loc]] = {}
        # complex constraints, re-run when pts(p) grows:
        self.load_from: dict[Loc, set[Loc]] = {}  # dst ⊇ pts(l) for l in pts(p)
        self.store_to: dict[Loc, set[Loc]] = {}  # pts(l) ⊇ pts(src) for l in pts(p)
        self.worklist: list[Loc] = []

    def _set(self, loc: Loc) -> set[Loc]:
        found = self.pts.get(loc)
        if found is None:
            found = set()
            self.pts[loc] = found
        return found

    def add_base(self, dst: Loc, target: Loc) -> None:
        """dst may point to target (``p = &x``)."""
        if target not in self._set(dst):
            self._set(dst).add(target)
            self.worklist.append(dst)

    def add_copy(self, src: Loc, dst: Loc) -> None:
        """pts(src) ⊆ pts(dst) (``p = q``)."""
        if src == dst:
            return
        self.edges.setdefault(src, set()).add(dst)
        if self._set(src):
            self.worklist.append(src)

    def add_load(self, pointer: Loc, dst: Loc) -> None:
        """∀ l ∈ pts(pointer): pts(l) ⊆ pts(dst) (``x = *p``)."""
        self.load_from.setdefault(pointer, set()).add(dst)
        if self._set(pointer):
            self.worklist.append(pointer)

    def add_store(self, pointer: Loc, src: Loc) -> None:
        """∀ l ∈ pts(pointer): pts(src) ⊆ pts(l) (``*p = q``)."""
        self.store_to.setdefault(pointer, set()).add(src)
        if self._set(pointer):
            self.worklist.append(pointer)

    def solve(self) -> None:
        while self.worklist:
            loc = self.worklist.pop()
            pointees = self._set(loc)
            # Resolve complex constraints hanging off this location.
            for dst in self.load_from.get(loc, ()):  # dst ⊇ pts(l), l ∈ pts(loc)
                for pointee in list(pointees):
                    self.add_copy(pointee, dst)
            for src in self.store_to.get(loc, ()):  # pts(l) ⊇ pts(src)
                for pointee in list(pointees):
                    self.add_copy(src, pointee)
            # Propagate along copy edges.
            for dst in self.edges.get(loc, ()):  # pts(dst) ⊇ pts(loc)
                dst_set = self._set(dst)
                missing = pointees - dst_set
                if missing:
                    dst_set |= missing
                    self.worklist.append(dst)


def _base_var(expr: ast.Expr) -> str | None:
    """The root variable of a (possibly nested) lvalue, if any."""
    while True:
        if isinstance(expr, ast.Name):
            return expr.ident
        if isinstance(expr, (ast.Index, ast.Field)):
            expr = expr.base
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            expr = expr.operand
        else:
            return None


class AliasAnalysis:
    """Builds and solves the constraint system for a whole program."""

    def __init__(self, cfgs: dict[str, ControlFlowGraph]):
        self._cfgs = cfgs
        self._solver = _Solver()
        self._object_names: set[str] = set()

    def run(self) -> PointsToResult:
        for proc, cfg in self._cfgs.items():
            for node in cfg:
                self._constrain_node(proc, cfg, node)
        self._solver.solve()
        return PointsToResult(self._solver.pts, self._object_names)

    # -- constraint generation ----------------------------------------------------

    def _rvalue_into(self, proc: str, expr: ast.Expr, dst: Loc) -> None:
        """Add constraints so that pointer values of ``expr`` flow to ``dst``."""
        if isinstance(expr, ast.Name):
            self._solver.add_copy(VarLoc(proc, expr.ident), dst)
        elif isinstance(expr, ast.Unary) and expr.op == "&":
            base = _base_var(expr.operand)
            if base is not None:
                self._solver.add_base(dst, VarLoc(proc, base))
            # &*p (pointer round-trip): copy p itself.
            if isinstance(expr.operand, ast.Unary) and expr.operand.op == "*":
                self._rvalue_into(proc, expr.operand.operand, dst)
        elif isinstance(expr, ast.Unary) and expr.op == "*":
            inner = _base_var(expr.operand)
            if inner is not None:
                self._solver.add_load(VarLoc(proc, inner), dst)
        elif isinstance(expr, (ast.Index, ast.Field)):
            base = _base_var(expr)
            if base is not None:
                # Collapsed container load: pts(base) ⊆ pts(dst).
                self._solver.add_copy(VarLoc(proc, base), dst)
        # Literals / arithmetic produce no pointers.

    def _lvalue_store(self, proc: str, target: ast.Expr, source: ast.Expr) -> None:
        """Constraints for ``target = source``."""
        if isinstance(target, ast.Name):
            self._rvalue_into(proc, source, VarLoc(proc, target.ident))
            return
        if isinstance(target, (ast.Index, ast.Field)):
            base = _base_var(target)
            if base is not None:
                # Collapsed container store: pointees of source join
                # pts(base).
                self._rvalue_into(proc, source, VarLoc(proc, base))
            return
        if isinstance(target, ast.Unary) and target.op == "*":
            pointer = _base_var(target.operand)
            if pointer is not None:
                # pts(l) ⊇ pointees(source) for every l ∈ pts(pointer):
                # funnel the source through a synthetic temp, then store.
                temp = VarLoc(proc, f"<store:{id(target)}>")
                self._rvalue_into(proc, source, temp)
                self._solver.add_store(VarLoc(proc, pointer), temp)
            return

    def _constrain_node(self, proc: str, cfg: ControlFlowGraph, node: CfgNode) -> None:
        if node.kind is _ASSIGN:
            if node.array_size is None and node.value is not None:
                self._lvalue_store(proc, node.target, node.value)
            return
        if node.kind is not _CALL:
            return

        spec = BUILTIN_OPERATIONS.get(node.callee)
        if spec is not None:
            self._constrain_builtin(proc, node, spec)
            return

        callee_cfg = self._cfgs.get(node.callee)
        if callee_cfg is None:
            # Environment (extern) call: its result carries no pointers to
            # system memory (the env cannot forge addresses), so nothing
            # flows.
            return
        callee = node.callee
        for param, arg in zip(callee_cfg.params, node.args):
            self._rvalue_into(proc, arg, VarLoc(callee, param))
        if node.result is not None:
            result_loc = self._result_loc(proc, node.result)
            if result_loc is not None:
                for ret in callee_cfg.nodes_of_kind(_RETURN):
                    if ret.value is not None:
                        self._rvalue_into(callee, ret.value, result_loc)

    def _result_loc(self, proc: str, result: ast.Expr) -> Loc | None:
        base = _base_var(result)
        if base is None:
            return None
        if isinstance(result, ast.Unary) and result.op == "*":
            # `*p = f(...)`: flow into everything p points to.
            temp = VarLoc(proc, f"<callres:{id(result)}>")
            self._solver.add_store(VarLoc(proc, base), temp)
            return temp
        return VarLoc(proc, base)

    def _constrain_builtin(self, proc: str, node: CfgNode, spec) -> None:
        if spec.name in ("channel", "semaphore", "shared") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.StrLit) and node.result is not None:
                self._object_names.add(arg.value)
                result_loc = self._result_loc(proc, node.result)
                if result_loc is not None:
                    self._solver.add_base(result_loc, ObjLoc(arg.value))
            return

        if spec.object_arg is None:
            return
        # Resolve the object(s) this operation may touch.
        obj_arg = node.args[spec.object_arg] if spec.object_arg < len(node.args) else None
        obj_locs: list[Loc] = []
        if isinstance(obj_arg, ast.StrLit):
            self._object_names.add(obj_arg.value)
            obj_locs = [ObjLoc(obj_arg.value)]
        elif isinstance(obj_arg, ast.Name):
            # Values transmitted through a dynamically-determined object
            # flow through whatever ObjLocs the variable may hold — the
            # solver resolves this via load/store through the variable.
            obj_locs = [VarLoc(proc, obj_arg.ident)]

        for obj in obj_locs:
            for value_index in spec.value_args:
                if value_index < len(node.args):
                    if isinstance(obj, ObjLoc):
                        temp = VarLoc(proc, f"<xmit:{node.id}>")
                        self._rvalue_into(proc, node.args[value_index], temp)
                        self._solver.add_copy(temp, obj)
                    else:
                        temp = VarLoc(proc, f"<xmit:{node.id}>")
                        self._rvalue_into(proc, node.args[value_index], temp)
                        self._solver.add_store(obj, temp)
            if spec.returns_value and node.result is not None:
                result_loc = self._result_loc(proc, node.result)
                if result_loc is not None:
                    if isinstance(obj, ObjLoc):
                        self._solver.add_copy(obj, result_loc)
                    else:
                        self._solver.add_load(obj, result_loc)


def analyze_aliases(cfgs: dict[str, ControlFlowGraph]) -> PointsToResult:
    """Run the may-alias analysis over a whole program."""
    return AliasAnalysis(cfgs).run()
