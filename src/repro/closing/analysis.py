"""Steps 2–3 of the closing algorithm, with the interprocedural fixpoint.

For every procedure this module computes, from its define-use graph
(Step 2 of Figure 1):

* ``N_ES`` — nodes that use the value of a variable defined by the
  environment;
* ``N_I``  — nodes reachable from ``N_ES`` by define-use arcs;
* ``V_I(n)`` — for each node, the variables used in ``n`` that are
  defined by the environment or label a define-use arc from an ``N_I``
  node;

and the Step-3 marking (start, termination, system calls, untainted
assignments/conditionals).

"Defined by the environment" is interprocedural (Section 4: inputs of a
procedure may be provided by the environment *indirectly via other
procedures*), so the per-procedure computation sits inside a monotone
fixpoint over four global facts:

* ``env_params[p]``   — parameters of ``p`` that may carry environment
  values (a *single* tainted call site suffices, per the paper's note on
  Step 5);
* ``env_returns``     — procedures whose return value may be
  environment-defined;
* ``tainted_objects`` — channels/shared variables through which an
  environment value may be transmitted (so receives/reads on them yield
  environment-defined values in *other processes* — the paper's
  system-level ``o = i`` interface composition);
* ``escaped_env_vars[p]`` — variables of ``p`` that some callee may
  overwrite with an environment value through an escaped pointer;
  treated flow-insensitively, which is the paper's own conservative
  fallback ("variables whose addresses escape are defined by the
  environment").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..cfg.nodes import CfgNode, NodeKind
from ..dataflow.alias import analyze_aliases
from ..dataflow.defuse import DefUseGraph, compute_defuse
from ..lang import ast
from ..runtime.ops import BUILTIN_OPERATIONS
from .errors import ClosingError
from .spec import ClosingSpec

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

#: Built-in operations whose *result* is a value read out of an object.
_VALUE_SOURCES = frozenset({"recv", "read"})


@dataclass
class ProcAnalysis:
    """Per-procedure artefacts of Steps 2–3."""

    proc: str
    cfg: ControlFlowGraph
    #: node id -> variables that node defines *with environment values*.
    env_defs: dict[int, frozenset[str]] = field(default_factory=dict)
    n_es: frozenset[int] = frozenset()
    n_i: frozenset[int] = frozenset()
    vi: dict[int, frozenset[str]] = field(default_factory=dict)
    marked: frozenset[int] = frozenset()

    def vi_of(self, node_id: int) -> frozenset[str]:
        return self.vi.get(node_id, frozenset())


@dataclass
class ClosingAnalysis:
    """The complete analysis result consumed by the transformation."""

    procs: dict[str, ProcAnalysis]
    env_params: dict[str, frozenset[str]]
    env_returns: frozenset[str]
    tainted_objects: frozenset[str]
    all_objects_tainted: bool
    escaped_env_vars: dict[str, frozenset[str]]
    spec: ClosingSpec
    rounds: int


class _Fixpoint:
    def __init__(self, cfgs: dict[str, ControlFlowGraph], spec: ClosingSpec):
        self._cfgs = cfgs
        self._spec = spec
        self._points_to = analyze_aliases(cfgs)
        self._defuse: dict[str, DefUseGraph] = {}
        for proc, cfg in cfgs.items():
            local_map = self._points_to.local_pointer_map(proc)
            self._defuse[proc] = compute_defuse(cfg, local_map)

        # Mutable global facts (monotonically growing).
        self.env_params: dict[str, set[str]] = {
            proc: set(spec.params_of(proc)) for proc in cfgs
        }
        self.env_returns: set[str] = set()
        self.tainted_objects: set[str] = set(spec.env_objects)
        self.all_objects_tainted = False
        self.escaped_env_vars: dict[str, set[str]] = {proc: set() for proc in cfgs}

    # -- object resolution ------------------------------------------------------

    def _objects_of(self, proc: str, node: CfgNode) -> set[str] | None:
        """Objects the operation at ``node`` may touch (None = unknown)."""
        spec = BUILTIN_OPERATIONS.get(node.callee)
        if spec is None or spec.object_arg is None:
            return set()
        if spec.object_arg >= len(node.args):
            return set()
        arg = node.args[spec.object_arg]
        resolved = self._points_to.objects_of(proc, arg)
        if resolved is not None:
            return resolved
        if isinstance(arg, ast.Name):
            binding = self._spec.object_bindings.get((proc, arg.ident))
            if binding is not None:
                return set(binding)
        return None

    def _object_tainted(self, objects: set[str] | None) -> bool:
        if self.all_objects_tainted:
            return True
        if objects is None:
            # Unknown object: tainted as soon as anything is.
            return bool(self.tainted_objects)
        return bool(objects & self.tainted_objects)

    # -- per-round, per-procedure computation -----------------------------------------

    def _env_defs(
        self, proc: str, cfg: ControlFlowGraph, defuse: DefUseGraph
    ) -> dict[int, frozenset[str]]:
        """Which nodes introduce environment-defined values, and for
        which variables."""
        out: dict[int, frozenset[str]] = {}
        env_params = self.env_params[proc]
        if env_params:
            out[cfg.start_id] = frozenset(env_params)
        for node in cfg:
            if node.kind is not _CALL:
                continue
            spec = BUILTIN_OPERATIONS.get(node.callee)
            env_source = False
            if spec is None and node.callee not in self._cfgs:
                env_source = True  # extern (environment) procedure call
            elif spec is not None and spec.name in _VALUE_SOURCES:
                objects = self._objects_of(proc, node)
                if self._object_tainted(objects):
                    env_source = True
            elif spec is None and node.callee in self._cfgs:
                pass
            elif spec is None:
                env_source = True
            if (
                node.callee in self._cfgs
                and node.callee in self.env_returns
                and node.result is not None
            ):
                env_source = True
            if env_source:
                defined = defuse.accesses[node.id].defined_vars()
                if defined:
                    out[node.id] = frozenset(defined)
        return out

    def _compute_proc(self, proc: str, defuse: DefUseGraph) -> ProcAnalysis:
        cfg = self._cfgs[proc]
        pa = ProcAnalysis(proc=proc, cfg=cfg)
        pa.env_defs = self._env_defs(proc, cfg, defuse)
        escaped = self.escaped_env_vars[proc]

        # N_ES: nodes using a variable defined by the environment.
        n_es: set[int] = set()
        for arc in defuse.arcs:
            if arc.var in pa.env_defs.get(arc.def_node, ()):  # env def reaches use
                n_es.add(arc.use_node)
        if escaped:
            for node_id, access in defuse.accesses.items():
                if access.uses & escaped:
                    n_es.add(node_id)

        # N_I: forward define-use closure of N_ES.
        n_i: set[int] = set()
        stack = list(n_es)
        while stack:
            node_id = stack.pop()
            if node_id in n_i:
                continue
            n_i.add(node_id)
            for arc in defuse.uses_fed_by(node_id):
                if arc.use_node not in n_i:
                    stack.append(arc.use_node)

        # V_I(n) for n in N_I.
        vi: dict[int, frozenset[str]] = {}
        for node_id in n_i:
            access = defuse.accesses[node_id]
            tainted_vars: set[str] = set(access.uses & escaped)
            for arc in defuse.defs_feeding(node_id):
                if arc.var in pa.env_defs.get(arc.def_node, ()):
                    tainted_vars.add(arc.var)
                elif arc.def_node in n_i:
                    tainted_vars.add(arc.var)
            vi[node_id] = frozenset(tainted_vars)

        pa.n_es = frozenset(n_es)
        pa.n_i = frozenset(n_i)
        pa.vi = vi
        pa.marked = frozenset(self._mark(proc, pa))
        return pa

    def _mark(self, proc: str, pa: ProcAnalysis) -> set[int]:
        """Step 3: select the nodes preserved by the transformation."""
        marked: set[int] = set()
        for node in pa.cfg:
            if node.kind in (_START, _RETURN, _EXIT):
                marked.add(node.id)
            elif node.kind is _CALL:
                if self._is_environment_call(proc, node):
                    continue
                marked.add(node.id)
            elif node.kind in (_ASSIGN, _COND):
                if node.id not in pa.n_i:
                    marked.add(node.id)
            elif node.kind is _TOSS:
                # Closing an already-closed (transformed) graph: toss
                # nodes are nondeterministic conditionals of the system.
                marked.add(node.id)
        return marked

    def _is_environment_call(self, proc: str, node: CfgNode) -> bool:
        """Environment operations are *not* marked (they are eliminated)."""
        spec = BUILTIN_OPERATIONS.get(node.callee)
        if spec is None:
            return node.callee not in self._cfgs  # extern procedure
        if spec.name in ("recv", "read", "poll"):
            objects = self._objects_of(proc, node)
            if objects is None:
                return False  # unknown object: keep, taint handles values
            env_side = objects & self._spec.env_objects
            if env_side and objects - self._spec.env_objects:
                raise ClosingError(
                    f"{node.location}: {proc}: node {node.id} may {node.callee} from "
                    f"both an environment object and a system object ({sorted(objects)}); "
                    "declare the interface unambiguously"
                )
            return bool(env_side)
        if spec.name in ("send", "write"):
            objects = self._objects_of(proc, node)
            if objects and objects & self._spec.env_objects:
                raise ClosingError(
                    f"{node.location}: {proc}: node {node.id} sends into environment "
                    f"input object {sorted(objects & self._spec.env_objects)}; outputs to the "
                    "environment should use an env sink channel instead"
                )
        return False

    # -- derivation of new global facts ------------------------------------------------

    def _derive(self, analyses: dict[str, ProcAnalysis]) -> bool:
        """Propagate taint across procedure/process boundaries.

        Returns whether any global fact changed.
        """
        changed = False
        for proc, pa in analyses.items():
            for node in pa.cfg:
                vi = pa.vi_of(node.id)
                if node.kind is _RETURN:
                    if vi and proc not in self.env_returns:
                        self.env_returns.add(proc)
                        changed = True
                    continue
                if node.kind is not _CALL:
                    if node.id in pa.n_i or node.id in pa.env_defs:
                        changed |= self._escape_defs(proc, node)
                    continue

                spec = BUILTIN_OPERATIONS.get(node.callee)
                is_env_call = spec is None and node.callee not in self._cfgs
                if spec is None and node.callee in self._cfgs:
                    changed |= self._derive_user_call(proc, node, vi)
                elif spec is not None and spec.value_args:
                    changed |= self._derive_transmission(proc, node, vi, spec)
                if node.id in pa.n_i or node.id in pa.env_defs or is_env_call:
                    # An environment call writes environment values into
                    # whatever its result lvalue / received pointers reach
                    # — even when none of the targets are local.
                    changed |= self._escape_defs(proc, node)
        return changed

    def _derive_user_call(self, proc: str, node: CfgNode, vi: frozenset[str]) -> bool:
        callee_cfg = self._cfgs[node.callee]
        changed = False
        for param, arg in zip(callee_cfg.params, node.args):
            tainted = False
            if isinstance(arg, ast.Name) and arg.ident in vi:
                tainted = True
            elif isinstance(arg, ast.Unary) and arg.op == "&":
                # Pointer to environment-tainted storage: coarse rule —
                # the callee's parameter counts as environment-defined.
                if ast.expr_names(arg.operand) & vi:
                    tainted = True
            if tainted and param not in self.env_params[node.callee]:
                self.env_params[node.callee].add(param)
                changed = True
        return changed

    def _derive_transmission(
        self, proc: str, node: CfgNode, vi: frozenset[str], spec
    ) -> bool:
        """send/write of a tainted value taints the target object(s)."""
        tainted_value = False
        for index in spec.value_args:
            if index < len(node.args):
                arg = node.args[index]
                if isinstance(arg, ast.AbstractLit):
                    tainted_value = True
                elif ast.expr_names(arg) & vi:
                    tainted_value = True
        if not tainted_value:
            return False
        objects = self._objects_of(proc, node)
        if objects is None:
            if not self.all_objects_tainted:
                self.all_objects_tainted = True
                return True
            return False
        new = objects - self.tainted_objects
        if new:
            self.tainted_objects |= new
            return True
        return False

    def _escape_defs(self, proc: str, node: CfgNode) -> bool:
        """A node writing environment values may do so through pointers
        that reach *other procedures'* variables; record those."""
        changed = False
        pointer_roots: set[str] = set()
        if node.kind is _ASSIGN and isinstance(node.target, ast.Unary):
            if node.target.op == "*":
                pointer_roots |= ast.expr_names(node.target.operand)
        if node.kind is _CALL:
            if node.result is not None and isinstance(node.result, ast.Unary):
                if node.result.op == "*":
                    pointer_roots |= ast.expr_names(node.result.operand)
            if node.callee not in BUILTIN_OPERATIONS:
                # User or environment call: any pointer handed over may be
                # written through (the environment included — it received
                # the address).
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        pointer_roots.add(arg.ident)
                    # `&x` arguments target the local x, which the node's
                    # own (weak) definition set already covers.
        for root in pointer_roots:
            for target in self._points_to.nonlocal_pointees(proc, root):
                if target.proc in self.escaped_env_vars:
                    if target.var not in self.escaped_env_vars[target.proc]:
                        self.escaped_env_vars[target.proc].add(target.var)
                        changed = True
        return changed

    # -- driver --------------------------------------------------------------------------

    def run(self) -> ClosingAnalysis:
        rounds = 0
        analyses: dict[str, ProcAnalysis] = {}
        while True:
            rounds += 1
            analyses = {
                proc: self._compute_proc(proc, defuse) for proc, defuse in self._defuse.items()
            }
            if not self._derive(analyses):
                break
            if rounds > len(self._cfgs) * 50 + 100:
                raise ClosingError("environment-taint fixpoint failed to converge")
        return ClosingAnalysis(
            procs=analyses,
            env_params={proc: frozenset(params) for proc, params in self.env_params.items()},
            env_returns=frozenset(self.env_returns),
            tainted_objects=frozenset(self.tainted_objects),
            all_objects_tainted=self.all_objects_tainted,
            escaped_env_vars={
                proc: frozenset(vars_) for proc, vars_ in self.escaped_env_vars.items()
            },
            spec=self._spec,
            rounds=rounds,
        )


def analyze_for_closing(
    cfgs: dict[str, ControlFlowGraph], spec: ClosingSpec | None = None
) -> ClosingAnalysis:
    """Run Steps 2–3 (with the interprocedural fixpoint) over a program.

    The alias result and the define-use graphs are the fixpoint's
    working state: the result does not hold them, so they are freed
    when this returns."""
    return _Fixpoint(cfgs, spec or ClosingSpec()).run()
