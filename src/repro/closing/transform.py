"""Steps 4–5 of the closing algorithm: rebuilding the control-flow graph.

Step 4 (Figure 1): for every *marked* node ``n`` and every original
out-arc ``a``, ``succ(a)`` is the set of marked nodes reachable from
``n`` by a control-flow path that starts with ``a`` and passes through
unmarked nodes exclusively.

* ``|succ(a)| = 0`` — do nothing (the arc led only into an unmarked
  cycle; the divergence it represented is eliminated, as the paper
  notes).  If that leaves a non-terminal node with no out-arcs at all, a
  synthetic ``exit`` is attached: the original could only diverge
  invisibly past this point, and terminating instead preserves every
  property of Theorems 6/7 (it can only *add* behaviours, which an upper
  approximation is allowed to do).
* ``|succ(a)| = 1`` — a direct arc with ``a``'s guard.
* ``|succ(a)| > 1`` — a fresh conditional testing ``VS_toss(|succ|-1)``,
  entered via an arc carrying ``a``'s guard, with one toss-guarded arc
  per member.

Step 5: parameters defined by the environment are removed from the
procedure, the matching arguments are removed at every (transformed)
call site, and — for built-in operations and return statements, which
have no parameter list to shrink — environment-dependent value
arguments are replaced by the erased-value literal ``top``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..cfg.nodes import ALWAYS, Arc, CfgNode, NodeKind, TossGuard
from ..lang import ast
from ..lang.errors import SYNTHETIC
from ..runtime.ops import BUILTIN_OPERATIONS
from .analysis import ClosingAnalysis, ProcAnalysis
from .errors import ClosingError

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


@dataclass
class ProcTransformStats:
    """Before/after accounting for one procedure."""

    proc: str
    nodes_before: int = 0
    nodes_after: int = 0
    arcs_before: int = 0
    arcs_after: int = 0
    marked: int = 0
    eliminated: int = 0
    toss_nodes: int = 0
    #: The open procedure's parameters, and those of them Step 5 removed.
    params_before: tuple[str, ...] = ()
    removed_params: tuple[str, ...] = ()
    erased_args: int = 0
    max_out_degree_before: int = 0
    max_out_degree_after: int = 0
    #: One entry per inserted VS_toss: (source node id in the original
    #: graph, |succ(a)| = toss fan-out, number of control-flow paths
    #: through the erased region it replaces).  Section 1's branching
    #: claim is the invariant fan-out <= region paths.
    toss_details: list[tuple[int, int, int]] = field(default_factory=list)

    def branching_preserved(self) -> bool:
        """The Section 1 claim, per procedure: every inserted toss
        branches at most as much as the erased code statically could."""
        return all(fanout <= paths for (_, fanout, paths) in self.toss_details)


def _succ_sets(cfg: ControlFlowGraph, marked: frozenset[int], node: CfgNode):
    """For each out-arc ``a`` of ``node``: the ordered list ``succ(a)``."""
    for arc in cfg.successors(node.id):
        found: dict[int, None] = {}
        if arc.dst in marked:
            found[arc.dst] = None
        else:
            seen: set[int] = set()
            stack = [arc.dst]
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                for onward in cfg.successors(current):
                    if onward.dst in marked:
                        found[onward.dst] = None
                    elif onward.dst not in seen:
                        stack.append(onward.dst)
        # Deterministic order (original node ids) for toss-guard numbering.
        yield arc, sorted(found)


def _region_paths(
    cfg: ControlFlowGraph, marked: frozenset[int], arc: Arc, cap: int = 100_000
) -> int:
    """Count the control-flow paths from ``arc`` through unmarked nodes
    to marked nodes (each unmarked node at most once per path; capped).

    This is the static branching of the erased region in the *original*
    code; Section 1 claims each inserted toss branches at most this much.
    """
    count = 0

    def walk(node_id: int, on_path: set[int]) -> None:
        nonlocal count
        if count >= cap:
            return
        if node_id in marked:
            count += 1
            return
        if node_id in on_path:
            return  # a cycle contributes no terminating path
        on_path.add(node_id)
        for onward in cfg.successors(node_id):
            walk(onward.dst, on_path)
        on_path.discard(node_id)

    walk(arc.dst, set())
    return count


class ProcTransformer:
    """Transforms one procedure ``G_j`` into its closed ``G'_j``."""

    def __init__(self, pa: ProcAnalysis, analysis: ClosingAnalysis):
        self._pa = pa
        self._analysis = analysis
        self._stats = ProcTransformStats(proc=pa.proc)

    def run(self) -> tuple[ControlFlowGraph, ProcTransformStats]:
        pa = self._pa
        cfg = pa.cfg
        stats = self._stats
        stats.nodes_before = cfg.node_count()
        stats.arcs_before = cfg.arc_count()
        stats.marked = len(pa.marked)
        stats.eliminated = cfg.node_count() - len(pa.marked)
        stats.max_out_degree_before = cfg.max_out_degree()

        removed = self._analysis.env_params.get(pa.proc, frozenset())
        kept_params = tuple(p for p in cfg.params if p not in removed)
        stats.params_before = cfg.params
        stats.removed_params = tuple(p for p in cfg.params if p in removed)

        out = ControlFlowGraph(proc_name=cfg.proc_name, params=kept_params)
        id_map: dict[int, int] = {}
        for node_id in sorted(pa.marked):
            new_node = self._rewrite_node(cfg.nodes[node_id], out)
            id_map[node_id] = new_node.id

        for node_id in sorted(pa.marked):
            node = cfg.nodes[node_id]
            if node.kind in (_RETURN, _EXIT):
                continue
            src = id_map[node_id]
            wired = 0
            for arc, successors in _succ_sets(cfg, pa.marked, node):
                if not successors:
                    continue
                if len(successors) == 1:
                    out.add_arc(src, id_map[successors[0]], arc.guard)
                else:
                    toss = out.new_node(
                        _TOSS,
                        location=node.location,
                        bound=len(successors) - 1,
                    )
                    stats.toss_nodes += 1
                    stats.toss_details.append(
                        (node.id, len(successors), _region_paths(cfg, pa.marked, arc))
                    )
                    out.add_arc(src, toss.id, arc.guard)
                    for index, succ_id in enumerate(successors):
                        out.add_arc(toss.id, id_map[succ_id], TossGuard(index))
                wired += 1
            if wired == 0:
                # Every path from here stayed inside eliminated nodes: the
                # original could only diverge invisibly.  Terminate instead.
                sink = out.new_node(_EXIT, location=node.location)
                out.add_arc(src, sink.id, ALWAYS)
            elif node.kind is _COND:
                self._complete_cond(out, cfg, node, src)

        out.prune_unreachable()
        out.validate()
        stats.nodes_after = out.node_count()
        stats.arcs_after = out.arc_count()
        stats.max_out_degree_after = out.max_out_degree()
        return out, stats

    def _complete_cond(
        self, out: ControlFlowGraph, cfg: ControlFlowGraph, node: CfgNode, src: int
    ) -> None:
        """A kept conditional whose branch died entirely (``succ(a) = 0``)
        still needs that branch to go somewhere: terminate it."""
        present = {arc.guard for arc in out.successors(src)}
        for arc in cfg.successors(node.id):
            if arc.guard not in present:
                sink = out.new_node(_EXIT, location=node.location)
                out.add_arc(src, sink.id, arc.guard)

    # -- Step 5 rewrites -------------------------------------------------------------

    def _rewrite_node(self, node: CfgNode, out: ControlFlowGraph) -> CfgNode:
        vi = self._pa.vi_of(node.id)
        if node.kind is _RETURN:
            value = node.value
            if value is not None and (vi & ast.expr_names(value)):
                value = None  # environment-dependent return value dropped
            return out.new_node(_RETURN, location=node.location, value=value)
        if node.kind is _CALL:
            return self._rewrite_call(node, out, vi)
        if node.kind is _ASSIGN:
            return out.new_node(
                _ASSIGN,
                location=node.location,
                target=node.target,
                value=node.value,
                array_size=node.array_size,
            )
        if node.kind is _COND:
            return out.new_node(_COND, location=node.location, expr=node.expr)
        if node.kind is _TOSS:
            return out.new_node(_TOSS, location=node.location, bound=node.bound)
        if node.kind is _START:
            return out.new_node(_START, location=node.location)
        if node.kind is _EXIT:
            return out.new_node(_EXIT, location=node.location)
        raise ClosingError(f"{self._pa.proc}: cannot rewrite node kind {node.kind}")

    def _arg_tainted(self, arg: ast.Expr, vi: frozenset[str]) -> bool:
        return bool(ast.expr_names(arg) & vi)

    def _rewrite_call(self, node: CfgNode, out: ControlFlowGraph, vi: frozenset[str]) -> CfgNode:
        callee = node.callee
        spec = BUILTIN_OPERATIONS.get(callee)
        args: list[ast.Expr] = []
        result = node.result
        if spec is not None:
            for index, arg in enumerate(node.args):
                if index == spec.object_arg:
                    if self._arg_tainted(arg, vi):
                        raise ClosingError(
                            f"{self._pa.proc}: node {node.id} performs {callee} on an "
                            "environment-dependent object; the synchronization "
                            "structure cannot be closed automatically"
                        )
                    args.append(arg)
                elif self._arg_tainted(arg, vi):
                    args.append(ast.AbstractLit(SYNTHETIC))
                    self._stats.erased_args += 1
                else:
                    args.append(arg)
        else:
            callee_env = self._analysis.env_params.get(callee, frozenset())
            callee_cfg = self._analysis.procs[callee].cfg
            for param, arg in zip(callee_cfg.params, node.args):
                if param in callee_env:
                    self._stats.erased_args += 1
                    continue  # Step 5 point 2: drop the argument entirely
                if self._arg_tainted(arg, vi):
                    # The fixpoint should have marked this parameter.
                    raise ClosingError(
                        f"{self._pa.proc}: tainted argument for kept parameter "
                        f"{callee}::{param} — analysis fixpoint incomplete"
                    )
                args.append(arg)
        if result is not None:
            result_uses = ast.expr_names(result) - (
                {result.ident} if isinstance(result, ast.Name) else set()
            )
            if result_uses & vi:
                # The *location* written depends on the environment: drop
                # the result binding (the defined variable is already
                # treated as environment-defined downstream).
                result = None
        return out.new_node(
            _CALL,
            location=node.location,
            callee=callee,
            args=tuple(args),
            result=result,
        )


def transform_program(
    analysis: ClosingAnalysis,
    tracer=None,
) -> tuple[dict[str, ControlFlowGraph], dict[str, ProcTransformStats]]:
    """Apply Steps 4–5 to every procedure of the analysed program.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) records one span
    per transformed procedure (category ``"closing"``), so per-proc
    transform cost is visible on the run timeline.
    """
    cfgs: dict[str, ControlFlowGraph] = {}
    stats: dict[str, ProcTransformStats] = {}
    for proc, pa in analysis.procs.items():
        if tracer is None:
            transformed, proc_stats = ProcTransformer(pa, analysis).run()
        else:
            with tracer.span("transform-proc", cat="closing", proc=proc):
                transformed, proc_stats = ProcTransformer(pa, analysis).run()
        cfgs[proc] = transformed
        stats[proc] = proc_stats
    return cfgs, stats
