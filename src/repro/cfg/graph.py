"""The :class:`ControlFlowGraph` container and graph utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ReproError
from .nodes import Arc, CfgNode, Guard, NodeKind

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


class CfgError(ReproError):
    """Structural misuse of a control-flow graph."""


@dataclass
class ControlFlowGraph:
    """The control-flow graph ``G_j = (N_j, A_j)`` of one procedure.

    Invariants (checked by :meth:`validate`):

    * exactly one START node, with no incoming arcs;
    * RETURN/EXIT nodes have no outgoing arcs;
    * every other node has at least one outgoing arc;
    * out-arc guards are consistent with the node kind (a single
      AlwaysGuard for straight-line nodes; Bool/Case/Default guards for
      COND; TossGuard for TOSS).
    """

    proc_name: str
    params: tuple[str, ...] = ()
    nodes: dict[int, CfgNode] = field(default_factory=dict)
    arcs: list[Arc] = field(default_factory=list)
    start_id: int = -1
    _next_id: int = 0
    _succ: dict[int, list[Arc]] = field(default_factory=dict)
    _pred: dict[int, list[Arc]] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    def new_node(self, kind: NodeKind, **payload) -> CfgNode:
        node = CfgNode(id=self._next_id, kind=kind, **payload)
        self._next_id += 1
        self.nodes[node.id] = node
        self._succ[node.id] = []
        self._pred[node.id] = []
        if kind is _START:
            if self.start_id != -1:
                raise CfgError(f"{self.proc_name}: duplicate START node")
            self.start_id = node.id
        return node

    def add_arc(self, src: int, dst: int, guard: Guard) -> Arc:
        if src not in self.nodes or dst not in self.nodes:
            raise CfgError(f"{self.proc_name}: arc endpoints must be existing nodes")
        arc = Arc(src, dst, guard)
        self.arcs.append(arc)
        self._succ[src].append(arc)
        self._pred[dst].append(arc)
        return arc

    # -- queries ---------------------------------------------------------------

    @property
    def start(self) -> CfgNode:
        if self.start_id == -1:
            raise CfgError(f"{self.proc_name}: graph has no START node")
        return self.nodes[self.start_id]

    def successors(self, node_id: int) -> list[Arc]:
        return self._succ[node_id]

    def predecessors(self, node_id: int) -> list[Arc]:
        return self._pred[node_id]

    def node_count(self) -> int:
        return len(self.nodes)

    def arc_count(self) -> int:
        return len(self.arcs)

    def nodes_of_kind(self, *kinds: NodeKind) -> list[CfgNode]:
        wanted = set(kinds)
        return [node for node in self.nodes.values() if node.kind in wanted]

    def max_out_degree(self) -> int:
        """The static degree of branching (Section 1's metric)."""
        if not self.nodes:
            return 0
        return max(len(arcs) for arcs in self._succ.values())

    def reachable_from_start(self) -> set[int]:
        """Node ids reachable from the START node."""
        seen: set[int] = set()
        stack = [self.start_id]
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            for arc in self._succ[node_id]:
                if arc.dst not in seen:
                    stack.append(arc.dst)
        return seen

    def prune_unreachable(self) -> int:
        """Drop nodes unreachable from START; returns how many were removed."""
        reachable = self.reachable_from_start()
        dead = [node_id for node_id in self.nodes if node_id not in reachable]
        for node_id in dead:
            del self.nodes[node_id]
            del self._succ[node_id]
            del self._pred[node_id]
        if dead:
            dead_set = set(dead)
            self.arcs = [
                arc for arc in self.arcs if arc.src not in dead_set and arc.dst not in dead_set
            ]
            for node_id in self.nodes:
                self._succ[node_id] = [a for a in self._succ[node_id] if a.dst not in dead_set]
                self._pred[node_id] = [a for a in self._pred[node_id] if a.src not in dead_set]
        return len(dead)

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raise :class:`CfgError` if broken."""
        from .nodes import AlwaysGuard, BoolGuard, CaseGuard, DefaultGuard, TossGuard

        if self.start_id == -1:
            raise CfgError(f"{self.proc_name}: no START node")
        if self._pred[self.start_id]:
            raise CfgError(f"{self.proc_name}: START node has incoming arcs")
        for node in self.nodes.values():
            out = self._succ[node.id]
            if node.kind in (_RETURN, _EXIT):
                if out:
                    raise CfgError(
                        f"{self.proc_name}: termination node {node.id} has outgoing arcs"
                    )
                continue
            if not out:
                raise CfgError(f"{self.proc_name}: node {node.id} ({node.kind}) has no out-arcs")
            if node.kind in (_START, _ASSIGN, _CALL):
                if len(out) != 1 or not isinstance(out[0].guard, AlwaysGuard):
                    raise CfgError(
                        f"{self.proc_name}: node {node.id} ({node.kind}) must have a "
                        "single unconditional out-arc"
                    )
            elif node.kind is _COND:
                guards = [arc.guard for arc in out]
                if all(isinstance(g, BoolGuard) for g in guards):
                    expected = {g.expected for g in guards}  # type: ignore[union-attr]
                    if expected != {True, False}:
                        raise CfgError(
                            f"{self.proc_name}: COND node {node.id} must cover both "
                            "true and false branches"
                        )
                elif all(isinstance(g, (CaseGuard, DefaultGuard)) for g in guards):
                    defaults = [g for g in guards if isinstance(g, DefaultGuard)]
                    if len(defaults) != 1:
                        raise CfgError(
                            f"{self.proc_name}: switch COND node {node.id} needs exactly "
                            "one default arc"
                        )
                    values = [g.value for g in guards if isinstance(g, CaseGuard)]
                    if len(values) != len(set(values)):
                        raise CfgError(
                            f"{self.proc_name}: switch COND node {node.id} has duplicate "
                            "case guards"
                        )
                else:
                    raise CfgError(
                        f"{self.proc_name}: COND node {node.id} has inconsistent guards"
                    )
            elif node.kind is _TOSS:
                guards = [arc.guard for arc in out]
                if not all(isinstance(g, TossGuard) for g in guards):
                    raise CfgError(
                        f"{self.proc_name}: TOSS node {node.id} must have toss guards"
                    )
                values = sorted(g.value for g in guards)  # type: ignore[union-attr]
                if values != list(range(node.bound + 1)):
                    raise CfgError(
                        f"{self.proc_name}: TOSS node {node.id} guards must cover "
                        f"0..{node.bound}, got {values}"
                    )

    # -- iteration -----------------------------------------------------------------

    def __iter__(self) -> Iterator[CfgNode]:
        return iter(self.nodes.values())


def copy_cfg(cfg: ControlFlowGraph) -> ControlFlowGraph:
    """A structural copy (fresh node objects, same ids)."""
    from dataclasses import replace

    out = ControlFlowGraph(proc_name=cfg.proc_name, params=cfg.params)
    out.start_id = cfg.start_id
    out._next_id = cfg._next_id
    for node_id, node in cfg.nodes.items():
        out.nodes[node_id] = replace(node)
        out._succ[node_id] = []
        out._pred[node_id] = []
    for arc in cfg.arcs:
        out.add_arc(arc.src, arc.dst, arc.guard)
    return out
