"""Define-use graphs ``G~_j`` (Section 4 of the paper).

"If a node n defines a variable v and a node n' uses variable v, and if
there is a control-flow path from n to n' along which v is not defined,
then there is an arc (n, n') in G~_j labelled with v."

We compute this with the classic reaching-definitions worklist over the
CFG.  *Strong* definitions kill earlier definitions of the same
variable; *weak* definitions (through pointers, into containers, via
``&x`` call arguments) do not kill — which is exactly the "along which v
is not defined" condition interpreted conservatively (a path through a
may-definition might not actually redefine v).

Parameters are modelled as defined at the START node: the paper treats
them as fresh variables initialised when the procedure is called.

The reaching definitions at a node are a map from each variable to the
frozenset of nodes whose definition of it may reach there.  Maps are
never changed once built, so they are shared: a node that defines
nothing passes its in-map on as its out-map, and a node with one
predecessor takes that predecessor's out-map as its in-map.  A defining
node copies its in-map, sets each strongly defined variable to itself
alone and adds itself to each weakly defined one; a join merges its
predecessors' maps variable by variable.  A node's arcs are read from
its in-map, one lookup per variable it uses.  So the work per node is
bounded by the number of variables, not by the number of definitions
in the procedure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..cfg.graph import ControlFlowGraph
from .accesses import NodeAccess, node_access

#: Reaching definitions at one point: variable -> defining nodes.
Reaching = dict[str, frozenset[int]]

_NOTHING: Reaching = {}


@dataclass(frozen=True, slots=True)
class DefUseArc:
    """Definition of ``var`` at ``def_node`` may reach its use at ``use_node``."""

    def_node: int
    use_node: int
    var: str


class DefUseGraph:
    """The define-use graph of one procedure."""

    def __init__(
        self,
        proc_name: str,
        arcs: set[DefUseArc],
        accesses: dict[int, NodeAccess],
    ):
        self.proc_name = proc_name
        self.arcs = arcs
        self.accesses = accesses
        self._out: dict[int, list[DefUseArc]] = {}
        self._in: dict[int, list[DefUseArc]] = {}
        for arc in arcs:
            self._out.setdefault(arc.def_node, []).append(arc)
            self._in.setdefault(arc.use_node, []).append(arc)

    def uses_fed_by(self, node_id: int) -> list[DefUseArc]:
        """Arcs out of ``node_id`` (its definitions feeding later uses)."""
        return self._out.get(node_id, [])

    def defs_feeding(self, node_id: int) -> list[DefUseArc]:
        """Arcs into ``node_id`` (definitions its uses may read)."""
        return self._in.get(node_id, [])

    def arc_count(self) -> int:
        return len(self.arcs)


def _join(maps: list[Reaching]) -> Reaching:
    """The union of ``maps``, variable by variable."""
    first = maps[0]
    merged = None
    for other in maps[1:]:
        if other is first:
            continue
        if merged is None:
            merged = dict(first)
        for var, defs in other.items():
            mine = merged.get(var)
            if mine is None:
                merged[var] = defs
            elif mine is not defs and not defs <= mine:
                merged[var] = mine | defs
    return first if merged is None else merged


def compute_defuse(
    cfg: ControlFlowGraph, points_to: dict[str, set[str]] | None = None
) -> DefUseGraph:
    """Compute the define-use graph of ``cfg``.

    ``points_to`` is the procedure-local pointer map (see
    :meth:`repro.dataflow.alias.PointsToResult.local_pointer_map`);
    without it, ``*p = e`` statements define nothing locally.
    """
    accesses: dict[int, NodeAccess] = {}
    #: Defining node -> (its strongly defined variables, its weakly
    #: defined ones that it does not also define strongly).
    defines: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
    for node in cfg:
        access = node_access(node, points_to)
        accesses[node.id] = access
        if access.defs:
            strong = frozenset(d.var for d in access.defs if d.strong)
            weak = frozenset(d.var for d in access.defs if not d.strong) - strong
            defines[node.id] = (strong, weak)
    # Parameters are defined at START.
    start = cfg.start_id
    if cfg.params:
        strong, weak = defines.get(start, (frozenset(), frozenset()))
        defines[start] = (strong, weak | (frozenset(cfg.params) - strong))

    # Worklist reaching-definitions.
    preds = {n: [arc.src for arc in cfg.predecessors(n)] for n in cfg.nodes}
    reaching_in: dict[int, Reaching] = {}
    reaching_out: dict[int, Reaching] = {n: _NOTHING for n in cfg.nodes}
    worklist: deque[int] = deque(cfg.nodes)
    queued: set[int] = set(cfg.nodes)
    while worklist:
        node_id = worklist.popleft()
        queued.discard(node_id)
        sources = preds[node_id]
        if not sources:
            in_map = _NOTHING
        elif len(sources) == 1:
            in_map = reaching_out[sources[0]]
        else:
            in_map = _join([reaching_out[src] for src in sources])
        reaching_in[node_id] = in_map
        definition = defines.get(node_id)
        if definition is None:
            out_map = in_map
        else:
            strong, weak = definition
            own = frozenset((node_id,))
            out_map = dict(in_map)
            for var in strong:
                out_map[var] = own
            for var in weak:
                defs = out_map.get(var)
                out_map[var] = own if defs is None else defs | own
        previous = reaching_out[node_id]
        if out_map is not previous and out_map != previous:
            reaching_out[node_id] = out_map
            for arc in cfg.successors(node_id):
                if arc.dst not in queued:
                    queued.add(arc.dst)
                    worklist.append(arc.dst)

    arcs: set[DefUseArc] = set()
    for node_id, access in accesses.items():
        if not access.uses:
            continue
        in_map = reaching_in[node_id]
        for var in access.uses:
            for def_node in in_map.get(var, ()):
                arcs.add(DefUseArc(def_node, node_id, var))
    return DefUseGraph(cfg.proc_name, arcs, accesses)
