"""CFG / source / environment-input coverage for verification runs.

:class:`CoverageCollector` consumes the per-process node traces that the
execution engines record (``Interpreter`` / ``CompiledEngine`` with
``enable_trace()``) and accumulates, at the same exact-counter anchoring
as the hot-spot profiler:

* per-CFG-node and per-edge visit counts,
* per-process reached node sets (against a statically computed
  reachable universe),
* **environment-input coverage** — the distribution of ``VS_toss``
  values actually driven at each toss point.  After the closing
  transformation every extern-procedure call site *is* a TOSS node
  carrying the call site's :class:`~repro.lang.errors.SourceLocation`,
  so toss-point coverage is extern-call-site coverage.

As a search observer the collector drains each engine's trace buffer
right after the segment that produced it (process startup, a toss
answer, a visible-operation execution), and the event says whether that
segment ran on *fresh* ground (``fresh_edge``) or was prefix replay.  Replayed
segments still advance the collector's control-context parser (the call
stack must track every executed node) but are not counted — which is
what makes coverage merge counter-exactly across parallel workers and
work-stealing shards: every fresh edge is counted exactly once
system-wide, so ``jobs=1``, ``jobs=4`` and ``--scheduler steal`` produce
bit-identical counters, as do the walk and compiled engines (their
traces are instruction-for-instruction identical).

Edges are derived, not recorded: the engines only log visited nodes
``(proc_name, node_id)``.  Because a START node never has in-arcs and a
RETURN node never has out-arcs, procedure entry and return are
recognisable from static node kinds alone; the parser keeps a per-process
caller stack so the ``call -> next`` arc in the caller is credited when
the callee returns.

Internally an edge is keyed by its ``(src_entry, dst_entry)`` pair —
every recordable edge is intra-procedure (procedure entry pushes, it
does not draw an arc), so the pair maps 1:1 onto the static ``(proc,
src, dst)`` arc and lets the hot path count a whole boundary-free
segment with three C-speed bulk updates (``Counter.update`` /
``set.update`` / ``zip``) instead of a Python-level loop per node.

The collector pickles its counters plus a JSON-ready static table
(:attr:`static`) and drops the transient parser state, so worker shards
ship their shard back to the coordinator exactly like ``SearchStats`` /
``HotSpotProfiler`` and :meth:`as_dict` stays self-contained for the
HTML report generator.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Any, Iterable, Mapping, Sequence

from ..cfg.nodes import NodeKind
from .observer import SearchObserver

__all__ = ["CoverageCollector"]

_START = NodeKind.START
_RETURN = NodeKind.RETURN
_EXIT = NodeKind.EXIT


class _Parser:
    """Per-process control-context parser state."""

    __slots__ = ("stack", "last")

    def __init__(self) -> None:
        self.stack: list[tuple[str, int]] = []  # pending CALL nodes, outermost first
        self.last: tuple[str, int] | None = None  # previously executed node


def _static_tables(system: Any) -> tuple[dict, dict]:
    """Build (static_json, kind_table) from a System's CFGs + process specs."""
    procs: dict[str, Any] = {}
    kinds: dict[tuple[str, int], NodeKind] = {}
    callees: dict[str, set[str]] = {}
    for proc_name in sorted(system.cfgs):
        cfg = system.cfgs[proc_name]
        nodes = {}
        called: set[str] = set()
        for node_id in sorted(cfg.nodes):
            node = cfg.nodes[node_id]
            kinds[(proc_name, node_id)] = node.kind
            info: dict[str, Any] = {
                "kind": node.kind.value,
                "line": node.location.line,
                "column": node.location.column,
            }
            if node.kind is NodeKind.TOSS:
                info["bound"] = node.bound
            if node.kind is NodeKind.CALL and node.callee in system.cfgs:
                called.add(node.callee)
            nodes[str(node_id)] = info
        callees[proc_name] = called
        procs[proc_name] = {
            "start": cfg.start_id,
            "nodes": nodes,
            "arcs": sorted((arc.src, arc.dst) for arc in cfg.arcs),
        }
    processes: dict[str, Any] = {}
    for name, top_proc, _args in system.process_specs:
        reachable: list[str] = []
        seen = {top_proc}
        frontier = [top_proc]
        while frontier:
            proc = frontier.pop()
            reachable.append(proc)
            for callee in sorted(callees.get(proc, ())):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        processes[name] = {"proc": top_proc, "procs": sorted(reachable)}
    static = {"procs": procs, "processes": processes}
    return static, kinds


class CoverageCollector(SearchObserver):
    """Accumulates node/edge/toss-value coverage from engine traces; a
    :class:`~repro.obs.observer.SearchObserver`.

    Construct with the :class:`~repro.runtime.system.System` being
    explored (the static universe); a bare ``CoverageCollector()`` is an
    empty accumulator suitable as a merge target.
    """

    def __init__(self, system: Any | None = None):
        #: visit count per (proc_name, node_id), fresh segments only
        self.nodes: Counter = Counter()
        #: visit count per ((proc_name, src_id), (proc_name, dst_id))
        #: entry pair — see the module docstring; every edge is
        #: intra-procedure, so this is 1:1 with the static arcs
        self.edges: Counter = Counter()
        #: count per (proc_name, toss_node_id, value)
        self.toss_values: Counter = Counter()
        #: process name -> set of (proc_name, node_id) it reached
        self.process_nodes: dict[str, set] = {}
        self.static: dict | None = None
        self._kinds: dict | None = None
        #: entries whose node kind is START / RETURN / EXIT — the only
        #: places the edge derivation needs per-node logic; a segment
        #: disjoint from this set takes the bulk-update fast path
        self._boundary: frozenset = frozenset()
        self._parsers: dict[str, _Parser] = {}
        if system is not None:
            self.static, self._kinds = _static_tables(system)
            self._boundary = frozenset(
                entry
                for entry, kind in self._kinds.items()
                if kind is _START or kind is _RETURN or kind is _EXIT
            )

    # -- pickling (worker -> coordinator shipping) ----------------------------------

    def __getstate__(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "toss_values": self.toss_values,
            "process_nodes": self.process_nodes,
            "static": self.static,
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kinds = None
        self._boundary = frozenset()
        self._parsers = {}

    # -- trace consumption -----------------------------------------------------------

    def sync(self, process: str, control: Sequence[tuple[str, int]]) -> None:
        """Re-anchor the parser after a checkpoint restore.

        ``control`` is the engine's activation stack, outermost first
        (:meth:`control_nodes`) as a sequence of ``(proc_name, node_id)``
        tuples: every activation below the top is a CALL node waiting for
        its callee; the top activation's node is the pending request node
        — the node whose out-edge the next resume will take.  Runs once
        per rewound process on every checkpoint restore, so it must stay
        cheap.
        """
        parser = self._parsers.get(process)
        if parser is None:
            parser = self._parsers[process] = _Parser()
        if control:
            parser.stack = list(control[:-1])
            parser.last = control[-1]
        else:
            parser.stack = []
            parser.last = None

    def segment(
        self,
        process: str,
        entries: Iterable[tuple[str, int]],
        counted: bool,
    ) -> None:
        """Consume one drained trace segment of ``process``.

        ``counted`` is the segment's freshness: replayed segments update
        only the parser context so subsequent fresh segments attribute
        their edges correctly.
        """
        if self._kinds is None:
            raise RuntimeError("collector has no static tables (unpickled shard?)")
        kinds = self._kinds
        parser = self._parsers.get(process)
        if parser is None:
            parser = self._parsers[process] = _Parser()
        last = parser.last
        if not isinstance(entries, (list, tuple)):
            entries = list(entries)
        if not entries:
            return
        # Bulk path: a long segment with no procedure entry/return/exit
        # anywhere in sight — every consecutive pair is a plain
        # intra-procedure edge, so the whole segment counts in three
        # C-speed bulk operations.  Short segments (the common case for
        # call-heavy programs, where segments average a handful of
        # entries) go straight to the loop: the boundary scan costs more
        # than it saves below ~8 entries.
        if (
            len(entries) >= 8
            and last is not None
            and last not in self._boundary
            and self._boundary.isdisjoint(entries)
        ):
            if counted:
                self.nodes.update(entries)
                reached = self.process_nodes.get(process)
                if reached is None:
                    reached = self.process_nodes[process] = set()
                reached.update(entries)
                self.edges.update(zip(chain((last,), entries), entries))
            parser.last = entries[-1]
            return
        stack = parser.stack
        lkind = kinds[last] if last is not None else None
        nodes = self.nodes
        edges = self.edges
        reached = None
        if counted:
            reached = self.process_nodes.get(process)
            if reached is None:
                reached = self.process_nodes[process] = set()
        for entry in entries:
            ekind = kinds[entry]
            edge = None
            if last is not None:
                if lkind is _RETURN:
                    if stack:
                        caller = stack.pop()
                        edge = (caller, entry)
                elif ekind is _START:
                    stack.append(last)
                elif lkind is not _EXIT:
                    edge = (last, entry)
            if counted:
                nodes[entry] += 1
                reached.add(entry)
                if edge is not None:
                    edges[edge] += 1
            last = entry
            lkind = ekind
        parser.last = last

    # -- the observer -----------------------------------------------------------------

    def on_run_start(self, run: Any, counted: bool) -> None:
        """A fresh run: reset the parsers, consume the startup segments."""
        self._parsers.clear()
        for process in run.processes:
            entries = process.engine.take_trace()
            if entries:
                self.segment(process.name, entries, counted)

    def on_restore(self, run: Any, moved: list) -> None:
        """Re-anchor the parsers of the ``moved`` processes on their
        restored control stacks.  A process the rewind skipped has not
        stepped since the checkpoint, so no segment moved its parser
        past it.  Trace buffers are empty here (every drain immediately
        follows the resume that filled it), but drain defensively so a
        stale tail can never be attributed to post-restore ground."""
        for process in moved:
            process.engine.take_trace()
            self.sync(process.name, process.engine.control_nodes())

    def on_step(self, process, request, depth, fanout, created, fresh_edge) -> None:
        entries = process.engine.take_trace()
        if entries:
            self.segment(process.name, entries, fresh_edge)

    def on_toss(self, process, request, value, depth, created, fresh_edge) -> None:
        # Toss *values* anchor on the answering edge, not on point
        # creation: each fresh traversal of a toss arc counts once
        # system-wide.
        if fresh_edge:
            self.toss_values[(request.proc_name, request.node_id, value)] += 1
        entries = process.engine.take_trace()
        if entries:
            self.segment(process.name, entries, fresh_edge)

    # -- merging ----------------------------------------------------------------------

    def add(self, other: "CoverageCollector") -> None:
        """Fold another collector's counters into this one (plain sums)."""
        self.nodes.update(other.nodes)
        self.edges.update(other.edges)
        self.toss_values.update(other.toss_values)
        for process, reached in other.process_nodes.items():
            self.process_nodes.setdefault(process, set()).update(reached)
        if self.static is None:
            self.static = other.static
            self._kinds = other._kinds
            self._boundary = other._boundary

    @classmethod
    def merged(cls, parts: Iterable["CoverageCollector | None"]) -> "CoverageCollector":
        """Merge worker shards; ``None`` entries are skipped."""
        out = cls()
        for part in parts:
            if part is not None:
                out.add(part)
        return out

    # -- derived views -----------------------------------------------------------------

    @property
    def nodes_total(self) -> int:
        if not self.static:
            return 0
        return sum(len(proc["nodes"]) for proc in self.static["procs"].values())

    @property
    def nodes_covered(self) -> int:
        return len(self.nodes)

    @property
    def edges_total(self) -> int:
        if not self.static:
            return 0
        return sum(len(proc["arcs"]) for proc in self.static["procs"].values())

    @property
    def edges_covered(self) -> int:
        return len(self.edges)

    def node_percent(self) -> float:
        total = self.nodes_total
        return 100.0 * self.nodes_covered / total if total else 0.0

    def unreached_nodes(self) -> dict[str, list[int]]:
        """proc_name -> sorted node ids never visited (any process)."""
        if not self.static:
            return {}
        out: dict[str, list[int]] = {}
        for proc_name, proc in self.static["procs"].items():
            missing = [
                int(nid) for nid in proc["nodes"] if (proc_name, int(nid)) not in self.nodes
            ]
            if missing:
                out[proc_name] = sorted(missing)
        return out

    def toss_points(self) -> dict[tuple[str, int], dict]:
        """Per toss point: static bound, observed value counts, missing values."""
        bounds: dict[tuple[str, int], int] = {}
        if self.static:
            for proc_name, proc in self.static["procs"].items():
                for nid, info in proc["nodes"].items():
                    if info["kind"] == NodeKind.TOSS.value:
                        bounds[(proc_name, int(nid))] = info["bound"]
        points: dict[tuple[str, int], dict] = {
            key: {"bound": bound, "values": {}} for key, bound in bounds.items()
        }
        for (proc_name, node_id, value), count in self.toss_values.items():
            point = points.setdefault(
                (proc_name, node_id), {"bound": None, "values": {}}
            )
            point["values"][value] = point["values"].get(value, 0) + count
        for point in points.values():
            bound = point["bound"]
            if bound is not None:
                point["missing"] = [
                    value for value in range(bound + 1) if value not in point["values"]
                ]
            else:
                point["missing"] = []
        return points

    def line_coverage(self) -> dict[int, dict]:
        """Source-line projection over all procedures.

        Returns ``line -> {"nodes": total, "covered": reached, "count":
        visit sum}`` for every node with a real location (line > 0 —
        synthesized closing nodes keep their extern call site's
        location, so they project too).
        """
        if not self.static:
            return {}
        lines: dict[int, dict] = {}
        for proc_name, proc in self.static["procs"].items():
            for nid, info in proc["nodes"].items():
                line = info["line"]
                if line <= 0:
                    continue
                entry = lines.setdefault(line, {"nodes": 0, "covered": 0, "count": 0})
                entry["nodes"] += 1
                count = self.nodes.get((proc_name, int(nid)), 0)
                if count:
                    entry["covered"] += 1
                    entry["count"] += count
        return lines

    def lines_reached(self) -> tuple[int, int, list[int]]:
        """(reached, total, sorted never-executed lines)."""
        lines = self.line_coverage()
        reached = sum(1 for entry in lines.values() if entry["covered"])
        missing = sorted(line for line, entry in lines.items() if not entry["covered"])
        return reached, len(lines), missing

    # -- serialisation ----------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready, self-contained dict (static tables included)."""

        def strkeys(counter: Mapping) -> dict:
            ranked = sorted(counter.items(), key=lambda item: (-item[1], str(item[0])))
            return {
                ":".join(str(part) for part in key): count for key, count in ranked
            }

        def edge_strkeys(counter: Mapping) -> dict:
            ranked = sorted(counter.items(), key=lambda item: (-item[1], str(item[0])))
            return {
                f"{src[0]}:{src[1]}:{dst[1]}": count for (src, dst), count in ranked
            }

        per_proc: dict[str, Any] = {}
        unreached = self.unreached_nodes()
        if self.static:
            for proc_name, proc in self.static["procs"].items():
                total = len(proc["nodes"])
                covered = sum(
                    1 for nid in proc["nodes"] if (proc_name, int(nid)) in self.nodes
                )
                per_proc[proc_name] = {
                    "nodes_total": total,
                    "nodes_covered": covered,
                    "unreached": unreached.get(proc_name, []),
                }
        per_process: dict[str, Any] = {}
        if self.static:
            for process, info in self.static["processes"].items():
                universe = {
                    (proc, int(nid))
                    for proc in info["procs"]
                    for nid in self.static["procs"][proc]["nodes"]
                }
                reached = self.process_nodes.get(process, set()) & universe
                per_process[process] = {
                    "procs": info["procs"],
                    "nodes_total": len(universe),
                    "nodes_covered": len(reached),
                    "unreached": sorted(
                        f"{proc}:{nid}" for proc, nid in universe - reached
                    ),
                }
        toss = {}
        for (proc_name, node_id), point in sorted(
            self.toss_points().items(), key=lambda item: (item[0][0], item[0][1])
        ):
            toss[f"{proc_name}:{node_id}"] = {
                "bound": point["bound"],
                "values": {
                    str(value): count for value, count in sorted(point["values"].items())
                },
                "missing": point["missing"],
            }
        reached, total, missing_lines = self.lines_reached()
        return {
            "version": 1,
            "summary": {
                "nodes_total": self.nodes_total,
                "nodes_covered": self.nodes_covered,
                "node_percent": round(self.node_percent(), 2),
                "edges_total": self.edges_total,
                "edges_covered": self.edges_covered,
                "toss_points_total": len(
                    [1 for point in self.toss_points().values() if point["bound"] is not None]
                ),
                "toss_points_covered": len(
                    {(proc, nid) for proc, nid, _value in self.toss_values}
                ),
                "lines_total": total,
                "lines_reached": reached,
                "lines_missing": missing_lines,
            },
            "procs": per_proc,
            "processes": per_process,
            "nodes": strkeys(self.nodes),
            "edges": edge_strkeys(self.edges),
            "toss_values": toss,
            "static": self.static,
        }

    # -- rendering --------------------------------------------------------------------

    def render_summary(self, program: str | None = None) -> str:
        """A short multi-line text summary (CLI ``--coverage``)."""
        label = f"{program}: " if program else ""
        lines_out = [
            f"coverage: {label}nodes {self.nodes_covered}/{self.nodes_total}"
            f" ({self.node_percent():.1f}%), edges"
            f" {self.edges_covered}/{self.edges_total}"
        ]
        for proc_name, info in sorted(self.unreached_nodes().items()):
            lines_out.append(
                f"  {proc_name}: unreached nodes {', '.join(map(str, info))}"
            )
        reached, total, missing = self.lines_reached()
        if total:
            tail = f"; never executed: {', '.join(map(str, missing))}" if missing else ""
            lines_out.append(f"  lines: {reached}/{total} reached{tail}")
        for (proc_name, node_id), point in sorted(self.toss_points().items()):
            if point["bound"] is None:
                continue
            seen = sorted(point["values"])
            missing_values = point["missing"]
            if missing_values:
                lines_out.append(
                    f"  toss {proc_name}:{node_id}: saw {len(seen)}/"
                    f"{point['bound'] + 1} values (missing"
                    f" {', '.join(map(str, missing_values))})"
                )
        return "\n".join(lines_out)
