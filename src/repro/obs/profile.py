"""Hot-spot profiling of the search: where do the transitions go?

A stateless search's cost is execution: almost every cycle is spent
re-running transitions.  The :class:`HotSpotProfiler` answers *which*
transitions — it is a search observer (:mod:`repro.obs.observer`) and
accumulates

* per-CFG-node execution counts (which program points dominate),
* per-operation counts (``send`` on which object, ``sem_p``, ...),
* per-process counts (which process is scheduled most),
* per-toss-point counts (which inserted ``VS_toss`` choice points fan
  the search out),
* depth and branching-degree histograms of the explored choice tree, and
* a **per-phase wall-time breakdown** (:attr:`HotSpotProfiler.phases`):
  seconds spent in the engine (stepping processes), computing canonical
  state fingerprints, in POR analysis, in the state cache and in the
  coverage collector.  The explorer times its named calls into it;
  phases not exercised by a configuration
  (e.g. ``fingerprint`` with nothing consuming state keys) simply stay
  absent.

All counts are anchored exactly like the search counters — schedule
steps on *fresh edges*, toss points at choice-point creation — so the
profile totals equal ``transitions_executed`` / ``toss_points`` and a
merged parallel profile (jobs=N) is counter-for-counter identical to
the sequential one.  Profiles are plain ``Counter`` aggregates:
picklable (workers ship theirs back to the coordinator), mergeable
(:meth:`HotSpotProfiler.add`) and JSON-exportable
(:meth:`HotSpotProfiler.as_dict`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from .observer import SearchObserver

#: Default number of rows in each rendered top-N table.
DEFAULT_TOP = 10


class HotSpotProfiler(SearchObserver):
    """Accumulates hot-spot counters; a
    :class:`~repro.obs.observer.SearchObserver`.

    It counts every :meth:`on_step` on a fresh edge (node, operation,
    process and depth; the branching degree when the step created its
    choice point) and every :meth:`on_toss` that created a choice point
    (toss point and branching degree).
    """

    def __init__(self) -> None:
        #: (cfg proc name, node id) -> visible-operation executions.
        self.nodes: Counter = Counter()
        #: (operation, object name or None) -> executions.
        self.operations: Counter = Counter()
        #: process name -> scheduled transitions.
        self.processes: Counter = Counter()
        #: (cfg proc name, node id) -> fresh VS_toss choice points.
        self.tosses: Counter = Counter()
        #: depth -> fresh transitions executed at that depth.
        self.depth_hist: Counter = Counter()
        #: branching degree -> choice points created with that fan-out.
        self.branching_hist: Counter = Counter()
        #: explorer phase name -> wall seconds (``engine`` /
        #: ``fingerprint`` / ``por`` / ``cache`` / ``coverage``), filled
        #: by the explorer's timed calls.  A ``Counter`` so absent
        #: phases read as 0.0 and merging is a plain sum.
        self.phases: Counter = Counter()

    # -- the observer --------------------------------------------------------

    def on_step(self, process, request, depth, fanout, created, fresh_edge) -> None:
        if not fresh_edge:
            return
        self.nodes[(request.proc_name, request.node_id)] += 1
        obj = request.obj
        self.operations[(request.op, obj.name if obj is not None else None)] += 1
        self.processes[process.name] += 1
        self.depth_hist[depth] += 1
        if created:
            self.branching_hist[fanout] += 1

    def on_toss(self, process, request, value, depth, created, fresh_edge) -> None:
        if created:
            self.tosses[(request.proc_name, request.node_id)] += 1
            self.branching_hist[request.bound + 1] += 1

    # -- aggregation ---------------------------------------------------------

    def add(self, other: "HotSpotProfiler") -> None:
        """Fold another profile in (coordinator merging worker profiles).

        Every field is a plain sum, so merging commutes and a parallel
        profile equals the sequential one."""
        self.nodes.update(other.nodes)
        self.operations.update(other.operations)
        self.processes.update(other.processes)
        self.tosses.update(other.tosses)
        self.depth_hist.update(other.depth_hist)
        self.branching_hist.update(other.branching_hist)
        self.phases.update(other.phases)

    @classmethod
    def merged(cls, parts) -> "HotSpotProfiler":
        """A fresh profile holding the sum of ``parts``."""
        out = cls()
        for part in parts:
            if part is not None:
                out.add(part)
        return out

    @property
    def total_transitions(self) -> int:
        """Transitions profiled; equals the search's
        ``transitions_executed``."""
        return sum(self.processes.values())

    # -- presentation --------------------------------------------------------

    def _ranked(self, counter: Counter) -> list[tuple[Any, int]]:
        """Deterministic ranking: by count descending, then key."""
        return sorted(counter.items(), key=lambda item: (-item[1], str(item[0])))

    def top_nodes(self, n: int = DEFAULT_TOP) -> list[tuple[tuple[str, int], int]]:
        """The ``n`` hottest CFG nodes as ``((proc, node_id), count)``."""
        return self._ranked(self.nodes)[:n]

    def top_tosses(self, n: int = DEFAULT_TOP) -> list[tuple[tuple[str, int], int]]:
        """The ``n`` hottest toss points as ``((proc, node_id), count)``."""
        return self._ranked(self.tosses)[:n]

    def top_operations(self, n: int = DEFAULT_TOP) -> list[tuple[tuple[str, str | None], int]]:
        """The ``n`` hottest operations as ``((op, obj), count)``."""
        return self._ranked(self.operations)[:n]

    @staticmethod
    def _histogram_line(hist: Counter) -> str:
        if not hist:
            return "(empty)"
        total = sum(hist.values())
        parts = [f"{key}:{hist[key]}" for key in sorted(hist)]
        return f"n={total}  " + " ".join(parts)

    def render_table(self, top: int = DEFAULT_TOP, system: Any = None) -> str:
        """The human-readable hot-spot report (``repro search --profile``).

        ``system`` (a :class:`repro.runtime.System`), when given,
        annotates CFG nodes with their source description.
        """

        def node_label(proc: str, node_id: int) -> str:
            label = f"{proc}:{node_id}"
            if system is not None:
                cfg = getattr(system, "cfgs", {}).get(proc)
                if cfg is not None and node_id in cfg.nodes:
                    label += f"  {cfg.nodes[node_id].describe()}"
            return label

        total = self.total_transitions
        lines = [f"hot spots ({total} transitions profiled)"]

        lines.append(f"\n  top {top} CFG nodes (visible-operation executions):")
        for rank, ((proc, node_id), count) in enumerate(self.top_nodes(top), 1):
            share = count / total if total else 0.0
            lines.append(
                f"    {rank:>2}. {count:>9}  {share:>6.1%}  {node_label(proc, node_id)}"
            )

        if self.tosses:
            toss_total = sum(self.tosses.values())
            lines.append(
                f"\n  top {top} toss points ({toss_total} choice points):"
            )
            for rank, ((proc, node_id), count) in enumerate(self.top_tosses(top), 1):
                share = count / toss_total if toss_total else 0.0
                lines.append(
                    f"    {rank:>2}. {count:>9}  {share:>6.1%}  {node_label(proc, node_id)}"
                )

        lines.append(f"\n  top {top} operations:")
        for rank, ((op, obj), count) in enumerate(self.top_operations(top), 1):
            share = count / total if total else 0.0
            where = f"{op}({obj})" if obj else op
            lines.append(f"    {rank:>2}. {count:>9}  {share:>6.1%}  {where}")

        lines.append("\n  scheduled transitions per process:")
        for process, count in self._ranked(self.processes):
            share = count / total if total else 0.0
            lines.append(f"    {count:>12}  {share:>6.1%}  {process}")

        lines.append(f"\n  depth histogram:     {self._histogram_line(self.depth_hist)}")
        lines.append(f"  branching histogram: {self._histogram_line(self.branching_hist)}")

        if self.phases:
            phase_total = sum(self.phases.values())
            lines.append("\n  wall seconds per explorer phase:")
            for phase, seconds in sorted(
                self.phases.items(), key=lambda item: (-item[1], item[0])
            ):
                share = seconds / phase_total if phase_total else 0.0
                lines.append(f"    {seconds:>12.4f}  {share:>6.1%}  {phase}")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (tuple keys become ``"a:b"``
        strings); embedded in ``--stats-json`` output and manifests."""

        def strkeys(counter: Counter) -> dict[str, int]:
            return {
                ":".join("" if part is None else str(part) for part in key)
                if isinstance(key, tuple)
                else str(key): count
                for key, count in sorted(
                    counter.items(), key=lambda item: (-item[1], str(item[0]))
                )
            }

        return {
            "total_transitions": self.total_transitions,
            "nodes": strkeys(self.nodes),
            "operations": strkeys(self.operations),
            "processes": strkeys(self.processes),
            "tosses": strkeys(self.tosses),
            "depth_hist": {str(k): v for k, v in sorted(self.depth_hist.items())},
            "branching_hist": {
                str(k): v for k, v in sorted(self.branching_hist.items())
            },
            "phases_s": {k: round(v, 6) for k, v in sorted(self.phases.items())},
        }
