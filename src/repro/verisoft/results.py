"""Exploration results: events, traces and the final report.

VeriSoft reports deadlocks and assertion violations together with a
scenario that reproduces them; our :class:`Trace` plays the same role —
it is the exact sequence of scheduling and toss choices, so feeding it
back through the deterministic runtime replays the buggy execution
(:func:`repro.verisoft.explorer.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..counterex.triage import ViolationGroup
    from .search import SearchOptions
    from .stats import SearchStats


@dataclass(frozen=True, slots=True)
class ScheduleChoice:
    """At a global state, run this process's next visible operation."""

    process: str

    def describe(self) -> str:
        return f"run {self.process}"


@dataclass(frozen=True, slots=True)
class TossChoice:
    """Answer the pending ``VS_toss`` of ``process`` with ``value``."""

    process: str
    value: int

    def describe(self) -> str:
        return f"{self.process}: VS_toss -> {self.value}"


Choice = ScheduleChoice | TossChoice


@dataclass(frozen=True, slots=True)
class TraceStep:
    """One executed visible operation, for human-readable scenarios."""

    process: str
    op: str
    obj: str | None
    detail: str = ""

    def describe(self) -> str:
        where = f" on {self.obj}" if self.obj else ""
        extra = f" {self.detail}" if self.detail else ""
        return f"{self.process}: {self.op}{where}{extra}"


@dataclass(frozen=True, slots=True)
class Trace:
    """A replayable exploration path."""

    choices: tuple[Choice, ...]
    steps: tuple[TraceStep, ...]

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)

    def __len__(self) -> int:
        return len(self.choices)


@dataclass(frozen=True, slots=True)
class DeadlockEvent:
    """A reachable global state where no process can make progress."""

    trace: Trace
    blocked: tuple[str, ...]  # names of the processes waiting forever
    #: For each blocked process: (name, pending op, object name or None).
    waiting: tuple[tuple[str, str, str | None], ...] = ()

    def describe(self) -> str:
        if self.waiting:
            details = ", ".join(
                f"{name} on {op}({obj})" if obj else f"{name} on {op}"
                for name, op, obj in self.waiting
            )
        else:
            details = ", ".join(self.blocked)
        return f"deadlock (blocked: {details}) after:\n{self.trace.describe()}"


@dataclass(frozen=True, slots=True)
class AssertionViolationEvent:
    """A ``VS_assert`` whose subject evaluated to false."""

    trace: Trace
    process: str
    proc_name: str
    node_id: int

    def describe(self) -> str:
        return (
            f"assertion violated in {self.process} "
            f"({self.proc_name}, node {self.node_id}) after:\n{self.trace.describe()}"
        )


@dataclass(frozen=True, slots=True)
class CrashEvent:
    """A process hit a runtime fault (C-style unspecified behaviour)."""

    trace: Trace
    process: str
    message: str


@dataclass(frozen=True, slots=True)
class DivergenceEvent:
    """A process exceeded the invisible-step budget (footnote 1)."""

    trace: Trace
    process: str


#: The empty trace of an event recorded past the ``max_events`` cap.
NO_TRACE = Trace((), ())


def without_trace(event):
    """The trace-less placeholder that stands for ``event`` past the
    ``max_events`` cap (a crash also drops its message)."""
    if isinstance(event, CrashEvent):
        return CrashEvent(NO_TRACE, event.process, "")
    return replace(event, trace=NO_TRACE)


@dataclass
class ExplorationReport:
    """Aggregate statistics and findings of one exploration."""

    #: Global states encountered, counting revisits (the stateless search
    #: does not know when it re-reaches a state).
    states_visited: int = 0
    #: Distinct global states, when state counting was enabled.
    distinct_states: int | None = None
    transitions_executed: int = 0
    toss_points: int = 0
    paths_explored: int = 0
    max_depth_reached: int = 0
    #: True when a depth/path/transition bound cut the search short.
    truncated: bool = False
    #: True when a wall-clock ``time_budget`` expired before the search
    #: covered its whole tree: the report describes *part* of the state
    #: space, not all of it.
    incomplete: bool = False
    #: Telemetry of the search that produced this report
    #: (:class:`~repro.verisoft.stats.SearchStats`), when collected.
    stats: "SearchStats | None" = field(default=None, repr=False, compare=False)
    #: The :class:`~repro.verisoft.search.SearchOptions` the search ran
    #: with, recorded by every driver so every report is
    #: self-reproducing without the caller's shell history (persisted
    #: into saved traces by :mod:`repro.counterex`).
    options: "SearchOptions | None" = field(default=None, repr=False, compare=False)
    #: Hot-spot profile of the search
    #: (:class:`~repro.obs.profile.HotSpotProfiler`), attached when the
    #: search ran with ``profile=True``; parallel runs merge the
    #: per-worker profiles here.
    profile: Any = field(default=None, repr=False, compare=False)
    #: Coverage collector of the search
    #: (:class:`~repro.obs.coverage.CoverageCollector`), attached when
    #: the search ran with ``coverage=True``; parallel runs merge the
    #: per-worker shards here.
    coverage: Any = field(default=None, repr=False, compare=False)
    #: Portable trace-event payload (``Tracer.export()`` dict) carried
    #: back from a worker process so the coordinator can merge it into
    #: its own timeline; ``None`` everywhere else.
    trace_payload: dict | None = field(default=None, repr=False, compare=False)
    #: Work-stealing scheduler only: per-worker accounting (leases
    #: completed, steals donated, final liveness) keyed by worker label,
    #: recorded into run manifests.  Timing-dependent — not part of the
    #: counter-parity contract.  ``None`` for every other driver.
    worker_summary: dict | None = field(default=None, repr=False, compare=False)
    #: Work-stealing scheduler only: when a search was suspended (stop
    #: request, checkpoint request) rather than run to exhaustion, the
    #: :class:`~repro.service.frontier.SearchCheckpoint` capturing the
    #: partial results and the pending subtree leases; resuming it
    #: completes the search with a final report identical to an
    #: uninterrupted run.  ``None`` when the search completed.
    checkpoint: Any = field(default=None, repr=False, compare=False)

    deadlocks: list[DeadlockEvent] = field(default_factory=list)
    violations: list[AssertionViolationEvent] = field(default_factory=list)
    crashes: list[CrashEvent] = field(default_factory=list)
    divergences: list[DivergenceEvent] = field(default_factory=list)

    @property
    def seed(self) -> int | None:
        """PRNG seed of the random strategy (``None`` for deterministic
        strategies, which need no seed to reproduce)."""
        return self.options.seed if self._driver() == "random" else None

    @property
    def state_caching(self) -> dict | None:
        """State-space caching configuration of the search that produced
        this report (``None`` when no store was consulted): store kind,
        the cache ``mode``, whether sleep sets stayed active and, from
        the parallel driver, ``per_worker_stores`` (each lease has its
        own store).  A cached report's counters are *not* comparable to
        an uncached one's — revisited subtrees were pruned — so the
        provenance travels with the numbers."""
        driver, options = self._driver(), self.options
        if driver in (None, "random") or options.state_cache == "off":
            return None
        return {
            "store": options.state_cache,
            "mode": options.cache_mode,
            "sleep_sets": options.sleep_sets_active,
            **({"per_worker_stores": True} if driver == "parallel" else {}),
        }

    def _driver(self) -> str | None:
        """The strategy that ran (``None`` unless options and stats were
        recorded)."""
        return None if self.options is None or self.stats is None else self.stats.strategy

    @property
    def ok(self) -> bool:
        """No deadlock, violation, crash or divergence found."""
        return not (self.deadlocks or self.violations or self.crashes or self.divergences)

    def all_events(self) -> list:
        """Every recorded event, in stable report order (deadlocks,
        assertion violations, crashes, divergences)."""
        return [*self.deadlocks, *self.violations, *self.crashes, *self.divergences]

    def triage(self) -> "list[ViolationGroup]":
        """Group this report's events by violation signature (see
        :mod:`repro.counterex.triage`): events with the same kind and
        location collapse into one group with a representative trace."""
        from ..counterex.triage import group_events

        return group_events(self.all_events())

    def summary(self) -> str:
        parts = [
            f"paths={self.paths_explored}",
            f"states={self.states_visited}",
            f"transitions={self.transitions_executed}",
        ]
        if self.distinct_states is not None:
            parts.append(f"distinct={self.distinct_states}")
        if self.state_caching is not None:
            parts.append(f"cache={self.state_caching.get('store', '?')}")
        parts.append(f"deadlocks={len(self.deadlocks)}")
        parts.append(f"violations={len(self.violations)}")
        if self.crashes:
            parts.append(f"crashes={len(self.crashes)}")
        if self.divergences:
            parts.append(f"divergences={len(self.divergences)}")
        events = self.all_events()
        if events:
            parts.append(f"groups={len(self.triage())}")
        if self.truncated:
            parts.append("TRUNCATED")
        if self.incomplete:
            parts.append("INCOMPLETE")
        return " ".join(parts)
