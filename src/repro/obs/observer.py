"""The one observer protocol of every search driver.

The exhaustive explorer, the random walks and (through them) the
parallel driver report what they do to a single
:class:`SearchObserver`.  Its events are anchored exactly like the
search counters, so any observer's totals equal the report's and shards
merge counter-exactly:

* :meth:`~SearchObserver.on_run_start` — a fresh run started its
  processes; ``counted`` says whether the startup segments are fresh
  ground (nothing precedes them on this path);
* :meth:`~SearchObserver.on_restore` — restore-mode re-entry: the live
  run was rewound to a choice point's checkpoint; ``moved`` lists the
  processes whose control state the rewind changed (the others have
  not stepped since the checkpoint);
* :meth:`~SearchObserver.on_step` — a visible transition executed, with
  its ``fresh_edge`` flag (``False`` while a replay re-executes a known
  prefix); ``created`` says the governing choice point was created by
  this visit, which implies ``fresh_edge``;
* :meth:`~SearchObserver.on_toss` — a ``VS_toss`` was answered;
  ``created`` marks the choice points counted in ``toss_points``;
* :meth:`~SearchObserver.on_event` — a deadlock, violation, crash or
  divergence was recorded on the report;
* :meth:`~SearchObserver.on_path_end` — a path (DFS execution or walk)
  ended;
* :meth:`~SearchObserver.on_finish` — the search returned its report.

A driver holds one observer reference, ``None`` when nothing observes,
so an unobserved search pays one branch per event site.
:class:`Observation` builds that reference from the search options.
"""

from __future__ import annotations

import time
from time import perf_counter
from typing import Any, Callable, Iterable

__all__ = [
    "Fanout",
    "Observation",
    "PhaseTimer",
    "ProgressTicker",
    "SearchObserver",
    "TraceSpans",
    "timed",
]


class SearchObserver:
    """Base class of the protocol: every event is a no-op here, so an
    observer overrides only the events it needs."""

    def on_run_start(self, run: Any, counted: bool) -> None:
        pass

    def on_restore(self, run: Any, moved: list) -> None:
        pass

    def on_step(
        self,
        process: Any,
        request: Any,
        depth: int,
        fanout: int,
        created: bool,
        fresh_edge: bool,
    ) -> None:
        pass

    def on_toss(
        self,
        process: Any,
        request: Any,
        value: int,
        depth: int,
        created: bool,
        fresh_edge: bool,
    ) -> None:
        pass

    def on_event(self, event: Any, depth: int) -> None:
        pass

    def on_path_end(self, report: Any) -> None:
        pass

    def on_finish(self, report: Any) -> None:
        pass


class Fanout(SearchObserver):
    """Several observers behind one reference, called in order."""

    def __init__(self, observers: Iterable[SearchObserver]):
        self.observers = tuple(observers)

    def on_run_start(self, run, counted):
        for observer in self.observers:
            observer.on_run_start(run, counted)

    def on_restore(self, run, moved):
        for observer in self.observers:
            observer.on_restore(run, moved)

    def on_step(self, process, request, depth, fanout, created, fresh_edge):
        for observer in self.observers:
            observer.on_step(process, request, depth, fanout, created, fresh_edge)

    def on_toss(self, process, request, value, depth, created, fresh_edge):
        for observer in self.observers:
            observer.on_toss(process, request, value, depth, created, fresh_edge)

    def on_event(self, event, depth):
        for observer in self.observers:
            observer.on_event(event, depth)

    def on_path_end(self, report):
        for observer in self.observers:
            observer.on_path_end(report)

    def on_finish(self, report):
        for observer in self.observers:
            observer.on_finish(report)


def timed(fn: Callable, phases: dict, phase: str) -> Callable:
    """``fn`` with every call's wall seconds added to ``phases[phase]``."""

    def call(*args):
        t0 = perf_counter()
        result = fn(*args)
        phases[phase] += perf_counter() - t0
        return result

    return call


class PhaseTimer(SearchObserver):
    """Times every event another observer handles into one phase of the
    hot-spot profile (the coverage collector's ``"coverage"`` phase)."""

    def __init__(self, observer: SearchObserver, phases: dict, phase: str):
        self.on_run_start = timed(observer.on_run_start, phases, phase)
        self.on_restore = timed(observer.on_restore, phases, phase)
        self.on_step = timed(observer.on_step, phases, phase)
        self.on_toss = timed(observer.on_toss, phases, phase)
        self.on_event = timed(observer.on_event, phases, phase)
        self.on_path_end = timed(observer.on_path_end, phases, phase)
        self.on_finish = timed(observer.on_finish, phases, phase)


#: Tracer instant names of the recorded event types, keyed by class
#: name because the observability layer does not import the search layer.
_INSTANT_NAMES = {
    "DeadlockEvent": "deadlock",
    "AssertionViolationEvent": "assertion-violation",
    "CrashEvent": "crash",
    "DivergenceEvent": "divergence",
}


class TraceSpans(SearchObserver):
    """The tracer adapter: one span per path (``name``/``cat``, with the
    path's index as the ``name`` argument) and one instant per recorded
    event."""

    def __init__(self, tracer: Any, name: str, cat: str):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._paths = 0
        self._start = 0.0

    def on_run_start(self, run, counted):
        self._start = self._tracer.now_us()

    def on_restore(self, run, moved):
        self._start = self._tracer.now_us()

    def on_event(self, event, depth):
        args: dict[str, Any] = {"depth": depth}
        process = getattr(event, "process", None)
        if process is not None:
            args["process"] = process
        self._tracer.instant(_INSTANT_NAMES[type(event).__name__], cat="event", **args)

    def on_path_end(self, report):
        self._tracer.complete(
            self._name, self._start, cat=self._cat, **{self._name: self._paths}
        )
        self._paths += 1


class ProgressTicker(SearchObserver):
    """Hands the live stats (``live_stats()``) to the ``progress``
    callback at most once per ``interval`` seconds, between paths."""

    def __init__(
        self,
        progress: Callable[[Any], None],
        interval: float,
        live_stats: Callable[[], Any],
    ):
        self._progress = progress
        self._interval = interval
        self._live_stats = live_stats
        self._next_tick = time.monotonic() + interval

    def on_path_end(self, report):
        now = time.monotonic()
        if now >= self._next_tick:
            self._progress(self._live_stats())
            self._next_tick = now + self._interval


class Observation:
    """The observers one search asks for in its
    :class:`~repro.verisoft.search.SearchOptions`.

    Builds the hot-spot profiler (``profile``), the coverage collector
    (``coverage``; its events are timed into the profile's
    ``"coverage"`` phase when both are on), the tracer adapter
    (``tracer``, spans named ``span``) and the progress ticker
    (``progress``, fed by ``live_stats``), plus any driver-owned
    ``extra`` observer, behind the single :attr:`observer` reference
    (``None`` when nothing observes).  :meth:`finish` attaches the
    profile and coverage to the report.
    """

    def __init__(
        self,
        options: Any,
        system: Any,
        *,
        live_stats: Callable[[], Any],
        span: tuple[str, str],
        extra: SearchObserver | None = None,
    ):
        from .coverage import CoverageCollector
        from .profile import HotSpotProfiler

        self.profiler = HotSpotProfiler() if options.profile else None
        self.coverage = CoverageCollector(system) if options.coverage else None
        observers: list[SearchObserver] = []
        if self.profiler is not None:
            observers.append(self.profiler)
        if self.coverage is not None:
            observers.append(
                self.coverage
                if self.profiler is None
                else PhaseTimer(self.coverage, self.profiler.phases, "coverage")
            )
        if options.tracer is not None:
            observers.append(TraceSpans(options.tracer, *span))
        if options.progress is not None:
            observers.append(
                ProgressTicker(
                    options.progress,
                    options.progress_interval,
                    lambda: self.gauge(live_stats()),
                )
            )
        if extra is not None:
            observers.append(extra)
        self.observer: SearchObserver | None = (
            None
            if not observers
            else observers[0]
            if len(observers) == 1
            else Fanout(observers)
        )

    @property
    def phases(self) -> dict | None:
        """The profile's per-phase wall seconds (``None`` unprofiled)."""
        return None if self.profiler is None else self.profiler.phases

    def gauge(self, stats: Any) -> Any:
        """Copy the coverage gauges onto ``stats``; returns ``stats``."""
        if self.coverage is not None:
            stats.coverage_nodes = self.coverage.nodes_covered
            stats.coverage_nodes_total = self.coverage.nodes_total
        return stats

    def finish(self, report: Any) -> None:
        """Attach the profile and coverage to ``report`` and deliver the
        ``finish`` event."""
        report.profile = self.profiler
        report.coverage = self.coverage
        self.gauge(report.stats)
        if self.observer is not None:
            self.observer.on_finish(report)
