"""Work-partitioning parallel exploration.

VeriSoft's defining property — the explorer stores *no* states and
backtracks by deterministic replay from the initial state — means that
disjoint subtrees of the choice tree can be searched by fully
independent operating-system processes: a subtree is identified by the
choice *prefix* leading to its root, and a worker that re-executes the
prefix owns everything below it with no shared state whatsoever.

The driver has three phases:

1. **Prefix enumeration** (sequential, cheap).  A bounded-depth DFS over
   the top of the choice tree; every path that survives to
   ``prefix_depth`` transitions is cut there and its choice stack —
   including the sleep sets and sibling signatures needed to resume the
   partial-order reduction exactly — is captured as a
   :class:`ChoicePrefix`.  Paths that die earlier (deadlock,
   termination, sleep-set exhaustion) are complete and are accounted to
   the coordinator's own report.

2. **Fan-out**.  The prefixes are distributed over a
   :mod:`multiprocessing` pool.  Each worker reconstructs the system
   (systems are picklable, or rebuilt via ``system_factory``), replays
   its prefix, and completes the DFS of that subtree with backtracking
   frozen at the prefix — sleep/persistent sets carry over, so the
   merged search performs *exactly* the transitions the sequential
   search would.

3. **Deterministic merge**.  Per-worker reports are merged in prefix
   enumeration order: counters are summed, events concatenated in
   stable order and deduplicated by replay trace, distinct-state
   fingerprints unioned.  ``--jobs 1`` and ``--jobs N`` therefore
   produce identical reports.

Budget caveat: ``max_paths``/``max_transitions`` are enforced per
worker and re-checked between worker completions, so a tripped budget
truncates slightly differently (never *later*) than a sequential run;
exact parity holds for unbudgeted searches.

State-caching caveat: with ``state_cache`` enabled every worker owns a
*private* store (:mod:`repro.statespace`) — nothing is shared across
process boundaries — so a state reached in two different subtrees is
expanded once per subtree rather than once globally.  A parallel cached
search therefore prunes *at most* as much as the sequential cached
search and its transition counters sit between the sequential-cached
and uncached values; violation triage groups still match, and the
merged report sums every worker's hit/miss/memory counters.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from ..runtime.system import System
from .explorer import Explorer, _ChoicePoint
from .por import TransitionSig
from .results import ExplorationReport, without_trace
from .search import SearchOptions, search_options
from .stats import SearchStats

__all__ = [
    "ChoicePrefix",
    "PrefixPoint",
    "enumerate_prefixes",
    "harvest_residual",
    "merge_reports",
    "parallel_search",
    "prefix_key",
    "warn_oversubscription",
]


# ---------------------------------------------------------------------------
# Choice prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PrefixPoint:
    """One pinned decision of a choice prefix (picklable snapshot of the
    explorer's internal choice point, with the POR context frozen in)."""

    kind: str  # "schedule" | "toss"
    alternatives: tuple[Any, ...]
    index: int
    sleep: frozenset[TransitionSig]
    sigs: tuple[TransitionSig | None, ...]


@dataclass(frozen=True, slots=True)
class ChoicePrefix:
    """A path from the root of the choice tree to a frontier state.

    Replaying the prefix and freezing backtracking at its length makes a
    worker explore exactly the subtree rooted at the frontier state.
    """

    points: tuple[PrefixPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def describe(self) -> str:
        return " / ".join(
            f"{p.kind}={p.alternatives[p.index]!r}" for p in self.points
        )


def prefix_key(prefix: ChoicePrefix) -> tuple[int, ...]:
    """The prefix's position in DFS order: the tuple of chosen-alternative
    indices along its path.

    Two disjoint subtree prefixes compare exactly as the sequential DFS
    would visit them (lexicographic on index tuples), and a prefix that
    extends another — a split lease's residual extending the suspended
    lease's own prefix — sorts directly after it.  The work-stealing
    merge (:mod:`repro.service.scheduler`) sorts completed lease reports
    by this key so event order (and therefore ``max_events`` truncation)
    is identical to the sequential search, regardless of which worker
    finished what when.
    """
    return tuple(point.index for point in prefix.points)


def _freeze_point(point: _ChoicePoint, index: int | None = None) -> PrefixPoint:
    """A picklable snapshot of one live choice point, optionally pinned
    to a different alternative ``index`` (residual harvesting)."""
    return PrefixPoint(
        kind=point.kind,
        alternatives=tuple(point.alternatives),
        index=point.index if index is None else index,
        sleep=point.sleep,
        sigs=tuple(point.sigs),
    )


def _snapshot(stack: list[_ChoicePoint]) -> ChoicePrefix:
    """Deep-copy the live DFS stack (indices mutate as the enumeration
    backtracks, so the copy must happen at frontier time)."""
    return ChoicePrefix(tuple(_freeze_point(point) for point in stack))


def harvest_residual(
    stack: list[_ChoicePoint], base: int = 0
) -> list[ChoicePrefix]:
    """Decompose the unexplored remainder of a suspended DFS into
    disjoint, fully pinned subtree prefixes.

    After a path completes, everything the DFS has left to do is "the
    subtree below alternative ``i`` of stack point ``j``" for every
    untried ``(j, i)`` with ``j >= base`` (points inside a frozen prefix
    are never bumped).  Each such subtree is captured as a
    :class:`ChoicePrefix` pinning ``stack[:j]`` at its current decisions
    and point ``j`` at alternative ``i`` — the full alternative and
    signature lists are retained, so resuming the prefix reconstructs
    the exact sleep-set context the sequential search would have had on
    bumping that choice point.  Resumption must use the explorer's
    ``prefix_mode="resume"`` accounting: the pinned tip decision was
    never executed, so its out-edge is fresh, countable ground.

    The prefixes come back in sequential DFS visit order (deepest point
    first, ascending alternative index within a point); their union is
    exactly the suspended search's remaining work and they are pairwise
    disjoint, so a partial report plus these prefixes partitions the
    subtree losslessly.
    """
    out: list[ChoicePrefix] = []
    for j in range(len(stack) - 1, base - 1, -1):
        point = stack[j]
        for i in range(point.index + 1, len(point.alternatives)):
            points = [_freeze_point(p) for p in stack[:j]]
            points.append(_freeze_point(point, index=i))
            out.append(ChoicePrefix(tuple(points)))
    return out


def _thaw(prefix: ChoicePrefix) -> list[_ChoicePoint]:
    """Rebuild explorer choice points, pinned to the prefix's decisions.

    The full alternative/signature lists are retained so the replayed
    sleep-set augmentation sees the same explored siblings the
    sequential search would.
    """
    points = []
    for frozen in prefix.points:
        point = _ChoicePoint(
            kind=frozen.kind,
            alternatives=list(frozen.alternatives),
            index=frozen.index,
            sleep=frozen.sleep,
            sigs=list(frozen.sigs),
        )
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# Phase 1: prefix enumeration
# ---------------------------------------------------------------------------


def enumerate_prefixes(
    system: System,
    prefix_depth: int,
    options: SearchOptions | None = None,
    *,
    fingerprint_set: set[Any] | None = None,
    **overrides: Any,
) -> tuple[list[ChoicePrefix], ExplorationReport]:
    """Enumerate the frontier of the choice tree at ``prefix_depth``.

    Returns the prefixes in deterministic DFS order plus the
    coordinator's report covering everything *above* the frontier
    (frontier states themselves are accounted to the workers).  Paths
    shorter than the frontier are fully explored here.  The enumeration
    covers the whole frontier: the budgets, the first-event stop and
    the progress callback of ``options`` are the workers' concern.  With
    ``state_cache`` the enumeration owns a private, fresh store — its
    prunes never leak into the workers' subtrees.  With ``profile`` /
    ``coverage`` the above-frontier work is observed into
    ``report.profile`` / ``report.coverage`` (exactly the fresh edges the
    sequential search would count there).
    """
    options = search_options(options, overrides)
    prefixes: list[ChoicePrefix] = []
    explorer = Explorer(
        system,
        replace(
            options,
            stop_on_first=False,
            max_paths=None,
            max_transitions=None,
            time_budget=None,
            progress=None,
        ),
        frontier_depth=prefix_depth,
        on_frontier=lambda stack: prefixes.append(_snapshot(stack)),
        fingerprint_set=fingerprint_set,
    )
    return prefixes, explorer.run()


# ---------------------------------------------------------------------------
# Phase 2: workers
# ---------------------------------------------------------------------------


def worker_options(options: SearchOptions, deadline: float | None) -> SearchOptions:
    """The options a unit of parallel work runs with: the caller's,
    minus the in-process handles (``tracer``, ``progress``), with the
    wall-clock budget cut down to what is left before ``deadline``.
    Picklable, so the same object travels to worker processes."""
    return replace(
        options,
        tracer=None,
        progress=None,
        time_budget=None if deadline is None else max(0.0, deadline - time.monotonic()),
    )


#: Per-worker-process cache, populated once by the pool initializer so
#: the system is unpickled (or rebuilt by the factory) once per worker
#: instead of once per prefix.
_WORKER_STATE: dict[str, Any] = {}


def _init_worker(
    system_or_factory, options: SearchOptions, heartbeat_queue: Any, trace: bool
) -> None:
    if callable(system_or_factory):
        system = system_or_factory()
    else:
        system = system_or_factory
    _WORKER_STATE["system"] = system
    _WORKER_STATE["options"] = options
    _WORKER_STATE["heartbeats"] = heartbeat_queue
    _WORKER_STATE["trace"] = trace


def _pool_task(
    indexed_prefix: tuple[int, ChoicePrefix],
) -> tuple[int, ExplorationReport, frozenset | None]:
    index, prefix = indexed_prefix
    report, fingerprints = explore_subtree(
        _WORKER_STATE["system"],
        prefix,
        _WORKER_STATE["options"],
        prefix_index=index,
        heartbeat_queue=_WORKER_STATE["heartbeats"],
        trace=_WORKER_STATE["trace"],
    )
    return index, report, fingerprints


def explore_subtree(
    system: System,
    prefix: ChoicePrefix,
    options: SearchOptions | None = None,
    *,
    prefix_index: int = 0,
    heartbeat_queue: Any | None = None,
    trace: bool = False,
    **overrides: Any,
) -> tuple[ExplorationReport, frozenset | None]:
    """Complete the DFS below ``prefix`` (the single-worker unit of work).

    Returns the subtree's report and, with ``count_states``, the set of
    state fingerprints seen (for cross-worker union — fingerprint
    duplicates across subtrees cannot be detected locally).  With
    ``state_cache`` each call builds its own fresh store: revisits are
    pruned within the subtree only (see the module caveat).

    ``options.tracer`` records spans directly into an in-process
    tracer, while ``trace`` (used across process boundaries, where a
    live tracer cannot travel) builds a private one and ships its buffer
    back as ``report.trace_payload``.  ``heartbeat_queue``, when given,
    receives :class:`~repro.obs.heartbeat.Heartbeat` messages from a
    :class:`~repro.obs.heartbeat.HeartbeatSender`: ``start``/``done``
    around the subtree and a ``beat`` every ``progress_interval``
    seconds.
    """
    options = search_options(options, overrides)
    tracer = options.tracer
    export_trace = tracer is None and trace
    if export_trace:
        from ..obs import Tracer

        tracer = Tracer()
        options = replace(options, tracer=tracer)
    heartbeats = None
    if heartbeat_queue is not None:
        from ..obs import HeartbeatSender

        heartbeats = HeartbeatSender(
            heartbeat_queue, prefix_index, options.progress_interval
        )
    fingerprints: set[Any] | None = set() if options.count_states else None
    explorer = Explorer(
        system,
        options,
        initial_stack=_thaw(prefix),
        fingerprint_set=fingerprints,
        observer=heartbeats,
    )
    if tracer is None:
        report = explorer.run()
    else:
        with tracer.span("subtree", cat="parallel", prefix=prefix_index):
            report = explorer.run()
    if export_trace:
        report.trace_payload = tracer.export(label=f"worker-{os.getpid()}")
    return report, None if fingerprints is None else frozenset(fingerprints)


# ---------------------------------------------------------------------------
# Phase 3: deterministic merge
# ---------------------------------------------------------------------------


def _event_key(event) -> tuple:
    return (type(event).__name__, event.trace.choices)


def _merge_events(
    merged_list: list, parts: Iterable[list], max_events: int, keep_count: bool
) -> None:
    """Concatenate event lists in stable order, dropping duplicate
    traces.  Beyond ``max_events`` recorded traces, either keep counting
    with trace-less placeholder events (``keep_count``, matching the
    sequential explorer's behaviour for violations/crashes/divergences)
    or stop (deadlocks)."""
    seen: set = set()
    for events in parts:
        for event in events:
            key = _event_key(event)
            if key in seen and event.trace.choices:
                continue
            seen.add(key)
            if len(merged_list) < max_events:
                merged_list.append(event)
            elif keep_count:
                merged_list.append(without_trace(event))


def merge_reports(
    coordinator: ExplorationReport | None,
    worker_reports: Iterable[ExplorationReport],
    *,
    num_prefixes: int = 0,
    max_events: int = 25,
    fingerprints: set[Any] | None = None,
) -> ExplorationReport:
    """Deterministically merge disjoint parts of one search, in
    sequential DFS order: the ``coordinator``'s above-frontier report
    (``None`` for the work-stealing driver, whose lease blocks arrive
    pre-sorted) followed by the subtree reports.

    Counters sum exactly to the sequential search's values: the parts
    partition the tree, so every fresh edge, state, toss point and
    path was counted by exactly one part — except the coordinator's
    frontier-cut pseudo-paths (``num_prefixes`` of them), which are
    subtracted.  Events are concatenated in order (duplicate traces
    dropped, the ``max_events`` cap applied as the sequential explorer
    applies it); profiles, coverage shards and stats are merged the
    same disjoint way.
    """
    parts = [*([] if coordinator is None else [coordinator]), *worker_reports]
    merged = ExplorationReport()
    for report in parts:
        merged.states_visited += report.states_visited
        merged.transitions_executed += report.transitions_executed
        merged.toss_points += report.toss_points
        merged.paths_explored += report.paths_explored
        merged.max_depth_reached = max(merged.max_depth_reached, report.max_depth_reached)
        merged.truncated = merged.truncated or report.truncated
        merged.incomplete = merged.incomplete or report.incomplete
    merged.paths_explored -= num_prefixes
    for name, keep_count in (
        ("deadlocks", False),
        ("violations", True),
        ("crashes", True),
        ("divergences", True),
    ):
        _merge_events(
            getattr(merged, name),
            (getattr(r, name) for r in parts),
            max_events,
            keep_count,
        )
    if fingerprints is not None:
        merged.distinct_states = len(fingerprints)

    profiles = [r.profile for r in parts if r.profile is not None]
    if profiles:
        from ..obs import HotSpotProfiler

        merged.profile = HotSpotProfiler.merged(profiles)
    coverages = [r.coverage for r in parts if r.coverage is not None]
    if coverages:
        from ..obs import CoverageCollector

        merged.coverage = CoverageCollector.merged(coverages)

    merged.stats = SearchStats.merged(
        [r.stats for r in parts if r.stats is not None], strategy="parallel"
    )
    merged.stats.paths_explored = merged.paths_explored
    merged.stats.prefixes = num_prefixes
    if merged.coverage is not None:
        merged.stats.coverage_nodes = merged.coverage.nodes_covered
        merged.stats.coverage_nodes_total = merged.coverage.nodes_total
    return merged


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def warn_oversubscription(
    jobs: int,
    warn: Callable[[str], None],
    *,
    cpus: int | None = None,
) -> bool:
    """Warn when the worker pool *plus the coordinator process* exceed
    the machine's CPUs.

    Lives in the drivers — emitted exactly once per search, before any
    fan-out, never per round — so multi-round schedulers (work stealing
    hands out leases continuously) cannot repeat it.  ``jobs <= 1`` runs
    in-process with no pool and no separate coordinator, so it never
    warns.  Returns whether a warning was emitted (for the tests).
    """
    if jobs <= 1:
        return False
    if cpus is None:
        cpus = os.cpu_count() or 1
    if jobs + 1 <= cpus:
        return False
    warn(
        f"--jobs {jobs} exceeds the {cpus} available CPU(s) once the "
        "coordinator process is counted; workers will time-slice"
    )
    return True


def warner(options: SearchOptions) -> Callable[[str], None]:
    """Where a parallel driver's warnings go: the progress printer's
    ``warn`` when it has one (keeps the warning from colliding with the
    self-overwriting ticker), else stderr."""
    warn = getattr(options.progress, "warn", None)
    if warn is not None:
        return warn
    return lambda message: print(f"warning: {message}", file=sys.stderr)


def finish_parallel(
    merged: ExplorationReport,
    options: SearchOptions,
    system: System,
    jobs: int,
    started: float,
    expired: bool,
) -> None:
    """What both parallel drivers stamp on the merged report: the
    *effective* modes (resolved exactly as every unit of work resolved
    them), the pool shape, the wall time, the options (self-reproducing,
    like :func:`~repro.verisoft.search.run_search` reports) and the
    per-worker-stores caching provenance.  ``expired``: the wall-clock
    budget cut the search short, so some subtrees were never searched —
    the sequential explorer's ``incomplete`` flag."""
    if expired:
        merged.incomplete = True
        merged.truncated = True
    modes = options.resolve(system)
    merged.stats.backtrack = modes.backtrack
    merged.stats.engine = modes.engine
    merged.stats.jobs = jobs
    merged.stats.wall_time = time.monotonic() - started
    merged.options = options
    if options.state_cache != "off":
        merged.stats.state_cache = options.state_cache
        merged.state_caching = {
            **(options.state_caching_info() or {}),
            "per_worker_stores": True,
        }


def _enumerate_frontier(
    system: System,
    options: SearchOptions,
    jobs: int,
    fingerprints: set[Any] | None,
) -> tuple[list[ChoicePrefix], ExplorationReport]:
    """The coordinator's enumeration at ``options.prefix_depth`` or,
    when that is ``None``, deepened until the frontier yields enough
    prefixes to keep the pool busy (≥4 per worker) or the tree runs
    out.  Only the kept (deepest) enumeration's report and fingerprints
    survive, so probe passes never double-count."""
    if options.prefix_depth is not None:
        return enumerate_prefixes(
            system, options.prefix_depth, options, fingerprint_set=fingerprints
        )
    depth_cap = max(1, min(options.max_depth - 1, 12))
    depth = 1
    while True:
        probe = None if fingerprints is None else set()
        prefixes, report = enumerate_prefixes(system, depth, options, fingerprint_set=probe)
        if len(prefixes) >= 4 * jobs or depth >= depth_cap or not prefixes:
            if fingerprints is not None:
                fingerprints |= probe
            return prefixes, report
        depth += 1


def parallel_search(
    system: System,
    options: SearchOptions | None = None,
    *,
    system_factory: Callable[[], System] | None = None,
    **overrides: Any,
) -> ExplorationReport:
    """Explore ``system`` with a pool of stateless worker processes.

    ``options`` is a :class:`~repro.verisoft.search.SearchOptions`
    (individual fields may be overridden by keyword).  ``jobs=1`` runs
    the same partition/merge pipeline in-process — useful as the
    determinism baseline.  For systems that cannot be pickled, pass a
    top-level ``system_factory`` callable that rebuilds the system
    inside each worker.
    """
    # The options record what ran: this driver is the static scheduler.
    options = search_options(options, {**overrides, "strategy": "parallel", "scheduler": "static"})
    jobs = options.jobs or os.cpu_count() or 1
    tracer = options.tracer

    _warn = warner(options)
    # Judge oversubscription on the *requested* job count: an explicit
    # --jobs beyond what the machine can co-schedule alongside the
    # coordinator warns; the jobs=0 "all cores" default never does.
    warn_oversubscription(options.jobs, _warn)
    started = time.monotonic()
    deadline = None if options.time_budget is None else started + options.time_budget

    fingerprints: set[Any] | None = set() if options.count_states else None

    enumerate_phase = (
        contextlib.nullcontext()
        if tracer is None
        else tracer.phase("enumerate-prefixes")
    )
    with enumerate_phase:
        prefixes, coordinator = _enumerate_frontier(system, options, jobs, fingerprints)

    subtree_options = worker_options(options, deadline)
    indexed = list(enumerate(prefixes))
    results: list[tuple[ExplorationReport, frozenset | None]] = []
    stop_early = False  # first-event stop requested and hit
    expired = False  # wall-clock budget ran out mid-fan-out

    def live_stats(reports: Iterable[ExplorationReport]) -> SearchStats:
        live = SearchStats.merged(
            [r.stats for r in [coordinator, *reports] if r.stats is not None],
            strategy="parallel",
            jobs=jobs,
            prefixes=len(prefixes),
        )
        live.wall_time = time.monotonic() - started
        return live

    def note_result(report: ExplorationReport, prints: frozenset | None) -> None:
        results.append((report, prints))
        if fingerprints is not None and prints is not None:
            fingerprints.update(prints)
        if options.progress is not None:
            options.progress(live_stats(r for r, _ in results))

    fanout_phase = (
        contextlib.nullcontext()
        if tracer is None
        else tracer.phase("fan-out", prefixes=len(prefixes), jobs=jobs)
    )
    with fanout_phase:
        if jobs <= 1 or len(indexed) <= 1:
            target_system = system_factory() if system_factory is not None else system
            for index, prefix in indexed:
                report, prints = explore_subtree(
                    target_system,
                    prefix,
                    replace(subtree_options, tracer=tracer),
                    prefix_index=index,
                )
                note_result(report, prints)
                if options.stop_on_first and not report.ok:
                    stop_early = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    expired = True
                    break
        else:
            ordered: dict[int, tuple[ExplorationReport, frozenset | None]] = {}

            monitor = None
            heartbeat_queue = None
            if options.progress is not None or options.stall_timeout is not None:
                from ..obs import HeartbeatMonitor

                heartbeat_queue = multiprocessing.Queue()
                monitor = HeartbeatMonitor(
                    stall_timeout=options.stall_timeout, on_warn=_warn
                )

            def fanout_tick() -> None:
                """Between completions: fold in heartbeats, surface
                per-worker health, refresh the live ticker."""
                if monitor is None:
                    return
                monitor.drain(heartbeat_queue)
                monitor.check_stalls()
                if options.progress is None:
                    return
                worker_lines = getattr(options.progress, "worker_lines", None)
                if worker_lines is not None:
                    worker_lines(monitor.lines())
                live = live_stats(r for r, _ in ordered.values())
                inflight_states, inflight_transitions = monitor.inflight()
                live.states_visited += inflight_states
                live.transitions_executed += inflight_transitions
                options.progress(live)

            pool = multiprocessing.Pool(
                processes=min(jobs, len(indexed)),
                initializer=_init_worker,
                initargs=(
                    system_factory if system_factory is not None else system,
                    subtree_options,
                    heartbeat_queue,
                    tracer is not None,
                ),
            )
            try:
                completions = pool.imap_unordered(_pool_task, indexed)
                tick = max(0.05, min(options.progress_interval, 1.0))
                remaining = len(indexed)
                while remaining:
                    try:
                        index, report, prints = completions.next(timeout=tick)
                    except multiprocessing.TimeoutError:
                        # No completion this tick — service heartbeats so
                        # stalls surface while workers are busy.
                        fanout_tick()
                        if deadline is not None and time.monotonic() > deadline:
                            expired = True
                            break
                        continue
                    except StopIteration:  # pragma: no cover - defensive
                        break
                    remaining -= 1
                    ordered[index] = (report, prints)
                    fanout_tick()
                    if options.stop_on_first and not report.ok:
                        stop_early = True
                        break
                    if deadline is not None and time.monotonic() > deadline:
                        expired = True
                        break
            finally:
                if stop_early or expired:
                    pool.terminate()
                else:
                    pool.close()
                pool.join()
                if monitor is not None:
                    monitor.drain(heartbeat_queue)
                if heartbeat_queue is not None:
                    heartbeat_queue.close()
            # Deterministic merge order regardless of completion order.
            for index in sorted(ordered):
                note_result(*ordered[index])

    merge_phase = (
        contextlib.nullcontext() if tracer is None else tracer.phase("merge")
    )
    with merge_phase:
        if tracer is not None:
            # Splice the worker timelines (shipped back as plain-dict
            # payloads) onto the coordinator's trace, in prefix order.
            for report, _ in results:
                if report.trace_payload is not None:
                    tracer.merge(report.trace_payload)
                    report.trace_payload = None
        merged = merge_reports(
            coordinator,
            [report for report, _ in results],
            num_prefixes=len(prefixes),
            max_events=options.max_events,
            fingerprints=fingerprints,
        )
    merged.stats.prefixes = len(prefixes)
    finish_parallel(merged, options, system, jobs, started, expired)
    return merged
