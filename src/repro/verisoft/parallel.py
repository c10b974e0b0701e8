"""Parallel exploration over subtree leases.

VeriSoft's defining property — the explorer stores *no* states and
backtracks by deterministic replay from the initial state — means that
disjoint subtrees of the choice tree can be searched by fully
independent operating-system processes: a subtree is identified by the
choice *prefix* leading to its root, and a worker that re-executes the
prefix owns everything below it with no shared state whatsoever.

:func:`parallel_search` is the one parallel driver:

* Work is handed out as **subtree leases** — fully pinned
  :class:`ChoicePrefix` snapshots, including the sleep sets and sibling
  signatures needed to resume the partial-order reduction exactly.  A
  lease prefix pins an *untried* decision at its tip, so everything
  below it is fresh, counted ground and the merged search performs
  *exactly* the transitions the sequential search would.

* A lease explored until a ``yield_check`` suspends it commits its
  partial report *plus* every unexplored sibling subtree of its DFS
  stack (:func:`harvest_residual`) as new leases: together they
  partition the lease losslessly.  The unit of completion is the lease,
  so a worker that **dies** mid-lease loses nothing but time: its lease
  is re-queued verbatim and a replacement worker is spawned.

* ``options.scheduler`` picks how the tree becomes leases.
  ``"static"`` (the default) splits it in-process before any worker
  starts: each split completes one path of the shallowest pending lease
  and turns the rest into leases, until there are
  :data:`SPLIT_PER_JOB` leases per worker (a tree that runs out first is
  searched without forking at all); the leases are then handed out with
  stealing off, so the partition — and the reported ``leases`` — is the
  same on every run and ``steals == 0``.  ``"steal"`` starts from the
  one root lease: while no lease is pending, the coordinator sends a
  **steal request** for each idle worker to a different busy one,
  shallowest lease first and each lease at most once
  (:func:`_steal_targets`); the asked worker suspends at its next path
  boundary and commits its residuals.

* A **stop request** (``should_suspend``) or a spent ``time_budget``
  suspends every worker at its next path boundary; the pending leases
  plus completed blocks come back as a
  :class:`~repro.service.frontier.SearchCheckpoint` on
  ``report.checkpoint``, resumable later via the ``initial`` parameter.

* With ``count_states`` a lease returns the state keys it visited, the
  part tuples of :meth:`~repro.runtime.system.Run.state_parts`; the
  coordinator unions them, and a checkpoint carries the union.

* Each worker shares **one duplex pipe** with the coordinator and
  nothing else: leases and requests go down, beats and results come up.
  A worker that dies, even halfway through a send, reads as end-of-file
  on its own pipe, so nothing it held can block another process.

**Determinism.**  Completed lease blocks are kept unmerged and sorted by
:func:`prefix_key` at the end — sequential DFS visit order, regardless
of which worker finished what when — so :func:`merge_reports` produces a
report counter-for-counter identical to the sequential search, modulo
the backtracking-cost group and the stealing counters.

Budget caveat: ``max_paths``/``max_transitions`` are enforced per lease
and re-checked between lease completions, so a tripped budget truncates
slightly differently (never *later*) than a sequential run; exact parity
holds for unbudgeted searches.

State-caching caveat: with ``state_cache`` enabled every lease owns a
*private* store (:mod:`repro.statespace`), so a state reached in two
different leases is expanded once per lease rather than once globally.
A parallel cached search therefore prunes *at most* as much as the
sequential cached search; violation triage groups still match, and the
merged report sums every lease's hit/miss/memory counters.
"""

from __future__ import annotations

import contextlib
import heapq
import multiprocessing
import os
import select
import signal
import sys
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..runtime.system import System
from .explorer import Explorer, _ChoicePoint
from .por import TransitionSig, reintern, sleep_mask, sleep_signatures
from .results import ExplorationReport, without_trace
from .search import SearchOptions, search_options
from .stats import SearchStats

if TYPE_CHECKING:
    from ..service.frontier import SearchCheckpoint

__all__ = [
    "ChoicePrefix",
    "PrefixPoint",
    "explore_lease",
    "harvest_residual",
    "merge_reports",
    "parallel_search",
    "prefix_key",
    "warn_oversubscription",
]

#: The static policy splits the tree until there are this many pending
#: leases per worker.  Fewer left one root-level lease holding most of
#: bounded 5ESS; this many balances it as well as a frontier cut did.
SPLIT_PER_JOB = 16


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
    """A path from the root of the choice tree to an untried decision.

    Replaying the prefix and freezing backtracking at its length makes a
    worker explore exactly the subtree below that decision.
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
    lease's own prefix — sorts directly after it.  The merge sorts
    completed lease reports by this key so event order (and therefore
    ``max_events`` truncation) is identical to the sequential search,
    regardless of which worker finished what when.
    """
    return tuple(point.index for point in prefix.points)


def _freeze_point(point: _ChoicePoint, index: int | None = None) -> PrefixPoint:
    """A picklable snapshot of one live choice point, optionally pinned
    to a different alternative ``index`` (residual harvesting).  The
    sleep mask's bits belong to this process's intern table, so it is
    frozen as the set of its signatures."""
    return PrefixPoint(
        kind=point.kind,
        alternatives=tuple(point.alternatives),
        index=point.index if index is None else index,
        sleep=sleep_signatures(point.sleep),
        sigs=tuple(point.sigs),
    )


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
    bumping that choice point.

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
    sequential search would.  Every signature is re-interned by its
    fields: the prefix may come from another process (a coordinator, a
    frontier file) whose intern table numbered them differently.
    """
    return [
        _ChoicePoint(
            kind=frozen.kind,
            alternatives=frozen.alternatives,
            index=frozen.index,
            sleep=sleep_mask(frozen.sleep),
            sigs=tuple(reintern(sig) for sig in frozen.sigs),
        )
        for frozen in prefix.points
    ]


# ---------------------------------------------------------------------------
# One lease: the unit of work and of completion
# ---------------------------------------------------------------------------


def explore_lease(
    system: System,
    prefix: ChoicePrefix | None,
    options: SearchOptions | None = None,
    *,
    yield_check: Callable[[], bool] | None = None,
    lease_index: int = 0,
    **overrides: Any,
) -> tuple[ExplorationReport, list[ChoicePrefix], frozenset | None]:
    """Explore the subtree leased by ``prefix`` (``None`` = whole tree).

    Returns ``(report, residuals, fingerprints)``.  When ``yield_check``
    suspended the DFS, ``residuals`` holds the unexplored sibling
    subtrees as new fully pinned prefixes (sequential DFS order) and
    ``report`` covers exactly the paths completed — together they
    partition the lease losslessly.  ``residuals`` is empty for a lease
    run to exhaustion.  ``fingerprints`` (``count_states``) is the set
    of the explorer's state keys, the part tuples of
    :meth:`~repro.runtime.system.Run.state_parts`, as they are: a pickled
    result carries each shared part once.  ``options.tracer`` gets one
    ``lease`` span around the lease's paths.
    """
    options = search_options(options, overrides)
    fingerprints: set[tuple[bytes, ...]] | None = set() if options.count_states else None
    explorer = Explorer(
        system,
        options,
        initial_stack=_thaw(prefix) if prefix is not None else None,
        yield_check=yield_check,
        fingerprint_set=fingerprints,
    )
    if options.tracer is None:
        report = explorer.run()
    else:
        with options.tracer.span("lease", cat="parallel", lease=lease_index):
            report = explorer.run()
    residuals: list[ChoicePrefix] = []
    if explorer.suspended and explorer.final_stack is not None:
        residuals = harvest_residual(explorer.final_stack, explorer.final_base)
    return report, residuals, None if fingerprints is None else frozenset(fingerprints)


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------


def _merge_events(
    merged_list: list, parts: Iterable[list], max_events: int, keep_count: bool
) -> None:
    """Concatenate event lists in stable order.  Beyond ``max_events``
    recorded traces, either keep counting with trace-less placeholder
    events (``keep_count``, matching the sequential explorer's behaviour
    for violations/crashes/divergences) or stop (deadlocks)."""
    for events in parts:
        for event in events:
            if len(merged_list) < max_events:
                merged_list.append(event)
            elif keep_count:
                merged_list.append(without_trace(event))


def merge_reports(
    parts: Iterable[ExplorationReport],
    *,
    max_events: int,
    fingerprints: set[Any] | None = None,
) -> ExplorationReport:
    """Deterministically merge disjoint parts of one search, given in
    sequential DFS order.

    Counters sum exactly to the sequential search's values: the parts
    partition the tree, so every fresh edge, state, toss point and path
    was counted by exactly one part.  Events are concatenated in order
    (the ``max_events`` cap applied as the sequential explorer applies
    it); profiles, coverage shards and stats are merged the same
    disjoint way.
    """
    parts = list(parts)
    merged = ExplorationReport()
    for report in parts:
        merged.states_visited += report.states_visited
        merged.transitions_executed += report.transitions_executed
        merged.toss_points += report.toss_points
        merged.paths_explored += report.paths_explored
        merged.max_depth_reached = max(merged.max_depth_reached, report.max_depth_reached)
        merged.truncated = merged.truncated or report.truncated
        merged.incomplete = merged.incomplete or report.incomplete
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
    if merged.coverage is not None:
        merged.stats.coverage_nodes = merged.coverage.nodes_covered
        merged.stats.coverage_nodes_total = merged.coverage.nodes_total
    return merged


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    system_or_factory: Any,
    options: SearchOptions,
    conn: Any,
    trace: bool,
    beats: bool,
    kill_after_paths: int | None,
) -> None:
    """Worker loop: take a lease from ``conn``, explore it, send back
    the result.

    ``conn`` is the worker's end of its pipe.  It receives ``("lease",
    seq, prefix, steal)``, ``("steal", seq, None)``, ``("suspend",
    None, None)`` and ``None`` (exit), and sends ``("beat", seq,
    states, transitions)`` and ``("result", seq, report, residuals,
    fingerprints, was_steal)``.  Between paths the lease reads its
    requests: a steal naming it, or a suspend, ends it (a steal naming
    an earlier lease is stale); a suspend also ends every later lease.
    A lease sent with ``steal`` true was asked for a steal as it was
    handed out, and ends at its first path boundary.
    With ``trace`` each lease records into a private tracer whose buffer
    travels back as ``report.trace_payload``.  With ``beats`` the
    lease's progress callback sends a beat (transitions include
    replayed ones) at most once per ``options.progress_interval``.

    ``kill_after_paths`` is the crash-recovery test hook: SIGKILL our
    own process mid-lease after that many completed paths, simulating a
    worker lost to the OOM killer — nothing is committed, exercising
    the coordinator's lease re-queue path.

    A worker ignores SIGINT: Ctrl-C reaches the whole process group, and
    the coordinator alone decides what it means.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    system = system_or_factory() if callable(system_or_factory) else system_or_factory
    # Checked once per path: a poll object costs a tenth of ``conn.poll()``.
    inbox = select.poll()
    inbox.register(conn, select.POLLIN)
    paths_seen = 0
    suspend = False
    while True:
        message = conn.recv()
        if message is None:
            return
        kind, seq, *payload = message
        suspend = suspend or kind == "suspend"
        if kind != "lease":
            continue
        prefix, stolen = payload

        def yield_check() -> bool:
            nonlocal paths_seen, suspend, stolen
            paths_seen += 1
            if kill_after_paths is not None and paths_seen >= kill_after_paths:
                os.kill(os.getpid(), signal.SIGKILL)
            # ``None`` never arrives before a suspend request.
            while not (suspend or stolen) and inbox.poll(0):
                request, asked, _ = conn.recv()
                suspend = request == "suspend"
                stolen = request == "steal" and asked == seq
            return suspend or stolen

        def beat(stats: SearchStats) -> None:
            transitions = stats.transitions_executed + stats.replayed_transitions
            conn.send(("beat", seq, stats.states_visited, transitions))

        lease_options = options
        if trace:
            from ..obs import Tracer

            lease_options = replace(lease_options, tracer=Tracer())
        if beats:
            lease_options = replace(lease_options, progress=beat)
        try:
            report, residuals, fps = explore_lease(
                system,
                prefix,
                lease_options,
                yield_check=yield_check,
                lease_index=seq,
            )
        except Exception as err:  # commit the failure; don't strand the lease
            conn.send(("result", seq, err, [], None, False))
            continue
        if trace:
            report.trace_payload = lease_options.tracer.export(label=f"worker-{os.getpid()}")
        # The lease options hold this worker's tracer and beat callback;
        # the coordinator records the search's own options.
        report.options = None
        conn.send(("result", seq, report, residuals, fps, stolen and bool(residuals)))


class _WorkerHandle:
    """The coordinator's one record of a worker process: its pipe, the
    lease it holds, the counters of that lease's last beat, and its
    health.

    Progress is counter movement, not beat arrival: a worker stuck
    inside one transition stops counting whether or not it still beats.
    Assigning a lease and committing it count as progress too.  The
    caller passes ``now`` (``time.monotonic()`` seconds); a method that
    starts or ends a stall episode returns the notice to print.
    """

    __slots__ = (
        "process", "conn", "label", "assigned", "asked", "leases_done", "stolen_from",
        "states", "transitions", "last_progress", "stalled",
    )

    def __init__(self, process, conn, label: str):
        self.process = process
        self.conn = conn
        self.label = label
        self.assigned: tuple[tuple[int, ...], int, ChoicePrefix | None] | None = None
        #: The lease this worker was last asked to give up work from.
        self.asked: int | None = None
        self.leases_done = 0
        self.stolen_from = 0
        self.states = 0
        self.transitions = 0
        self.last_progress = 0.0
        #: Whether a stall warning is outstanding.
        self.stalled = False

    def holds(self, seq: int) -> bool:
        """Whether lease ``seq`` is still this worker's.  Anything else
        it reports is about a lease re-queued since, and is dropped —
        so each lease is committed exactly once."""
        return self.assigned is not None and self.assigned[1] == seq

    def assign(
        self, entry: tuple[tuple[int, ...], int, ChoicePrefix | None], now: float
    ) -> None:
        """Take a pending lease: the counters and the progress clock
        restart."""
        self.assigned = entry
        self.states = self.transitions = 0
        self.last_progress = now

    def beat(self, states: int, transitions: int, now: float) -> str | None:
        """Fold in a beat of the held lease."""
        moved = states > self.states or transitions > self.transitions
        self.states, self.transitions = states, transitions
        return self._progressed(now) if moved else None

    def release(self, was_steal: bool, now: float) -> str | None:
        """The held lease's result arrived: the worker is idle, with one
        more lease done."""
        notice = self._progressed(now)
        self.assigned = None
        self.leases_done += 1
        self.stolen_from += was_steal
        return notice

    def _progressed(self, now: float) -> str | None:
        self.last_progress = now
        if not self.stalled:
            return None
        self.stalled = False
        return (
            f"worker {self.label} recovered (lease {self.assigned[1]}, "
            f"states={self.states})"
        )

    def stall_warning(self, timeout: float | None, now: float) -> str | None:
        """The warning for a held lease without progress for more than
        ``timeout`` seconds, once per stall episode (``timeout=None``
        turns detection off; an idle worker never stalls)."""
        if timeout is None or self.assigned is None or self.stalled:
            return None
        silent = now - self.last_progress
        if silent <= timeout:
            return None
        self.stalled = True
        return (
            f"worker {self.label} has made no progress for {silent:.1f}s "
            f"(lease {self.assigned[1]}, states={self.states}) — stalled or very slow"
        )

    def describe(self, now: float) -> str:
        """The worker's ticker line."""
        if self.assigned is None:
            return f"worker {self.label}: idle ({self.leases_done} lease(s) done)"
        state = "STALLED" if self.stalled else "busy"
        return (
            f"worker {self.label}: {state} lease {self.assigned[1]} "
            f"states={self.states} transitions={self.transitions} "
            f"last progress {max(0.0, now - self.last_progress):.1f}s ago"
        )

    def summary(self, alive: bool) -> dict:
        """The worker's ``worker_summary`` entry."""
        return {"leases": self.leases_done, "stolen_from": self.stolen_from, "alive": alive}


def _worker_lines(workers: dict[int, _WorkerHandle], now: float) -> list[str]:
    """The ticker's per-worker lines, in worker order."""
    return [workers[wid].describe(now) for wid in sorted(workers)]


def _inflight(workers: dict[int, _WorkerHandle]) -> tuple[int, int]:
    """``(states, transitions)`` of the leases busy workers hold: work no
    committed block covers yet, which the live totals add."""
    busy = [handle for handle in workers.values() if handle.assigned is not None]
    return sum(h.states for h in busy), sum(h.transitions for h in busy)


def _steal_targets(
    scheduler: str, workers: Iterable[_WorkerHandle]
) -> list[_WorkerHandle]:
    """The busy workers to ask for a steal while no lease is pending.

    Under the ``steal`` policy each idle worker gets one request
    outstanding, each to a different busy worker, shallowest lease
    first; a lease already asked is never asked again.  ``static`` asks
    nobody.
    """
    if scheduler != "steal":
        return []
    workers = list(workers)
    busy = [w for w in workers if w.assigned is not None]
    unasked = [w for w in busy if w.asked != w.assigned[1]]
    idle = len(workers) - len(busy)
    outstanding = len(busy) - len(unasked)
    unasked.sort(key=lambda w: (len(w.assigned[0]), w.assigned[0]))
    return unasked[: max(0, idle - outstanding)]


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

    Emitted exactly once per search, before any fan-out, never per
    round — work stealing hands out leases continuously, so a per-round
    check would repeat it.  ``jobs <= 1`` runs in-process with no pool
    and no separate coordinator, so it never warns.  Returns whether a
    warning was emitted (for the tests).
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


def parallel_search(
    system: System,
    options: SearchOptions | None = None,
    *,
    system_factory: Callable[[], System] | None = None,
    initial: SearchCheckpoint | None = None,
    should_suspend: Callable[[], bool] | None = None,
    on_checkpoint: Callable[[SearchCheckpoint], None] | None = None,
    checkpoint_interval: float | None = None,
    kill_worker_after_paths: int | None = None,
    **overrides: Any,
) -> ExplorationReport:
    """Explore ``system`` with stateless worker processes over subtree
    leases, under the lease policy ``options.scheduler`` names (see the
    module docstring).

    ``options`` is a :class:`~repro.verisoft.search.SearchOptions`
    (individual fields may be overridden by keyword); ``jobs <= 1``
    runs every lease in-process (the determinism baseline — identical
    merge, no multiprocessing primitives).  For systems that cannot be
    pickled, pass a top-level ``system_factory`` callable that rebuilds
    the system inside each worker.

    Service hooks:

    * ``initial`` — resume a suspended search from its
      :class:`~repro.service.frontier.SearchCheckpoint` (the system
      fingerprint and the options are verified first).
    * ``should_suspend`` — polled by the coordinator (and, in-process,
      between paths); returning true suspends every worker, commits all
      in-flight leases and returns a report with ``report.checkpoint``
      set.  The counters/events of that report cover the explored
      region only and ``incomplete`` is flagged.  A spent
      ``time_budget`` suspends the search the same way, and its report
      is also flagged ``truncated``.
    * ``on_checkpoint`` / ``checkpoint_interval`` — periodic *live*
      checkpoints: every interval the coordinator snapshots completed
      blocks plus pending **and assigned** leases (an assigned lease's
      partial work is uncommitted, so writing it as pending is
      consistent) and hands the checkpoint to the callback.  The search
      keeps running.
    * ``kill_worker_after_paths`` — crash-test hook, forwarded to the
      *first* worker only (see :func:`_worker_main`).
    """
    from ..service import frontier

    options = search_options(options, {**overrides, "strategy": "parallel"})
    steal = options.scheduler == "steal"
    jobs = options.jobs or os.cpu_count() or 1
    tracer = options.tracer
    started = time.monotonic()
    deadline = None if options.time_budget is None else started + options.time_budget

    # Warnings go through the progress printer when it has a ``warn``
    # (keeps them from colliding with the self-overwriting ticker).
    _warn = getattr(options.progress, "warn", None) or (
        lambda message: print(f"warning: {message}", file=sys.stderr)
    )
    # Judged on the *requested* job count, once, before any fan-out
    # (the jobs=0 "all cores" default never warns).
    warn_oversubscription(options.jobs, _warn)

    # Resolve the effective modes up front (the per-lease explorers
    # resolve them identically) so stats are right even if the search
    # suspends before any lease completes.
    modes = options.resolve(system)

    def phase(name: str, **args: Any):
        return contextlib.nullcontext() if tracer is None else tracer.phase(name, **args)

    # -- seed the lease pool (fresh root lease, or a checkpoint) ----------
    pending: list[tuple[tuple[int, ...], int, ChoicePrefix | None]] = []
    blocks: list[tuple[tuple[int, ...], ExplorationReport]] = []
    fingerprints: set[tuple[bytes, ...]] | None = set() if options.count_states else None
    lease_seq = 0
    leases = steals = requeued = 0
    if initial is not None:
        initial.check_system(system)
        initial.check_options(options)
        for prefix in initial.pending:
            heapq.heappush(pending, (frontier.pending_key(prefix), lease_seq, prefix))
            lease_seq += 1
        blocks = list(initial.completed)
        if fingerprints is not None:
            fingerprints |= initial.fingerprints
        leases, steals, requeued = (
            initial.leases,
            initial.steals,
            initial.leases_requeued,
        )
    else:
        heapq.heappush(pending, ((), 0, None))
        lease_seq = 1
        leases = 1

    # What a lease runs with: the caller's options minus the in-process
    # handles (picklable, so the same object travels to workers) and
    # minus the wall-clock budget, which suspends leases at a path
    # boundary instead of cutting them short.  Leases explored in this
    # process record straight into the caller's tracer.
    lease_options = replace(options, tracer=None, progress=None, time_budget=None)
    local_options = replace(lease_options, tracer=tracer)

    # Live coverage gauge: incrementally merged at block commit so
    # progress ticks don't re-merge every shard.  The *final*
    # report's coverage is still rebuilt from scratch by
    # ``merge_reports`` (the counter-exact path).
    live_coverage = None
    if options.coverage:
        from ..obs import CoverageCollector

        live_coverage = CoverageCollector(system)

    suspended = False
    stop_early = False
    expired = False
    worker_summary: dict[str, dict] = {}

    def commit(
        key: tuple[int, ...],
        report: ExplorationReport,
        residuals: list[ChoicePrefix],
        lease_fps: frozenset | None,
        was_steal: bool,
    ) -> None:
        nonlocal lease_seq, leases, steals
        if report.trace_payload is not None:
            # A worker traced this lease: its timeline becomes a track.
            tracer.merge(report.trace_payload)
            report.trace_payload = None
        blocks.append((key, report))
        if live_coverage is not None and report.coverage is not None:
            live_coverage.add(report.coverage)
        if fingerprints is not None and lease_fps:
            fingerprints.update(lease_fps)
        for residual in residuals:
            heapq.heappush(pending, (prefix_key(residual), lease_seq, residual))
            lease_seq += 1
            leases += 1
        if was_steal:
            steals += 1

    def build_checkpoint(
        extra_pending: list[tuple[tuple[int, ...], int, ChoicePrefix | None]] = (),
    ) -> SearchCheckpoint:
        entries = sorted([*pending, *extra_pending], key=lambda e: (e[0], e[1]))
        return frontier.SearchCheckpoint(
            fingerprint=system.fingerprint(),
            options=options.as_dict(),
            pending=[prefix for _, _, prefix in entries],
            completed=list(blocks),
            fingerprints=set() if fingerprints is None else set(fingerprints),
            leases=leases,
            steals=steals,
            leases_requeued=requeued,
        )

    def live_stats() -> SearchStats:
        live = SearchStats.merged(
            [r.stats for _, r in blocks if r.stats is not None],
            strategy="parallel",
            backtrack=modes.backtrack,
            engine=modes.engine,
            jobs=jobs,
            prefixes=leases,
            leases=leases,
            steals=steals,
            leases_requeued=requeued,
        )
        live.wall_time = time.monotonic() - started
        # Gauges for the progress callback: coverage so far and frontier
        # depth.  ``frontier_pending`` is a live-only gauge — the final
        # merged stats keep it at 0 (the frontier is drained), so
        # cross-driver parity checks are unaffected.
        if live_coverage is not None:
            live.coverage_nodes = live_coverage.nodes_covered
            live.coverage_nodes_total = live_coverage.nodes_total
        live.frontier_pending = len(pending)
        return live

    def suspend_due() -> bool:
        """Whether a stop request or the spent wall-clock budget asks
        the search to suspend (the in-process leases' yield check)."""
        return (should_suspend is not None and should_suspend()) or (
            deadline is not None and time.monotonic() > deadline
        )

    def stop_requested() -> bool:
        """:func:`suspend_due`, recording which of the two it was."""
        nonlocal suspended, expired
        if should_suspend is not None and should_suspend():
            suspended = True
        elif deadline is not None and time.monotonic() > deadline:
            expired = True
        return suspended or expired

    def budget_spent() -> bool:
        """Whether the committed blocks used up ``max_paths`` or
        ``max_transitions`` (enforced per lease, re-checked here)."""
        return (
            options.max_paths is not None
            and sum(r.paths_explored for _, r in blocks) >= options.max_paths
        ) or (
            options.max_transitions is not None
            and sum(r.transitions_executed for _, r in blocks) >= options.max_transitions
        )

    next_checkpoint = (
        None if checkpoint_interval is None else started + checkpoint_interval
    )

    def checkpoint_tick(
        extra_pending: list[tuple[tuple[int, ...], int, ChoicePrefix | None]],
    ) -> None:
        nonlocal next_checkpoint
        if next_checkpoint is None or on_checkpoint is None:
            return
        now = time.monotonic()
        if now < next_checkpoint:
            return
        next_checkpoint = now + checkpoint_interval
        on_checkpoint(build_checkpoint(extra_pending))

    next_tick = started + options.progress_interval

    def run_here(split: bool) -> None:
        """Explore pending leases in this process: all of them in DFS
        order, or (``split``, the static policy) one path of the
        shallowest lease at a time — the rest of it becomes new leases —
        until there are :data:`SPLIT_PER_JOB` leases per worker."""
        nonlocal suspended, expired, stop_early, next_tick
        here = worker_summary.setdefault(
            "w0" if jobs <= 1 else "coordinator",
            {"leases": 0, "stolen_from": 0, "alive": True},
        )
        while pending and not (split and len(pending) >= SPLIT_PER_JOB * jobs):
            if stop_requested():
                return
            if split:
                entry = min(pending, key=lambda e: (len(e[0]), e[0]))
                pending.remove(entry)
                heapq.heapify(pending)
            else:
                entry = heapq.heappop(pending)
            key, seq, prefix = entry
            report, residuals, lease_fps = explore_lease(
                system,
                prefix,
                local_options,
                yield_check=(lambda: True) if split else suspend_due,
                lease_index=seq,
            )
            commit(key, report, residuals, lease_fps, was_steal=False)
            here["leases"] += 1
            if options.progress is not None:
                now = time.monotonic()
                if now >= next_tick:
                    options.progress(live_stats())
                    next_tick = now + options.progress_interval
            # A lease cut short by a budget or the first event is no
            # finished lease: no live checkpoint may record it as one.
            if options.stop_on_first and not report.ok:
                stop_early = True
                return
            if budget_spent():
                return
            checkpoint_tick([])

    if jobs > 1 and not steal:
        with phase("split", jobs=jobs):
            run_here(split=True)
    if jobs <= 1:
        with phase("fan-out", jobs=jobs):
            run_here(split=False)
    elif pending and not (suspended or expired or stop_early or budget_spent()):
        with phase("fan-out", leases=len(pending), jobs=jobs):
            # ----------------------------------------------------------
            # Multiprocess coordinator: one duplex pipe per worker
            # ----------------------------------------------------------
            from multiprocessing.connection import wait

            beats = options.progress is not None or options.stall_timeout is not None
            trace = tracer is not None

            workers: dict[int, _WorkerHandle] = {}
            next_worker_id = 0
            respawns = 0
            max_respawns = 2 * jobs + 2
            system_payload = system_factory if system_factory is not None else system

            def spawn(kill_after: int | None = None) -> None:
                nonlocal next_worker_id
                conn, worker_conn = multiprocessing.Pipe()
                process = multiprocessing.Process(
                    target=_worker_main,
                    args=(system_payload, lease_options, worker_conn, trace, beats, kill_after),
                    daemon=True,
                )
                process.start()
                # Only the worker holds its end now: its death reads as
                # EOF here, after everything it sent before dying.
                worker_conn.close()
                workers[next_worker_id] = _WorkerHandle(process, conn, f"w{next_worker_id}")
                next_worker_id += 1

            for i in range(jobs):
                spawn(kill_worker_after_paths if i == 0 else None)

            tick = max(0.05, min(options.progress_interval, 1.0))
            worker_error: Exception | None = None

            def post(handle: _WorkerHandle, message: Any) -> None:
                # A failed send means a dead worker: its pipe reads EOF.
                with contextlib.suppress(OSError):
                    handle.conn.send(message)

            def fold(handle: _WorkerHandle, message: tuple) -> None:
                nonlocal stop_early, worker_error
                kind, seq, *rest = message
                if not handle.holds(seq):
                    return  # about a lease re-queued since
                if kind == "beat":
                    notice = handle.beat(*rest, time.monotonic())
                    if notice is not None:
                        _warn(notice)
                    return
                payload, residuals, fps, was_steal = rest
                key = handle.assigned[0]
                notice = handle.release(was_steal, time.monotonic())
                if notice is not None:
                    _warn(notice)
                if isinstance(payload, Exception):
                    # A deterministic explorer failure would repeat on
                    # re-queue: surface it instead of spinning.
                    worker_error = payload
                    stop_early = True
                    return
                commit(key, payload, residuals, fps, was_steal)
                if options.stop_on_first and not payload.ok:
                    stop_early = True

            def receive(timeout: float) -> list[int]:
                """Fold in what the workers sent, waiting up to
                ``timeout`` seconds; returns the workers whose pipe hit
                EOF: they are dead."""
                by_conn = {handle.conn: wid for wid, handle in workers.items()}
                dead = []
                for conn in wait(list(by_conn), timeout):
                    wid = by_conn[conn]
                    try:
                        while conn.poll():
                            fold(workers[wid], conn.recv())
                    except (EOFError, OSError):
                        dead.append(wid)
                return dead

            def bury(wid: int) -> None:
                """Drop a dead worker; its uncommitted lease is re-queued
                verbatim (commits are atomic — partial work is never
                merged)."""
                nonlocal requeued
                handle = workers.pop(wid)
                handle.conn.close()
                handle.process.join(1.0)
                worker_summary[handle.label] = handle.summary(alive=False)
                if handle.assigned is not None:
                    heapq.heappush(pending, handle.assigned)
                    handle.assigned = None
                    requeued += 1
                    _warn(f"worker {handle.label} died mid-lease; lease re-queued")

            def progress_tick() -> None:
                nonlocal next_tick
                now = time.monotonic()
                for handle in workers.values():
                    warning = handle.stall_warning(options.stall_timeout, now)
                    if warning is not None:
                        _warn(warning)
                if options.progress is None or now < next_tick:
                    return
                next_tick = now + options.progress_interval
                worker_lines = getattr(options.progress, "worker_lines", None)
                if worker_lines is not None:
                    worker_lines(_worker_lines(workers, now))
                live = live_stats()
                inflight_states, inflight_transitions = _inflight(workers)
                live.states_visited += inflight_states
                live.transitions_executed += inflight_transitions
                options.progress(live)

            try:
                while True:
                    # Assign pending leases to idle workers only — the
                    # coordinator always knows who holds what, so a death
                    # never loses a lease.
                    handed = []
                    for handle in workers.values():
                        if not pending:
                            break
                        if handle.assigned is None:
                            handle.assign(heapq.heappop(pending), time.monotonic())
                            handed.append(handle)
                    busy = [w for w in workers.values() if w.assigned is not None]
                    if not pending and not busy:
                        break
                    asked = []
                    if not pending:
                        asked = _steal_targets(options.scheduler, workers.values())
                        for handle in asked:
                            handle.asked = handle.assigned[1]
                    # A lease asked for a steal as it is handed out carries
                    # the request: sent apart, the request could arrive
                    # after a short lease has finished.
                    for handle in handed:
                        _, seq, prefix = handle.assigned
                        post(handle, ("lease", seq, prefix, handle.asked == seq))
                    for handle in asked:
                        if handle not in handed:
                            post(handle, ("steal", handle.asked, None))

                    dead = receive(tick)
                    progress_tick()
                    if stop_early or budget_spent() or stop_requested():
                        break
                    checkpoint_tick([w.assigned for w in busy if w.assigned is not None])

                    # A dead worker's lease goes back to the pool, and a
                    # replacement is spawned while work remains.
                    for wid in dead:
                        bury(wid)
                        if respawns < max_respawns and (pending or any(
                            w.assigned is not None for w in workers.values()
                        )):
                            respawns += 1
                            spawn()

                    if not workers and pending:
                        # Every worker is gone and respawning is exhausted:
                        # finish the remaining leases in-process rather than
                        # abandoning the search.
                        run_here(split=False)
                        break

            finally:
                # Suspend and release every worker, then read each pipe to
                # EOF: a worker holding a lease suspends at its next path
                # boundary and commits it first.  On a stop request or a
                # spent time budget, a lease not committed within the
                # grace period is re-queued uncommitted.
                resumable = suspended or expired
                for handle in workers.values():
                    post(handle, ("suspend", None, None))
                    post(handle, None)
                deadline_join = time.monotonic() + (10.0 if resumable else 5.0)
                for handle in workers.values():
                    with contextlib.suppress(EOFError, OSError):
                        while handle.conn.poll(max(0.0, deadline_join - time.monotonic())):
                            fold(handle, handle.conn.recv())
                    handle.conn.close()
                    if resumable and handle.assigned is not None:
                        heapq.heappush(pending, handle.assigned)
                        handle.assigned = None
                        requeued += 1
                    handle.process.join(max(0.1, deadline_join - time.monotonic()))
                    if handle.process.is_alive():
                        handle.process.terminate()
                        handle.process.join(1.0)
                    worker_summary[handle.label] = handle.summary(
                        alive=not handle.process.exitcode or handle.process.exitcode >= 0
                    )

            if worker_error is not None:
                raise worker_error

    # Sorting the blocks by prefix key reproduces the sequential DFS
    # order: every explored path of a suspended lease precedes every
    # path of its residuals, and a parent block's key is a strict
    # tuple-prefix of its residuals' keys.
    with phase("merge"):
        merged = merge_reports(
            [report for _, report in sorted(blocks, key=lambda entry: entry[0])],
            max_events=options.max_events,
            fingerprints=fingerprints,
        )
    if budget_spent():
        merged.truncated = True
    if suspended or expired:
        merged.incomplete = True
        merged.checkpoint = build_checkpoint()
    if expired:
        # The sequential explorer flags a spent time budget this way.
        merged.truncated = True
    merged.stats.prefixes = leases
    merged.stats.leases = leases
    merged.stats.steals = steals
    merged.stats.leases_requeued = requeued
    merged.stats.backtrack = modes.backtrack
    merged.stats.engine = modes.engine
    merged.stats.jobs = jobs
    merged.stats.wall_time = time.monotonic() - started
    merged.worker_summary = dict(sorted(worker_summary.items())) or None
    merged.options = options
    merged.stats.state_cache = options.state_cache
    return merged
