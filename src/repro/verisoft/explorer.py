"""The VeriSoft-style systematic state-space explorer.

Like VeriSoft [God97], the explorer never stores global states.  A path
through the state space is a sequence of **choices** — which process
executes its next visible operation at each global state, and which
value each ``VS_toss`` returns — and the search is a depth-first walk
over the choice tree.  *How* it backtracks is selectable
(``backtrack=``):

* ``"replay"`` — the classic stateless mode: re-execute the system from
  its initial state along the recorded choice prefix (the runtime is
  deterministic, so replay is exact).  Always available.
* ``"restore"`` — incremental backtracking: the runtime keeps an undo
  journal (:mod:`repro.runtime.journal`), the explorer checkpoints each
  branching choice point, and backtracking rewinds to the checkpoint in
  O(changes since) instead of re-executing O(depth) transitions.
  Requires every communication object to be journalable; the search
  layer falls back to replay otherwise.  The two modes walk the *same*
  choice tree — identical states, transitions, events and POR decisions
  — and differ only in the ``replays``/``replayed_transitions``/
  ``restores`` telemetry (see ``docs/backtracking.md``).

At every global state the explorer checks for deadlocks, records
assertion outcomes, process crashes (runtime faults) and divergences,
and expands a *persistent* subset of the enabled transitions filtered
through a *sleep set* (:mod:`repro.verisoft.por`) — the partial-order
methods that [God97] identifies as the key to tractability.  For finite
acyclic state spaces the search is exhaustive up to the depth bound; it
"can always guarantee, from a given initial state, complete coverage of
the state space up to some depth".

Optionally the search is no longer purely stateless: given a
``state_store`` (:mod:`repro.statespace`), every freshly reached global
state is looked up before being expanded and the subtree below a state
that was already expanded is pruned — state-space caching, the standard
complement to stateless search.  Sleep sets are *path-dependent*, so
combining them with caching can miss transitions (a state first reached
with a large sleep set records a smaller subtree than an uncached
search would explore from it); callers wanting soundness disable sleep
sets alongside caching via ``sleep_sets=False`` (the search layer's
``safe`` cache mode).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..obs.observer import Observation, SearchObserver, timed
from ..runtime.process import ProcessStatus
from ..runtime.system import Run, System
from .por import (
    PersistentSetComputer,
    TransitionSig,
    augment_sleep,
    intern_signature,
    process_footprint,
    signature_of,
)
from .results import (
    NO_TRACE,
    AssertionViolationEvent,
    Choice,
    CrashEvent,
    DeadlockEvent,
    DivergenceEvent,
    ExplorationReport,
    ScheduleChoice,
    TossChoice,
    Trace,
    TraceStep,
    without_trace,
)
from .search import SearchOptions, search_options
from .stats import SearchStats


@dataclass
class _ChoicePoint:
    """One branching decision in the DFS, with its untried alternatives."""

    kind: str  # "schedule" | "toss"
    alternatives: list[Any]  # process names or toss values
    index: int = 0
    sleep: frozenset[TransitionSig] = frozenset()
    #: signature per alternative (schedule points; used for sleep sets).
    sigs: list[TransitionSig | None] = field(default_factory=list)
    #: Restore-mode bookkeeping (:class:`_ResumeInfo`); ``None`` in
    #: replay mode and for single-alternative points, which are
    #: exhausted at creation and can never become a backtrack target.
    resume: Any = None

    @property
    def chosen(self) -> Any:
        return self.alternatives[self.index]

    def exhausted(self) -> bool:
        return self.index + 1 >= len(self.alternatives)


@dataclass(frozen=True, slots=True)
class _ResumeInfo:
    """Everything needed to re-enter the DFS at a choice point without
    re-executing the path prefix: the runtime checkpoint plus the
    explorer-side execution state (depth, carried sleep set, lengths to
    truncate the recorded choice/step lists back to, and which processes
    had already been noted as crashed/diverged).  Captured by
    :meth:`Explorer._choice` *before* the point's own choice is
    appended."""

    checkpoint: Any
    depth: int
    sleep: frozenset[TransitionSig]
    choices_len: int
    steps_len: int
    noted_broken: frozenset[str]


class _Leaf(Exception):
    """Internal: the current execution reached a leaf of the DFS tree."""


#: Shared empty sleep set — the overwhelmingly common value in the hot
#: loop; sharing it avoids one frozenset() allocation per transition.
_EMPTY_SLEEP: frozenset = frozenset()


class Explorer:
    """Drives the systematic search over a :class:`repro.runtime.System`.

    Takes the driver convention ``(system, options, *, <driver-owned
    state>, **overrides)``: every knob — depth bound, backtracking mode,
    engine, POR, state caching, budgets, event cap, observers — comes
    from ``options`` (a :class:`~repro.verisoft.search.SearchOptions`,
    whose defaults are the only defaults), with fields overridable by
    keyword.  ``options.resolve`` decides the restore → replay and
    compiled → walk fallbacks; both modes and both engines walk the
    identical choice tree and report identical counters apart from the
    backtracking-cost group.  The one wall-clock budget,
    ``time_budget``, is checked at every global state; when it expires
    the report is flagged ``incomplete`` (and ``truncated``).

    The state only this driver owns:

    * ``initial_stack`` — a frozen choice prefix (see
      :mod:`repro.verisoft.parallel`); the search replays it and
      explores only the subtree below — backtracking never climbs above
      the prefix.  Prefix states/transitions are not re-counted.
    * ``prefix_mode`` — how the *last* pinned decision of
      ``initial_stack`` is accounted.  ``"frontier"`` (the static
      parallel partition): the edge into the frontier state was already
      executed and counted by the coordinator that enumerated the
      prefix, so the first replay does not re-count it.  ``"resume"``
      (work-stealing leases and suspended-search resumption,
      :mod:`repro.service`): the last pinned decision was *never
      executed* — an untried sibling harvested from a suspended DFS
      stack — so its out-edge and everything below it is counted,
      exactly as the sequential search would after bumping that point.
    * ``yield_check`` — cooperative suspension, polled between paths.
      When it returns true *and* untried alternatives remain above the
      frozen prefix, the DFS stops cleanly: :attr:`suspended` is set
      and :attr:`final_stack`/:attr:`final_base` expose the live choice
      stack for :func:`repro.verisoft.parallel.harvest_residual`.  The
      report covers exactly the paths completed so far, so a partial
      report plus the residual prefixes partitions the subtree
      losslessly.
    * ``frontier_depth`` / ``on_frontier`` — the frontier cut: every
      path is cut at this depth and the choice stack handed to
      ``on_frontier`` instead of descending (the parallel driver's
      prefix enumeration).
    * ``fingerprint_set`` — with ``count_states``, collect fingerprints
      into this caller-owned set (so a coordinator can union worker
      sets).
    * ``observer`` — a driver-owned
      :class:`~repro.obs.observer.SearchObserver` (the parallel
      workers' heartbeats) observing alongside the ones the options ask
      for (:class:`~repro.obs.observer.Observation`).

    The hot loop shares **one** canonical state key per global state
    (:meth:`Run.state_key`, incremental for pointer-free programs)
    between seen-state dedup and the state store, and with ``por`` on
    memoizes the persistent candidates on the state's control
    projection.  With ``profile`` its named calls — the engine steps,
    :meth:`Run.state_key`, the store visit, the per-state analysis and
    the coverage observer — are timed into the profile's ``engine``,
    ``fingerprint``, ``cache``, ``por`` and ``coverage`` phases.
    """

    def __init__(
        self,
        system: System,
        options: SearchOptions | None = None,
        *,
        initial_stack: list[_ChoicePoint] | None = None,
        prefix_mode: str = "frontier",
        yield_check: Callable[[], bool] | None = None,
        frontier_depth: int | None = None,
        on_frontier: Callable[[list[_ChoicePoint]], None] | None = None,
        fingerprint_set: set[Any] | None = None,
        observer: SearchObserver | None = None,
        **overrides: Any,
    ):
        if prefix_mode not in ("frontier", "resume"):
            raise ValueError(f"unknown prefix mode {prefix_mode!r}")
        self._options = options = search_options(options, overrides)
        modes = options.resolve(system)
        self._system = system
        self._max_depth = options.max_depth
        self._restore = modes.backtrack == "restore"
        self._engine = modes.engine
        self._sleep_sets = modes.sleep_sets
        self._state_store = options.make_state_store()
        self._count_states = options.count_states
        self._stop_on_first = options.stop_on_first
        self._max_events = options.max_events
        self._on_leaf = options.on_leaf
        self._initial_stack = initial_stack
        self._prefix_mode = prefix_mode
        self._yield_check = yield_check
        self._frontier_depth = frontier_depth
        self._on_frontier = on_frontier
        self._fingerprint_set = fingerprint_set
        self._extra_observer = observer
        self._observer: SearchObserver | None = None
        #: Set when ``yield_check`` stopped the DFS before exhaustion;
        #: :attr:`final_stack`/:attr:`final_base` then hold the live
        #: choice stack for residual harvesting.
        self.suspended = False
        self.final_stack: list[_ChoicePoint] | None = None
        self.final_base = 0
        self._live: PathState | None = None
        self._live_checkpoint_bytes = 0
        self._peak_checkpoint_bytes = 0
        self._deadline: float | None = None
        self._persistent: PersistentSetComputer | None = None
        if options.por:
            self._persistent = PersistentSetComputer(self._compute_footprints(system))
        #: Persistent-set memo keyed by the *control projection* of a
        #: state — ``(tuple of interned per-process signature ids,
        #: enabled bitmask)`` — holding ``(candidate names,
        #: signatures)``.  The persistent closure reads only transition
        #: signatures, enabledness and static footprints, so states
        #: sharing a projection share the result; the projection both
        #: hashes faster than a full state key and hits far more often.
        self._state_memo: dict[tuple, tuple] = {}
        # Whether any consumer needs the canonical key at each state.
        self._need_key = self._state_store is not None or options.count_states
        #: Interned trace records: ScheduleChoice / TossChoice /
        #: TraceStep are frozen value objects drawn from a tiny
        #: per-system domain, so each distinct record is allocated once
        #: and shared across every append of a long search.
        self._sched_cache: dict[str, ScheduleChoice] = {}
        self._toss_cache: dict[tuple[str, int], TossChoice] = {}
        self._step_cache: dict[tuple, TraceStep] = {}

    @staticmethod
    def _compute_footprints(system: System) -> dict[str, set[str]]:
        from ..dataflow.alias import analyze_aliases

        points_to = analyze_aliases(system.cfgs)
        footprints: dict[str, set[str]] = {}
        for name, proc, args in system.process_specs:
            cfg = system.cfgs[proc]
            launch = dict(zip(cfg.params, args))
            footprints[name] = process_footprint(
                system.cfgs, proc, launch, points_to
            )
        return footprints

    def _bind_calls(self, phases: dict | None) -> None:
        """Bind the hot loop's named calls; with a profile's ``phases``
        each is timed into its phase."""

        def bind(fn: Callable, phase: str) -> Callable:
            return fn if phases is None else timed(fn, phases, phase)

        self._start = bind(Run.start_processes, "engine")
        self._answer = bind(Run.answer_toss, "engine")
        self._step = bind(Run.execute_visible, "engine")
        self._state_key = bind(Run.state_key, "fingerprint")
        self._analyze = bind(_analyze_state, "por")
        store = self._state_store
        self._store_visit = None if store is None else bind(store.visit, "cache")

    # -- public API -------------------------------------------------------------

    def run(self) -> ExplorationReport:
        report = ExplorationReport()
        stats = report.stats = SearchStats(
            strategy="dfs",
            backtrack="restore" if self._restore else "replay",
            engine=self._engine,
        )
        if self._state_store is not None:
            report.state_caching = {
                **self._state_store.config(),
                "sleep_sets": self._sleep_sets,
            }
        seen_states: set[Any] | None = None
        if self._count_states:
            report.distinct_states = 0
            seen_states = self._fingerprint_set
            if seen_states is None:
                seen_states = set()
        stack: list[_ChoicePoint] = list(self._initial_stack or ())
        base = len(stack)
        started = time.monotonic()
        cpu_started = time.process_time()

        def live_stats() -> SearchStats:
            self._sync_stats(report, stats, started, cpu_started)
            return stats

        observation = Observation(
            self._options,
            self._system,
            live_stats=live_stats,
            span=("path", "dfs"),
            extra=self._extra_observer,
        )
        self._observer = observer = observation.observer
        self._bind_calls(observation.phases)
        if self._options.time_budget is not None:
            self._deadline = started + self._options.time_budget
        executions = 0
        resume_point: _ChoicePoint | None = None

        while True:
            # On the very first pass over a frozen frontier prefix
            # nothing has been bumped: the prefix's edges were all
            # executed (and recorded) by the coordinator that produced
            # it.  A "resume" prefix instead pins an *untried* decision
            # at its tip, whose out-edge is fresh ground.
            frozen_replay = (
                executions == 0 and base > 0 and self._prefix_mode == "frontier"
            )
            try:
                self._execute(stack, report, stats, seen_states, frozen_replay, resume_point)
            except _Leaf:
                pass
            report.paths_explored += 1
            if executions and not self._restore:
                stats.replays += 1
            executions += 1
            if observer is not None:
                observer.on_path_end(report)
            if self._should_stop(report, stack, base):
                break

            # Backtrack to the deepest choice point with untried options,
            # never climbing into a frozen prefix.
            while len(stack) > base and stack[-1].exhausted():
                popped = stack.pop()
                if popped.resume is not None:
                    self._live_checkpoint_bytes -= popped.resume.checkpoint.approx_bytes
            if len(stack) <= base:
                break
            stack[-1].index += 1
            if self._restore:
                # Every bumped point had > 1 alternative, so it carries a
                # checkpoint: rewind the live run instead of re-executing.
                resume_point = stack[-1]

        if seen_states is not None:
            report.distinct_states = len(seen_states)
        live_stats()
        observation.finish(report)
        return report

    def _should_stop(
        self, report: ExplorationReport, stack: list[_ChoicePoint], base: int
    ) -> bool:
        """The between-paths checks: the budgets, the first-event stop,
        the stop predicate and cooperative suspension."""
        options = self._options
        if report.incomplete:
            report.truncated = True
            return True
        if self._stop_on_first and not report.ok:
            return True
        if options.stop_when is not None and options.stop_when(report):
            return True
        if (
            options.max_paths is not None and report.paths_explored >= options.max_paths
        ) or (
            options.max_transitions is not None
            and report.transitions_executed >= options.max_transitions
        ):
            report.truncated = True
            return True
        # Cooperative suspension: a steal request or a stop request
        # arrived between paths.  Only worth honouring while untried
        # alternatives remain above the frozen prefix — otherwise the
        # search is one pop-loop away from finishing anyway.
        if (
            self._yield_check is not None
            and self._yield_check()
            and any(not stack[j].exhausted() for j in range(base, len(stack)))
        ):
            self.suspended = True
            self.final_stack = stack
            self.final_base = base
            return True
        return False

    def _sync_stats(
        self,
        report: ExplorationReport,
        stats: SearchStats,
        started: float,
        cpu_started: float,
    ) -> None:
        stats.states_visited = report.states_visited
        stats.transitions_executed = report.transitions_executed
        stats.toss_points = report.toss_points
        stats.paths_explored = report.paths_explored
        stats.max_depth_reached = report.max_depth_reached
        stats.wall_time = time.monotonic() - started
        stats.cpu_time = time.process_time() - cpu_started
        if self._state_store is not None:
            stats.state_cache = self._state_store.kind
            stats.cache_hits = self._state_store.hits
            stats.cache_misses = self._state_store.misses
            stats.cache_stored = self._state_store.states_stored
            stats.cache_memory_bytes = self._state_store.memory_bytes
        if self._restore and self._live is not None:
            journal = self._live.run.journal
            stats.restores = journal.restores
            stats.undo_entries = journal.entries_recorded
            stats.checkpoint_memory_bytes = (
                journal.peak_memory_bytes() + self._peak_checkpoint_bytes
            )

    # -- one (re-)execution -------------------------------------------------------

    def _execute(
        self,
        stack: list[_ChoicePoint],
        report: ExplorationReport,
        stats: SearchStats,
        seen_states: set[Any] | None,
        frozen_replay: bool,
        resume_point: _ChoicePoint | None,
    ) -> None:
        """One (re-)execution, from a fresh run or a restored checkpoint
        down to a leaf (which raises :class:`_Leaf`)."""
        if resume_point is None:
            state = self._start_run(stack, report, frozen_replay)
            depth, sleep, may_toss, point = 0, _EMPTY_SLEEP, True, None
        else:
            state, depth, sleep, may_toss, point = self._reenter(resume_point)
        run = state.run
        observer = self._observer
        step = self._step
        sched_cache = self._sched_cache
        step_cache = self._step_cache
        while True:
            if point is not None:
                # Resuming at a bumped schedule point: its global state
                # was processed when the point was created (a replay
                # would not re-count it either), so go straight to
                # executing the next alternative.
                created = False
                fanout = len(point.alternatives)
            else:
                if may_toss:
                    self._answer_tosses(state, depth, sleep)
                if self._frontier_depth is not None and depth >= self._frontier_depth:
                    # Frontier cut: hand the subtree below this state to
                    # the parallel driver instead of descending into it.
                    if self._on_frontier is not None:
                        self._on_frontier(state.stack)
                    raise _Leaf()
                if state.ptr < state.replay_len:
                    # A replayed state (inside the stacked prefix) was
                    # fully processed when first reached and — having a
                    # choice point below it — is not a leaf: skip
                    # straight to the recorded decision.
                    point = self._choice(
                        state, "schedule", (), _EMPTY_SLEEP, (), depth, sleep
                    )
                    created = False
                    fanout = len(point.alternatives)
                else:
                    names, sigs = self._visit(state, stats, seen_states, depth, sleep)
                    before = len(state.stack)
                    point = self._choice(state, "schedule", names, sleep, sigs, depth, sleep)
                    created = len(state.stack) > before
                    fanout = len(names)

            name = point.chosen
            chosen = run.process_map[name]
            chosen_sig = point.sigs[point.index] if point.sigs else signature_of(chosen)
            choice = sched_cache.get(name)
            if choice is None:
                choice = sched_cache[name] = ScheduleChoice(name)
            state.choices.append(choice)
            request = chosen.visible_request
            outcome = step(run, chosen)
            fresh_edge = state.ptr >= state.edge_replay_len
            if observer is not None:
                observer.on_step(chosen, request, depth, fanout, created, fresh_edge)
            if fresh_edge:
                report.transitions_executed += 1
            else:
                stats.replayed_transitions += 1
            obj = request.obj
            key = (name, request.op, None if obj is None else obj.name)
            trace_step = step_cache.get(key)
            if trace_step is None:
                trace_step = step_cache[key] = TraceStep(*key)
            state.steps.append(trace_step)
            depth += 1
            if outcome is not None and outcome.violated and fresh_edge:
                state.record(
                    AssertionViolationEvent,
                    depth,
                    outcome.process,
                    outcome.proc_name,
                    outcome.node_id,
                )
            state.note_broken(chosen, depth)
            may_toss = chosen.status is ProcessStatus.NEEDS_TOSS
            if self._stop_on_first and not report.ok:
                self._leaf(state)

            # Sleep set carried into the successor state.  The first
            # alternative under an empty inherited set has nothing to
            # merge and nothing to filter.
            if (
                not self._sleep_sets
                or chosen_sig is None
                or (point.index == 0 and not point.sleep)
            ):
                sleep = _EMPTY_SLEEP
            else:
                explored = [sig for sig in point.sigs[: point.index] if sig is not None]
                sleep = augment_sleep(point.sleep, explored, chosen_sig)
            point = None

    def _start_run(
        self, stack: list[_ChoicePoint], report: ExplorationReport, frozen_replay: bool
    ) -> PathState:
        """Start a fresh run that replays ``stack`` from the initial
        state."""
        run = self._system.start(
            journal=self._restore, engine=self._engine, trace=self._options.coverage
        )
        self._start(run)
        replay_len = len(stack)
        state = PathState(
            run,
            stack,
            replay_len,
            report,
            self._max_events,
            self._observer,
            edge_replay_len=replay_len + 1 if frozen_replay else replay_len,
        )
        if self._observer is not None:
            # The startup segments are fresh ground exactly when nothing
            # precedes them: the sequential first path, the coordinator's
            # (empty-prefix) enumeration, the root steal lease.
            self._observer.on_run_start(run, replay_len == 0)
        if self._restore:
            self._live = state
        for process in run.processes:
            state.note_broken(process, 0)
        return state

    def _reenter(self, point: _ChoicePoint) -> tuple:
        """Restore-mode re-entry: rewind the live run to the bumped
        choice ``point``'s checkpoint and resume the DFS there.

        The execution state is exactly what a replay would have rebuilt
        on reaching the point: choices/steps truncated to the prefix,
        ``ptr`` past every stacked point (so ``fresh`` / ``fresh_edge``
        hold on all ground below, as they would after consuming the
        bumped point during a replay).  Returns ``(state, depth, sleep,
        may_toss, pending schedule point)``.
        """
        info = point.resume
        state = self._live
        run = state.run
        run.restore(info.checkpoint)
        del state.choices[info.choices_len :]
        del state.steps[info.steps_len :]
        state.noted_broken = set(info.noted_broken)
        state.ptr = len(state.stack)
        if self._observer is not None:
            self._observer.on_restore(run)
        if point.kind == "schedule":
            return state, info.depth, info.sleep, False, point
        # Answer the bumped toss and fall into the normal loop —
        # mirroring a replay's pass over the bumped point (not a created
        # point: toss points count at creation only).
        tossing = run.toss_pending()
        request = tossing.toss_request
        value = point.chosen
        state.choices.append(self._toss_choice(tossing.name, value))
        self._answer(run, tossing, value)
        if self._observer is not None:
            self._observer.on_toss(tossing, request, value, info.depth, False, state.fresh_edge)
        state.note_broken(tossing, info.depth)
        return state, info.depth, info.sleep, True, None

    def _answer_tosses(self, state: PathState, depth: int, sleep: frozenset) -> None:
        """Resolve the pending toss choices (invisible, intra-transition).

        Only the process(es) resumed since the last global state can be
        awaiting a toss, so the caller skips this on the common
        transition where the stepped process came back AT_VISIBLE.
        """
        run = state.run
        while True:
            tossing = run.toss_pending()
            if tossing is None:
                return
            request = tossing.toss_request
            before = len(state.stack)
            point = self._choice(
                state, "toss", range(request.bound + 1), _EMPTY_SLEEP, (), depth, sleep
            )
            value = point.chosen
            state.choices.append(self._toss_choice(tossing.name, value))
            self._answer(run, tossing, value)
            if self._observer is not None:
                self._observer.on_toss(
                    tossing, request, value, depth, len(state.stack) > before, state.fresh_edge
                )
            state.note_broken(tossing, depth)

    # -- per-state analysis ---------------------------------------------------------

    def _visit(
        self,
        state: PathState,
        stats: SearchStats,
        seen_states: set[Any] | None,
        depth: int,
        sleep: frozenset,
    ) -> tuple:
        """A freshly reached global state: count it, key it for dedup
        and the store, analyze it and apply the leaf checks (raising
        :class:`_Leaf`); returns the schedule alternatives and their
        signatures that the sleep set leaves awake."""
        report = state.report
        run = state.run
        report.states_visited += 1
        if depth > report.max_depth_reached:
            report.max_depth_reached = depth
        # One canonical key per state, shared by seen-state dedup and the
        # state store, and skipped when nothing consumes it.
        key = None
        if self._need_key:
            key = self._state_key(run)
            if seen_states is not None:
                seen_states.add(key)
        if self._deadline is not None and time.monotonic() > self._deadline:
            report.incomplete = True
            raise _Leaf()
        # State-space caching: prune the subtree below a state that the
        # store has already expanded.
        if self._store_visit is not None and not self._store_visit(
            key, self._max_depth - depth
        ):
            self._leaf(state)

        deadlock, terminated, enabled_count, names, sigs = self._analyze(
            run, self._persistent, self._state_memo
        )
        if deadlock:
            state.record(DeadlockEvent, depth, *_blocked_info(run))
            self._leaf(state)
        if terminated:
            self._leaf(state)
        if depth >= self._max_depth:
            report.truncated = True
            self._leaf(state)
        if not enabled_count:
            # Every live process is blocked but some processes
            # crashed/diverged/terminated: nothing can move.
            self._leaf(state)
        stats.enabled_transitions += enabled_count
        stats.persistent_transitions += len(names)
        if not sleep:
            # Empty sleep set (the common case): the memoized tuples are
            # the awake alternatives — no copies.
            return names, sigs
        awake_names = []
        awake_sigs = []
        for name, sig in zip(names, sigs):
            if sig is not None and sig in sleep:
                stats.sleep_prunes += 1
                continue
            awake_names.append(name)
            awake_sigs.append(sig)
        if not awake_names:
            # All moves are asleep: covered elsewhere.
            self._leaf(state)
        return awake_names, awake_sigs

    # -- choice handling ---------------------------------------------------------------

    def _choice(
        self,
        state: PathState,
        kind: str,
        alternatives: Iterable[Any],
        sleep: frozenset[TransitionSig],
        sigs: Iterable[TransitionSig | None],
        depth: int,
        resume_sleep: frozenset[TransitionSig],
    ) -> _ChoicePoint:
        if state.ptr < len(state.stack):
            point = state.stack[state.ptr]
            state.ptr += 1
            if point.kind != kind:
                raise RuntimeError(
                    "replay divergence: expected a "
                    f"{point.kind} choice, got {kind} — the runtime is not deterministic"
                )
            return point
        # Alternatives/sigs may arrive as lazy ranges or memoized tuples —
        # materialized as lists only here, on point *creation* (replayed
        # visits never touch them, so the hot path allocates nothing).
        point = _ChoicePoint(
            kind=kind, alternatives=list(alternatives), sleep=sleep, sigs=list(sigs)
        )
        if kind == "toss":
            # Counted at creation so replays do not double-count.
            state.report.toss_points += 1
        if self._restore and len(point.alternatives) > 1:
            # Checkpoint *before* the point's own choice/step is appended,
            # so re-entry truncates back to exactly this prefix.  Points
            # with a single alternative are exhausted at creation — they
            # are popped during backtracking without ever being resumed,
            # so checkpointing them would be pure waste.
            checkpoint = state.run.checkpoint()
            point.resume = _ResumeInfo(
                checkpoint=checkpoint,
                depth=depth,
                sleep=resume_sleep,
                choices_len=len(state.choices),
                steps_len=len(state.steps),
                noted_broken=frozenset(state.noted_broken),
            )
            self._live_checkpoint_bytes += checkpoint.approx_bytes
            if self._live_checkpoint_bytes > self._peak_checkpoint_bytes:
                self._peak_checkpoint_bytes = self._live_checkpoint_bytes
        state.stack.append(point)
        state.ptr += 1
        return point

    def _toss_choice(self, name: str, value: int) -> TossChoice:
        key = (name, value)
        choice = self._toss_cache.get(key)
        if choice is None:
            choice = self._toss_cache[key] = TossChoice(name, value)
        return choice

    def _leaf(self, state: PathState) -> None:
        if self._on_leaf is not None and state.fresh:
            self._on_leaf(state.run, state.trace())
        raise _Leaf()


def _analyze_state(
    run: Run, persistent: PersistentSetComputer | None, memo: dict[tuple, tuple]
) -> tuple:
    """The pure per-state analysis: ``(deadlock, all terminated,
    enabled count, persistent candidate names, their signatures)``.

    ONE pass over the processes computes the deadlock/termination
    flags, the enabled set and the control projection — per process
    the interned id of its pending transition signature (or a
    status marker), plus the enabled bitmask.  The persistent
    candidates are a pure function of that projection (the closure
    reads only transition signatures, enabledness and the static
    footprints), so they are memoized in ``memo`` on it.
    """
    enabled = []
    control_ids = []
    enabled_mask = 0
    any_visible = False
    all_parked = True  # AT_VISIBLE or blocked forever
    all_terminated = True
    for index, process in enumerate(run.processes):
        status = process.status
        if status is ProcessStatus.AT_VISIBLE:
            any_visible = True
            all_terminated = False
            request = process.pending
            entry = process._sig_entry
            if entry is None or entry[0] is not request:
                entry = intern_signature(process, request)
            control_ids.append(entry[2])
            if request.obj is None or request.obj.enabled(request.op):
                enabled.append(process)
                enabled_mask |= 1 << index
        elif status is ProcessStatus.TERMINATED:
            control_ids.append(-1)
        else:
            all_terminated = False
            if status is ProcessStatus.CRASHED:
                control_ids.append(-2)
            elif status is ProcessStatus.DIVERGED:
                control_ids.append(-3)
            else:
                control_ids.append(-4)
                all_parked = False
    enabled_count = len(enabled)
    deadlock = all_parked and any_visible and not enabled_count
    if persistent is not None and enabled_count > 1:
        pkey = (tuple(control_ids), enabled_mask)
        entry = memo.get(pkey)
        if entry is None:
            candidates = persistent.persistent_choices(run, enabled)
            entry = memo[pkey] = (
                tuple(p.name for p in candidates),
                tuple(signature_of(p) for p in candidates),
            )
        return deadlock, all_terminated, enabled_count, entry[0], entry[1]
    names = tuple(p.name for p in enabled)
    sigs = tuple(signature_of(p) for p in enabled)
    return deadlock, all_terminated, enabled_count, names, sigs


def _blocked_info(run: Run) -> tuple[tuple[str, ...], tuple[tuple[str, str, str | None], ...]]:
    """Names and pending-operation details of the blocked processes."""
    blocked = []
    waiting = []
    for process in run.processes:
        if process.status is ProcessStatus.AT_VISIBLE:
            blocked.append(process.name)
            request = process.visible_request
            obj = request.obj.name if request.obj is not None else None
            waiting.append((process.name, request.op, obj))
    return tuple(blocked), tuple(waiting)


#: The report list each event type is recorded in.
_EVENT_LISTS = {
    DeadlockEvent: "deadlocks",
    AssertionViolationEvent: "violations",
    CrashEvent: "crashes",
    DivergenceEvent: "divergences",
}


@dataclass
class PathState:
    """Mutable state of one (re-)execution of a path, and the one place
    its events are recorded (shared by the explorer and the random
    walks)."""

    run: Run
    stack: list[_ChoicePoint]
    replay_len: int
    report: ExplorationReport
    max_events: int
    observer: SearchObserver | None = None
    #: Replay length for *edge-anchored* recording (transitions executed,
    #: violations, crashes).  Normally equal to ``replay_len`` — the last
    #: replayed choice point was freshly bumped, so the edge out of it is
    #: new ground.  On the first execution over a frozen parallel prefix
    #: nothing is bumped: every prefix edge (including the one *into* the
    #: frontier state) was already executed and recorded by the
    #: coordinator, so edge recording starts one choice later.
    edge_replay_len: int = 0
    ptr: int = 0
    choices: list[Choice] = field(default_factory=list)
    steps: list[TraceStep] = field(default_factory=list)
    noted_broken: set[str] = field(default_factory=set)

    @property
    def fresh(self) -> bool:
        """Whether execution has passed the replayed prefix (state-anchored
        events and statistics are only recorded on fresh ground, so
        replays do not double-count)."""
        return self.ptr >= self.replay_len

    @property
    def fresh_edge(self) -> bool:
        """Like :attr:`fresh`, for recording anchored to the transition
        just executed rather than to the current global state."""
        return self.ptr >= self.edge_replay_len

    def trace(self) -> Trace:
        return Trace(tuple(self.choices), tuple(self.steps))

    def record(self, event_type: type, depth: int, *details: Any) -> None:
        """Record one event of ``event_type`` (built from ``details``)
        on the report and tell the observer.  The first ``max_events``
        of each kind carry the path's trace; past the cap counting
        continues with trace-less placeholders, except for deadlocks,
        which stop at the cap (as in the parallel merge)."""
        events = getattr(self.report, _EVENT_LISTS[event_type])
        if len(events) < self.max_events:
            event = event_type(self.trace(), *details)
        elif event_type is DeadlockEvent:
            return
        else:
            event = without_trace(event_type(NO_TRACE, *details))
        events.append(event)
        if self.observer is not None:
            self.observer.on_event(event, depth)

    def note_broken(self, process: Any, depth: int) -> None:
        """Record ``process`` if it just crashed or diverged (on a fresh
        edge, once per path).

        Only the process that was last resumed can have changed status,
        so the per-transition path checks that single process instead of
        rescanning the whole system.
        """
        status = process.status
        if status is not ProcessStatus.CRASHED and status is not ProcessStatus.DIVERGED:
            return
        if process.name in self.noted_broken:
            return
        self.noted_broken.add(process.name)
        if not self.fresh_edge:
            return
        if status is ProcessStatus.CRASHED:
            self.record(CrashEvent, depth, process.name, str(process.crash))
        else:
            self.record(DivergenceEvent, depth, process.name)


class ReplayMismatch(RuntimeError):
    """A recorded choice could not be applied during :func:`replay`.

    On an unchanged system replay is exact (the runtime is
    deterministic), so a mismatch means the trace and the system have
    diverged — the program was edited, the system description changed,
    or the choice sequence was mutated (e.g. by a shrinking candidate).
    The exception records *where* and *why* for diagnosis
    (:mod:`repro.counterex.replay` turns it into a human-readable
    verdict).
    """

    def __init__(self, index: int, choice: Choice, reason: str):
        super().__init__(f"replay mismatch at choice {index} ({choice.describe()}): {reason}")
        self.index = index
        self.choice = choice
        self.reason = reason


def apply_choice(run: Run, index: int, choice: Choice) -> tuple[Any, Any]:
    """Apply one recorded ``choice`` to a live ``run``.

    Returns ``(visible_request_or_None, assertion_outcome_or_None)``.
    All validation happens *before* any state is mutated, so a
    :class:`ReplayMismatch` leaves the run exactly as it was — the
    property the incremental (checkpoint-reusing) replayer relies on to
    keep its live run valid across rejected shrink candidates.
    """
    request = None
    outcome = None
    if isinstance(choice, TossChoice):
        process = run.toss_pending()
        if process is None:
            raise ReplayMismatch(index, choice, "no process is awaiting a VS_toss")
        if process.name != choice.process:
            raise ReplayMismatch(
                index, choice, f"the pending VS_toss belongs to {process.name!r}"
            )
        bound = process.toss_request.bound
        if not (0 <= choice.value <= bound):
            raise ReplayMismatch(
                index, choice, f"toss value {choice.value} outside 0..{bound}"
            )
        run.answer_toss(process, choice.value)
    else:
        if run.toss_pending() is not None:
            raise ReplayMismatch(
                index,
                choice,
                f"process {run.toss_pending().name!r} has an unanswered VS_toss",
            )
        process = next(
            (p for p in run.processes if p.name == choice.process), None
        )
        if process is None:
            raise ReplayMismatch(index, choice, "no such process")
        if process.status is not ProcessStatus.AT_VISIBLE:
            raise ReplayMismatch(
                index,
                choice,
                f"process is {process.status.value}, not at a visible operation",
            )
        if not process.enabled():
            request = process.visible_request
            op = request.op if request is not None else "?"
            raise ReplayMismatch(
                index, choice, f"visible operation {op!r} is not enabled"
            )
        request = process.visible_request
        outcome = run.execute_visible(process)
    return request, outcome


def replay(
    system: System,
    trace: Trace | Iterable[Choice],
    on_step: Callable[[int, Choice, Any, Any], None] | None = None,
    engine: str = "walk",
) -> Run:
    """Re-execute a recorded choice sequence on a fresh run of ``system``.

    ``trace`` is a :class:`Trace` or a bare iterable of choices.  Returns
    the resulting :class:`Run` (for inspecting stores, sink outputs,
    final statuses, ...).  ``on_step`` is invoked after every applied
    choice with ``(index, choice, visible_request_or_None,
    assertion_outcome_or_None)`` — the hook the counterexample engine
    uses to rebuild trace steps and observe violations.  ``engine``
    selects the execution engine (both replay identically; see
    :mod:`repro.runtime.engine`).

    Raises :class:`ReplayMismatch` when a choice does not apply — the
    named process does not exist, is not at an enabled visible
    operation, a ``VS_toss`` answer is missing or out of bounds — with
    the index and reason recorded for diagnosis.
    """
    choices = trace.choices if isinstance(trace, Trace) else tuple(trace)
    run = system.start(engine=engine)
    run.start_processes()
    for index, choice in enumerate(choices):
        request, outcome = apply_choice(run, index, choice)
        if on_step is not None:
            on_step(index, choice, request, outcome)
    return run


def collect_output_traces(
    system: System,
    sink: str,
    options: SearchOptions | None = None,
    **overrides: Any,
) -> set[tuple]:
    """All visible output traces of ``system`` on environment sink ``sink``.

    Explores every path of the search ``options`` describe, with
    partial-order reduction off so every interleaving's outputs are
    observed, and collects the sink's output sequence at each leaf.
    Used by the Figure 2/3 behaviour-equivalence experiments.
    """
    traces: set[tuple] = set()

    def on_leaf(run: Run, _trace: Trace) -> None:
        traces.add(tuple(run.env_outputs(sink)))

    options = search_options(options, overrides)
    Explorer(system, options, por=False, on_leaf=on_leaf).run()
    return traces
