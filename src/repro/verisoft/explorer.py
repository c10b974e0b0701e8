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
from typing import Any, Callable, Iterable, Sequence

from ..obs.observer import Observation, SearchObserver, timed
from ..runtime.process import ProcessStatus
from ..runtime.system import Run, System
from .por import (
    PersistentSetComputer,
    TransitionSig,
    dependent_bits,
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

# The statuses as module globals: on CPython 3.11 a ``ProcessStatus.X``
# read goes through the enum metaclass's ``__getattr__`` hook, about ten
# times the cost of a global, and the hot loop tests a status per step.
# (The control ids further down are ``_ID_*``; keep the two apart.)
_AT_VISIBLE, _NEEDS_TOSS, _TERMINATED, _CRASHED, _DIVERGED = (
    ProcessStatus.AT_VISIBLE,
    ProcessStatus.NEEDS_TOSS,
    ProcessStatus.TERMINATED,
    ProcessStatus.CRASHED,
    ProcessStatus.DIVERGED,
)


class _ChoicePoint:
    """One branching decision in the DFS, with its untried alternatives.

    ``kind`` is ``"schedule"`` or ``"toss"``; ``alternatives`` the
    process names or toss values (any sequence); ``sleep`` the sleep
    mask inherited at the point's state; ``sigs`` the signature per
    alternative (schedule points; used for sleep sets and for the
    trace's steps), stored as given.  ``process`` names the process
    that tossed (toss points).  ``resume`` is the restore-mode
    bookkeeping (:class:`_ResumeInfo`): ``None`` in replay mode and for
    single-alternative points, which are exhausted at creation and can
    never become a backtrack target.
    """

    __slots__ = ("kind", "alternatives", "index", "sleep", "sigs", "resume", "process")

    def __init__(
        self,
        kind: str,
        alternatives: Sequence[Any],
        index: int = 0,
        sleep: int = 0,
        sigs: Sequence[TransitionSig | None] = (),
        resume: Any = None,
        process: str | None = None,
    ):
        self.kind = kind
        self.alternatives = alternatives
        self.index = index
        self.sleep = sleep
        self.sigs = sigs
        self.resume = resume
        self.process = process

    @property
    def chosen(self) -> Any:
        return self.alternatives[self.index]

    def exhausted(self) -> bool:
        return self.index + 1 >= len(self.alternatives)


@dataclass(slots=True)
class _ResumeInfo:
    """Everything needed to re-enter the DFS at a choice point without
    re-executing the path prefix: the runtime checkpoint plus the
    explorer-side execution state (depth, carried sleep mask, which
    processes had already been noted as crashed/diverged, and the
    :meth:`ControlProjection.capture` of the state).  Captured by
    :meth:`Explorer._choice` *before* the point's own choice is
    executed.  The path record needs no entry: it is the choice stack
    itself.  Immutable by contract: nothing writes a field after
    construction (the record is not frozen only because frozen
    dataclasses pay ``object.__setattr__`` per field on creation)."""

    checkpoint: Any
    depth: int
    sleep: int
    noted_broken: frozenset[str]
    projection: tuple


class _Leaf(Exception):
    """Internal: the current execution reached a leaf of the DFS tree."""


#: The ``noted_broken`` of almost every :class:`_ResumeInfo`, shared.
_NONE_BROKEN: frozenset[str] = frozenset()


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

    * ``initial_stack`` — a frozen choice prefix (a lease of
      :mod:`repro.verisoft.parallel`); the search replays it and
      explores only the subtree below — backtracking never climbs above
      the prefix.  The last pinned decision was *never executed* (an
      untried sibling harvested from a suspended DFS stack), so its
      out-edge and everything below it is counted, exactly as the
      sequential search would after bumping that point; the states and
      transitions before it are not re-counted.
    * ``yield_check`` — cooperative suspension, polled between paths.
      When it returns true *and* untried alternatives remain above the
      frozen prefix, the DFS stops cleanly: :attr:`suspended` is set
      and :attr:`final_stack`/:attr:`final_base` expose the live choice
      stack for :func:`repro.verisoft.parallel.harvest_residual`.  The
      report covers exactly the paths completed so far, so a partial
      report plus the residual prefixes partitions the subtree
      losslessly.
    * ``fingerprint_set`` — with ``count_states``, collect the state
      keys into this caller-owned set (so a coordinator can union worker
      sets).

    The hot loop keys a global state at most once, and only when
    seen-state dedup or the state store wants it: both take the same
    part tuple (:meth:`Run.state_parts`), incremental for pointer-free
    programs.  It keeps the state's
    :class:`ControlProjection` up to date per step and memoizes the
    candidates (persistent with ``por`` on) on it.  With ``profile``
    its named calls — the engine steps, the state keys, the store
    visit, the projection's build, per-step update and candidates, and
    the coverage observer — are timed into the profile's ``engine``,
    ``fingerprint``, ``cache``, ``por`` and ``coverage`` phases.

    The path record lives on the choice stack: every executed point of
    ``stack[:ptr]`` is one choice of the path, and a schedule point's
    chosen signature names its step.  Nothing is appended per step;
    :meth:`PathState.trace` builds the records when an event or
    ``on_leaf`` asks for them.  A fresh state with a single awake
    candidate under an empty sleep mask pushes a point shared by every
    such state with that candidate's signature: it is exhausted at
    creation, never bumped and never checkpointed, so one object
    serves them all.
    """

    def __init__(
        self,
        system: System,
        options: SearchOptions | None = None,
        *,
        initial_stack: list[_ChoicePoint] | None = None,
        yield_check: Callable[[], bool] | None = None,
        fingerprint_set: set[Any] | None = None,
        **overrides: Any,
    ):
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
        self._yield_check = yield_check
        self._fingerprint_set = fingerprint_set
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
        #: The live run's control projection; ``None`` from the start of
        #: a fresh run until :meth:`_projection_of` first needs it.
        self._projection: ControlProjection | None = None
        #: Candidate memo keyed by the *control projection* of a state
        #: — ``(tuple of per-process control ids, enabled bitmask)`` —
        #: holding ``(candidate names, signatures)``.  The persistent
        #: closure reads only transition signatures, enabledness and
        #: static footprints, so states sharing a projection share the
        #: result; the projection both hashes faster than a full state
        #: key and hits far more often.
        self._state_memo: dict[tuple, tuple] = {}
        #: The shared single-alternative schedule point per interned
        #: signature id (see the class docstring).
        self._single_points: dict[int, _ChoicePoint] = {}
        #: Interned trace records, shared by every trace of the search.
        self._records = TraceRecords()

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
        self._state_parts = bind(Run.state_parts, "fingerprint")
        self._project = bind(ControlProjection, "por")
        self._moved = bind(ControlProjection.moved, "por")
        self._candidates = bind(ControlProjection.candidates, "por")
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
        report.options = self._options
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
        )
        self._observer = observer = observation.observer
        self._bind_calls(observation.phases)
        if self._options.time_budget is not None:
            self._deadline = started + self._options.time_budget
        executions = 0
        resume_point: _ChoicePoint | None = None

        while True:
            try:
                self._execute(stack, report, stats, seen_states, resume_point)
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
            # never climbing into a frozen prefix; the search ends when
            # none is left.
            while len(stack) > base:
                top = stack[-1]
                if top.index + 1 < len(top.alternatives):
                    break
                stack.pop()
                if top.resume is not None:
                    self._live_checkpoint_bytes -= top.resume.checkpoint.approx_bytes
            else:
                break
            top.index += 1
            if self._restore:
                # Every bumped point had > 1 alternative, so it carries a
                # checkpoint: rewind the live run instead of re-executing.
                resume_point = top

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
        resume_point: _ChoicePoint | None,
    ) -> None:
        """One (re-)execution, from a fresh run or a restored checkpoint
        down to a leaf (which raises :class:`_Leaf`)."""
        if resume_point is None:
            state = self._start_run(stack, report)
            depth, sleep, may_toss, point = 0, 0, True, None
        else:
            state, depth, sleep, may_toss, point = self._reenter(resume_point)
        run = state.run
        process_map = run.process_map
        stack = state.stack
        replay_len = state.replay_len
        observer = self._observer
        step = self._step
        moved = self._moved
        stop_on_first = self._stop_on_first
        sleep_sets = self._sleep_sets
        single_points = self._single_points
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
                if state.ptr < replay_len:
                    # A replayed state (inside the stacked prefix) was
                    # fully processed when first reached and — having a
                    # choice point below it — is not a leaf: skip
                    # straight to the recorded decision.
                    point = self._choice(state, "schedule", (), 0, (), depth, sleep)
                    created = False
                    fanout = len(point.alternatives)
                else:
                    names, sigs = self._visit(state, stats, seen_states, depth, sleep)
                    created = True
                    fanout = len(names)
                    if fanout > 1:
                        point = self._choice(state, "schedule", names, sleep, sigs, depth, sleep)
                    else:
                        # One candidate: exhausted at creation, so never
                        # bumped and never checkpointed.  With nothing
                        # asleep, the point shared by every state whose
                        # candidate has this signature serves.  (Fresh
                        # ground: the stack ends at ``ptr``.)
                        if sleep:
                            point = _ChoicePoint("schedule", names, 0, sleep, sigs)
                        else:
                            point = single_points.get(sigs[0].id)
                            if point is None:
                                point = single_points[sigs[0].id] = _ChoicePoint(
                                    "schedule", names, 0, 0, sigs
                                )
                        stack.append(point)
                        state.ptr += 1

            index = point.index
            name = point.alternatives[index]
            chosen = process_map[name]
            # The chosen process is at a visible operation: its pending
            # request is the one the step performs.
            request = chosen.pending
            outcome = step(run, chosen)
            obj = request.obj
            projection = self._projection
            if projection is not None:
                moved(projection, name, obj)
            fresh = state.ptr >= replay_len
            if observer is not None:
                observer.on_step(chosen, request, depth, fanout, created, fresh)
            if fresh:
                report.transitions_executed += 1
            else:
                stats.replayed_transitions += 1
            depth += 1
            if outcome is not None and outcome.violated and fresh:
                state.record(
                    AssertionViolationEvent,
                    depth,
                    outcome.process,
                    outcome.proc_name,
                    outcome.node_id,
                )
            status = chosen.status
            if status is _AT_VISIBLE:
                may_toss = False
            else:
                may_toss = status is _NEEDS_TOSS
                if not may_toss:
                    state.note_broken(chosen, depth)
            if stop_on_first and not report.ok:
                self._leaf(state)

            # Sleep mask carried into the successor state: the inherited
            # mask and the explored siblings, less what the chosen
            # transition depends on.  The first alternative under an
            # empty inherited mask has nothing to merge and nothing to
            # filter.
            if not sleep_sets or (index == 0 and not point.sleep):
                sleep = 0
            else:
                sleep = point.sleep
                sigs = point.sigs
                for sig in sigs[:index]:
                    sleep |= sig.bit
                sleep &= ~dependent_bits(sigs[index])
            point = None

    def _start_run(self, stack: list[_ChoicePoint], report: ExplorationReport) -> PathState:
        """Start a fresh run that replays ``stack`` from the initial
        state."""
        run = self._system.start(
            journal=self._restore, engine=self._engine, trace=self._options.coverage
        )
        self._start(run)
        self._projection = None
        replay_len = len(stack)
        state = PathState(
            run, stack, replay_len, report, self._max_events, self._observer, self._records
        )
        if self._observer is not None:
            # The startup segments are fresh ground exactly when nothing
            # precedes them: the sequential first path, the root lease.
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
        on reaching the point: ``ptr`` past every stacked point, the
        bumped one included (so the path record ends with its new
        choice, and ``fresh`` holds on all ground below, as it would
        after consuming the bumped point during a replay).  Returns
        ``(state, depth, sleep, may_toss, pending schedule point)``.
        """
        info = point.resume
        state = self._live
        run = state.run
        moved = run.restore(info.checkpoint)
        self._projection.reinstall(info.projection)
        state.noted_broken = set(info.noted_broken)
        state.ptr = len(state.stack)
        if self._observer is not None:
            self._observer.on_restore(run, moved)
        if point.kind == "schedule":
            return state, info.depth, info.sleep, False, point
        # Answer the bumped toss and fall into the normal loop —
        # mirroring a replay's pass over the bumped point (not a created
        # point: toss points count at creation only).
        tossing = run.toss_pending()
        request = tossing.pending
        value = point.chosen
        self._answer(run, tossing, value)
        self._moved(self._projection, tossing.name, None)
        if self._observer is not None:
            self._observer.on_toss(tossing, request, value, info.depth, False, state.fresh)
        state.note_broken(tossing, info.depth)
        return state, info.depth, info.sleep, True, None

    def _answer_tosses(self, state: PathState, depth: int, sleep: int) -> None:
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
            request = tossing.pending
            before = len(state.stack)
            point = self._choice(state, "toss", range(request.bound + 1), 0, (), depth, sleep)
            # The path record names the tossing process: set on created
            # points and on a thawed prefix's points alike, before any
            # event below can read it.
            point.process = tossing.name
            value = point.chosen
            self._answer(run, tossing, value)
            if self._projection is not None:
                self._moved(self._projection, tossing.name, None)
            if self._observer is not None:
                self._observer.on_toss(
                    tossing, request, value, depth, len(state.stack) > before, state.fresh
                )
            state.note_broken(tossing, depth)

    # -- per-state analysis ---------------------------------------------------------

    def _visit(
        self,
        state: PathState,
        stats: SearchStats,
        seen_states: set[Any] | None,
        depth: int,
        sleep: int,
    ) -> tuple:
        """A freshly reached global state: count it, key it for dedup
        and the store, analyze it and apply the leaf checks (raising
        :class:`_Leaf`); returns the schedule alternatives and their
        signatures that the sleep mask leaves awake."""
        report = state.report
        run = state.run
        report.states_visited += 1
        if depth > report.max_depth_reached:
            report.max_depth_reached = depth
        if seen_states is not None or self._store_visit is not None:
            key = self._state_parts(run)
            if seen_states is not None:
                seen_states.add(key)
        if self._deadline is not None and time.monotonic() > self._deadline:
            report.incomplete = True
            raise _Leaf()
        # State-space caching: prune the subtree below a state that the
        # store has already expanded.  The key's parts share their bytes
        # with every other stored state.
        if self._store_visit is not None and not self._store_visit(key, self._max_depth - depth):
            self._leaf(state)

        # The deadlock, termination and enabled-count facts are reads of
        # the projection; the candidates are asked for only below the
        # depth bound.
        projection = self._projection
        if projection is None:
            projection = self._projection_of(run)
        enabled_mask = projection.mask
        if not enabled_mask:
            if projection.deadlocked():
                state.record(DeadlockEvent, depth, *_blocked_info(run))
            elif not projection.all_terminated() and depth >= self._max_depth:
                report.truncated = True
            # A deadlock, every process terminated, or every live
            # process blocked while others crashed, diverged or
            # terminated: nothing can move.
            self._leaf(state)
        if depth >= self._max_depth:
            report.truncated = True
            self._leaf(state)
        names, sigs = self._candidates(projection, self._persistent, self._state_memo)
        stats.enabled_transitions += enabled_mask.bit_count()
        stats.persistent_transitions += len(names)
        if not sleep:
            # Empty sleep mask (the common case): the memoized tuples are
            # the awake alternatives — no copies.
            return names, sigs
        awake_names = []
        awake_sigs = []
        for name, sig in zip(names, sigs):
            if sleep & sig.bit:
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
        alternatives: Sequence[Any],
        sleep: int,
        sigs: Sequence[TransitionSig | None],
        depth: int,
        resume_sleep: int,
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
        # Alternatives and sigs are stored as given (ranges, memoized
        # tuples or the awake lists): nothing writes them after creation.
        point = _ChoicePoint(kind, alternatives, 0, sleep, sigs)
        if kind == "toss":
            # Counted at creation so replays do not double-count.
            state.report.toss_points += 1
        if self._restore and len(point.alternatives) > 1:
            # Checkpoint *before* the point's own choice executes, so
            # re-entry resumes exactly at this state.  Points with a
            # single alternative are exhausted at creation — they are
            # popped during backtracking without ever being resumed, so
            # checkpointing them would be pure waste.
            checkpoint = state.run.checkpoint()
            point.resume = _ResumeInfo(
                checkpoint=checkpoint,
                depth=depth,
                sleep=resume_sleep,
                noted_broken=(
                    frozenset(state.noted_broken) if state.noted_broken else _NONE_BROKEN
                ),
                projection=self._projection_of(state.run).capture(),
            )
            self._live_checkpoint_bytes += checkpoint.approx_bytes
            if self._live_checkpoint_bytes > self._peak_checkpoint_bytes:
                self._peak_checkpoint_bytes = self._live_checkpoint_bytes
        state.stack.append(point)
        state.ptr += 1
        return point

    def _projection_of(self, run: Run) -> ControlProjection:
        """The live control projection, built from ``run`` when first
        needed after a fresh run starts.  A replayed prefix never needs
        it (its states were analysed when first reached), so replay
        pays for no per-step update there; once built, every step and
        toss answer updates it."""
        if self._projection is None:
            self._projection = self._project(run)
        return self._projection

    def _leaf(self, state: PathState) -> None:
        if self._on_leaf is not None and state.fresh:
            self._on_leaf(state.run, state.trace())
        raise _Leaf()


#: Control ids of the processes with no pending visible operation (an
#: ``AT_VISIBLE`` process's id is its interned signature id, >= 0).
_ID_TERMINATED = -1
_ID_CRASHED = -2
_ID_DIVERGED = -3
_ID_UNPARKED = -4  # needs a toss, or not started


class ControlProjection:
    """The control projection of a live run, kept up to date per step.

    Per process a control id: the interned id of its pending transition
    signature, or a status marker (-1 terminated, -2 crashed, -3
    diverged, -4 needs a toss).  Beside them the enabled bitmask.  The
    persistent candidates are a pure function of ``(ids, mask)`` (the
    closure reads only transition signatures, enabledness and the
    static footprints), so :meth:`candidates` memoizes them on it.  The
    deadlock and all-terminated facts are read off the ids, and only
    at states where no process is enabled.

    One transition moves one process and performs on one object, and an
    object's enabledness depends only on its own operation history.
    So :meth:`moved` re-derives the moved process's entry and re-checks
    the enabled bit of the processes pending on that object only.  A
    per-object mask of every process ever seen pending on it finds
    them; the mask only grows, so a restore need not rewind it.  The
    constructor derives every process through the same :meth:`moved`.
    """

    __slots__ = ("_run", "_processes", "_index", "_waiters", "ids", "mask")

    def __init__(self, run: Run):
        self._run = run
        self._processes = run.processes
        self._index = {process.name: i for i, process in enumerate(run.processes)}
        #: object -> bitmask of the processes ever seen pending on it.
        self._waiters: dict[Any, int] = {}
        #: Control id per process, updated in place.
        self.ids = [_ID_UNPARKED] * len(run.processes)
        self.mask = 0
        for process in run.processes:
            self.moved(process.name, None)

    def moved(self, name: str, obj: Any) -> None:
        """Process ``name`` stepped, performing on ``obj`` (``None`` for
        an assertion, a toss answer or the start of the run): re-derive
        its entry, then re-check the processes waiting on ``obj``."""
        index = self._index[name]
        process = self._processes[index]
        bit = 1 << index
        mask = self.mask
        status = process.status
        if status is _AT_VISIBLE:
            request = process.pending
            sig = request.sig
            if sig is None:
                sig = intern_signature(process, request)
            self.ids[index] = sig.id
            target = request.obj
            if target is None:
                mask |= bit
            else:
                if target.enabled(request.op):
                    mask |= bit
                else:
                    mask &= ~bit
                waiters = self._waiters.get(target, 0)
                if not waiters & bit:
                    self._waiters[target] = waiters | bit
        else:
            mask &= ~bit
            if status is _TERMINATED:
                self.ids[index] = _ID_TERMINATED
            elif status is _CRASHED:
                self.ids[index] = _ID_CRASHED
            elif status is _DIVERGED:
                self.ids[index] = _ID_DIVERGED
            else:
                self.ids[index] = _ID_UNPARKED
        if obj is not None:
            processes = self._processes
            waiting = self._waiters.get(obj, 0) & ~bit
            while waiting:
                low = waiting & -waiting
                waiting ^= low
                other = processes[low.bit_length() - 1]
                request = other.pending
                if other.status is _AT_VISIBLE and request.obj is obj:
                    if obj.enabled(request.op):
                        mask |= low
                    else:
                        mask &= ~low
        self.mask = mask

    def deadlocked(self) -> bool:
        """Some process waits at a visible operation, none is enabled
        and none is mid-transition."""
        ids = self.ids
        return not self.mask and max(ids, default=-1) >= 0 and _ID_UNPARKED not in ids

    def all_terminated(self) -> bool:
        """Every process has terminated normally."""
        return self.ids.count(_ID_TERMINATED) == len(self.ids)

    def capture(self) -> tuple:
        """The projection's state, for :meth:`reinstall` after a restore."""
        return (tuple(self.ids), self.mask)

    def reinstall(self, captured: tuple) -> None:
        """Return to a :meth:`capture` of this projection."""
        ids, self.mask = captured
        self.ids[:] = ids

    def candidates(
        self, persistent: PersistentSetComputer | None, memo: dict[tuple, tuple]
    ) -> tuple:
        """``(names, signatures)`` of the transitions to expand: the
        persistent subset of the enabled processes with ``persistent``,
        else all of them, in process order; memoized in ``memo``."""
        key = (tuple(self.ids), self.mask)
        entry = memo.get(key)
        if entry is None:
            processes = self._processes
            enabled = []
            waiting = self.mask
            while waiting:
                low = waiting & -waiting
                waiting ^= low
                enabled.append(processes[low.bit_length() - 1])
            if persistent is not None and len(enabled) > 1:
                enabled = persistent.persistent_choices(self._run, enabled)
            entry = memo[key] = (
                tuple(p.name for p in enabled),
                tuple(signature_of(p) for p in enabled),
            )
        return entry


def _blocked_info(run: Run) -> tuple[tuple[str, ...], tuple[tuple[str, str, str | None], ...]]:
    """Names and pending-operation details of the blocked processes."""
    blocked = []
    waiting = []
    for process in run.processes:
        if process.status is _AT_VISIBLE:
            blocked.append(process.name)
            request = process.pending
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


class TraceRecords:
    """Interned trace records, and the builder of a path's trace.

    ``ScheduleChoice``, ``TossChoice`` and ``TraceStep`` are frozen value
    objects drawn from a tiny per-system domain, so each distinct record
    is allocated once and shared by every trace built from the same
    table (one per search).
    """

    __slots__ = ("_schedules", "_tosses", "_steps")

    def __init__(self) -> None:
        self._schedules: dict[str, ScheduleChoice] = {}
        self._tosses: dict[tuple[str, int], TossChoice] = {}
        self._steps: dict[tuple, TraceStep] = {}

    def trace(self, points: Iterable[_ChoicePoint]) -> Trace:
        """The trace of a path's executed choice ``points``: one choice
        per point, and per schedule point the step its chosen signature
        names."""
        choices: list[Choice] = []
        steps: list[TraceStep] = []
        for point in points:
            value = point.alternatives[point.index]
            if point.kind == "toss":
                key = (point.process, value)
                choice = self._tosses.get(key)
                if choice is None:
                    choice = self._tosses[key] = TossChoice(*key)
            else:
                choice = self._schedules.get(value)
                if choice is None:
                    choice = self._schedules[value] = ScheduleChoice(value)
                sig = point.sigs[point.index]
                key = (sig.process, sig.op, sig.obj)
                trace_step = self._steps.get(key)
                if trace_step is None:
                    trace_step = self._steps[key] = TraceStep(*key)
                steps.append(trace_step)
            choices.append(choice)
        return Trace(tuple(choices), tuple(steps))


@dataclass
class PathState:
    """Mutable state of one (re-)execution of a path, and the one place
    its events are recorded (shared by the explorer and the random
    walks).  ``stack[:ptr]`` are the path's executed choice points: its
    record."""

    run: Run
    stack: list[_ChoicePoint]
    replay_len: int
    report: ExplorationReport
    max_events: int
    observer: SearchObserver | None = None
    records: TraceRecords = field(default_factory=TraceRecords)
    ptr: int = 0
    noted_broken: set[str] = field(default_factory=set)

    @property
    def fresh(self) -> bool:
        """Whether execution has passed the replayed prefix (events and
        statistics are only recorded on fresh ground, so replays do not
        double-count)."""
        return self.ptr >= self.replay_len

    def trace(self) -> Trace:
        """The path's trace so far, built from ``stack[:ptr]``."""
        return self.records.trace(self.stack[: self.ptr])

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
        if status is not _CRASHED and status is not _DIVERGED:
            return
        if process.name in self.noted_broken:
            return
        self.noted_broken.add(process.name)
        if not self.fresh:
            return
        if status is _CRASHED:
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
    :class:`ReplayMismatch` leaves the run exactly as it was.
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
        if process.status is not _AT_VISIBLE:
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
    explorer = _OutputCollector(system, search_options(options, overrides), sink)
    explorer.run()
    return explorer.outputs


class _OutputCollector(Explorer):
    """An explorer that collects the sink's output sequence at every
    fresh leaf, and builds no trace for it."""

    def __init__(self, system: System, options: SearchOptions, sink: str):
        super().__init__(system, options, por=False, on_leaf=None)
        self.sink = sink
        self.outputs: set[tuple] = set()

    def _leaf(self, state: PathState) -> None:
        if state.fresh:
            self.outputs.add(tuple(state.run.env_outputs(self.sink)))
        raise _Leaf()
