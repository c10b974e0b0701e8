"""Random-walk exploration: VeriSoft's lightweight testing mode.

For state spaces far beyond exhaustive reach (the paper's real target
was an application of hundreds of thousands of lines), a cheap
complement to bounded-exhaustive search is running many independent
random walks: at every global state pick a random enabled process, at
every ``VS_toss`` a random value.  No coverage guarantee, but events
found are real and come with the same replayable traces.

Deterministic per seed (the runtime is deterministic and the only
randomness is the seeded PRNG), so a failing walk can be re-run exactly.
"""

from __future__ import annotations

import random
import time
from typing import Any

from ..obs.observer import Observation
from ..runtime.system import System
from .explorer import PathState, TraceRecords, _blocked_info, _ChoicePoint
from .por import signature_of
from .results import AssertionViolationEvent, DeadlockEvent, ExplorationReport
from .search import SearchOptions, search_options
from .stats import SearchStats


def random_walks(
    system: System, options: SearchOptions | None = None, **overrides: Any
) -> ExplorationReport:
    """Run ``options.walks`` independent random executions of ``system``.

    Takes the driver convention ``(system, options, **overrides)``; the
    fields used are ``walks``, ``seed``, ``max_depth`` (steps per walk),
    ``engine``, ``max_events``, ``stop_on_first``, ``time_budget``
    (checked between walks; flags the report ``incomplete``) and the
    observers (``profile``, ``coverage``, ``tracer``, ``progress``).

    Returns an :class:`ExplorationReport`; ``paths_explored`` counts the
    walks.  Unlike the exhaustive explorer, revisited states are neither
    detected nor avoided.  Every walk transition is fresh ground, so
    observers see every step with ``created`` and ``fresh_edge`` set,
    and events are recorded exactly like the explorer's (past
    ``max_events`` counting continues with trace-less placeholders).
    A walk records its path as the explorer does, as a stack of choice
    points each pinned to the choice made, so events carry their traces
    through the same builder.
    """
    options = search_options(options, overrides)
    engine = options.resolve(system).engine
    rng = random.Random(options.seed)
    report = ExplorationReport(options=options)
    stats = report.stats = SearchStats(strategy="random", engine=engine)
    started = time.monotonic()
    cpu_started = time.process_time()
    deadline = None if options.time_budget is None else started + options.time_budget

    def live_stats() -> SearchStats:
        stats.states_visited = report.states_visited
        stats.transitions_executed = report.transitions_executed
        stats.toss_points = report.toss_points
        stats.paths_explored = report.paths_explored
        stats.max_depth_reached = report.max_depth_reached
        stats.wall_time = time.monotonic() - started
        stats.cpu_time = time.process_time() - cpu_started
        return stats

    observation = Observation(
        options, system, live_stats=live_stats, span=("walk", "walk")
    )
    observer = observation.observer
    records = TraceRecords()

    for _ in range(options.walks):
        if deadline is not None and time.monotonic() > deadline:
            report.incomplete = True
            report.truncated = True
            break
        run = system.start(engine=engine, trace=options.coverage)
        run.start_processes()
        state = PathState(run, [], 0, report, options.max_events, observer, records)
        if observer is not None:
            observer.on_run_start(run, True)
        depth = 0
        for process in run.processes:
            state.note_broken(process, depth)
        while depth < options.max_depth:
            tossing = run.toss_pending()
            if tossing is not None:
                report.toss_points += 1
                request = tossing.toss_request
                value = rng.randint(0, request.bound)
                alternatives = range(request.bound + 1)
                state.stack.append(_ChoicePoint("toss", alternatives, value, process=tossing.name))
                state.ptr += 1
                run.answer_toss(tossing, value)
                if observer is not None:
                    observer.on_toss(tossing, request, value, depth, True, True)
                state.note_broken(tossing, depth)
                continue

            report.states_visited += 1
            if run.is_deadlock():
                state.record(DeadlockEvent, depth, *_blocked_info(run))
                break
            enabled = run.enabled_processes()
            if not enabled:
                break

            chosen = rng.choice(enabled)
            request = chosen.visible_request
            sigs = (signature_of(chosen),)
            state.stack.append(_ChoicePoint("schedule", (chosen.name,), 0, 0, sigs))
            state.ptr += 1
            outcome = run.execute_visible(chosen)
            if observer is not None:
                observer.on_step(chosen, request, depth, len(enabled), True, True)
            report.transitions_executed += 1
            depth += 1
            if outcome is not None and outcome.violated:
                state.record(
                    AssertionViolationEvent,
                    depth,
                    outcome.process,
                    outcome.proc_name,
                    outcome.node_id,
                )
            state.note_broken(chosen, depth)
        else:
            report.truncated = True

        report.max_depth_reached = max(report.max_depth_reached, depth)
        report.paths_explored += 1
        if observer is not None:
            observer.on_path_end(report)
        if options.stop_on_first and not report.ok:
            break

    live_stats()
    observation.finish(report)
    return report
