"""Every trace the search hands out against a replay of it.

The explorer keeps a path's record on its choice stack, not in lists it
appends to per step: a trace is built from the executed choice points
only when an event or ``on_leaf`` asks for one.  A toss point names the
process that tossed (for a point thawed from a lease's prefix, once the
replay reaches it), and a schedule point's chosen signature names its
step.  So here, for every event and every ``on_leaf`` trace:

* ``replay`` applies every choice of the trace;
* the steps rebuilt from ``replay``'s ``on_step`` equal the trace's
  steps;
* the replay ends at the same event: the same deadlock, the violated
  assertion as the last choice's outcome, the process crashed or
  diverged by the last choice (and not before it); an ``on_leaf`` trace
  ends in the leaf's state.

The searches cover both engines and both backtracking modes, the
figures, generated systems with tosses, a system whose processes crash
and diverge, leases resumed from a suspended parallel search (their
frozen prefixes hold toss points) and random walks.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import SearchOptions, System, SystemConfig, run_search
from repro.runtime.process import ProcessStatus
from repro.service.frontier import SearchCheckpoint
from repro.verisoft.explorer import _blocked_info, replay
from repro.verisoft.parallel import parallel_search
from repro.verisoft.random_walk import random_walks
from repro.verisoft.results import (
    AssertionViolationEvent,
    CrashEvent,
    DeadlockEvent,
    TossChoice,
    TraceStep,
)
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system
from tests.verisoft.test_fuzz_differential import random_system
from tests.verisoft.test_incremental_analysis import fiveess_system

MODES = [
    pytest.param("restore", "compiled", id="restore-compiled"),
    pytest.param("restore", "walk", id="restore-walk"),
    pytest.param("replay", "compiled", id="replay-compiled"),
    pytest.param("replay", "walk", id="replay-walk"),
]

# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def replayed(system, trace):
    """Replay ``trace`` on the walking engine: the final run, the steps
    rebuilt from ``on_step`` and the last choice's assertion outcome."""
    steps = []
    outcomes = [None]

    def on_step(index, choice, request, outcome):
        if request is not None:
            obj = request.obj.name if request.obj is not None else None
            steps.append(TraceStep(choice.process, request.op, obj))
        outcomes.append(outcome)

    run = replay(system, trace, on_step=on_step)
    return run, tuple(steps), outcomes[-1]


def broken_before_last(system, trace, process, status):
    """Whether ``process`` already had ``status`` before the trace's
    last choice."""
    if not trace.choices:
        return False
    run = replay(system, trace.choices[:-1])
    return run.process_map[process].status is status


def check_event(system, event):
    """The event's trace replays to the same event (the searches here
    record far fewer events than ``max_events``, so each has its
    trace)."""
    run, steps, outcome = replayed(system, event.trace)
    assert steps == event.trace.steps
    if isinstance(event, DeadlockEvent):
        assert run.is_deadlock()
        assert _blocked_info(run) == (event.blocked, event.waiting)
    elif isinstance(event, AssertionViolationEvent):
        assert outcome is not None and outcome.violated
        assert (outcome.process, outcome.proc_name, outcome.node_id) == (
            event.process,
            event.proc_name,
            event.node_id,
        )
    else:
        status = ProcessStatus.CRASHED if isinstance(event, CrashEvent) else ProcessStatus.DIVERGED
        process = run.process_map[event.process]
        assert process.status is status
        if isinstance(event, CrashEvent):
            assert str(process.crash) == event.message
        assert not broken_before_last(system, event.trace, event.process, status)


def check_report(system, report):
    """Every event of ``report`` replays to itself; returns the count."""
    events = list(report.all_events())
    for event in events:
        check_event(system, event)
    return len(events)


def checked_search(system, **options):
    """A DFS whose events and ``on_leaf`` traces are all checked."""
    leaves = []

    def on_leaf(run, trace):
        leaves.append((run.state_fingerprint(), trace))

    report = run_search(system, SearchOptions(max_events=50_000, on_leaf=on_leaf, **options))
    for state, trace in leaves:
        run, steps, _ = replayed(system, trace)
        assert steps == trace.steps
        assert run.state_fingerprint() == state
    assert leaves
    return report, check_report(system, report)


# ---------------------------------------------------------------------------
# A system whose processes crash and diverge
# ---------------------------------------------------------------------------

FAULTS_SRC = """
proc divider() {
    var t;
    t = VS_toss(1);
    var x;
    x = 10 / t;
    send(c, x);
}
proc spinner() {
    var t;
    t = VS_toss(1);
    recv(c);
    if (t == 1) {
        while (true) { t = t + 1; }
    }
    send(out, t);
}
"""


def faults_system():
    """``divider`` crashes right after a toss answer (a division by
    zero); ``spinner`` diverges after a receive."""
    system = System(FAULTS_SRC, SystemConfig(divergence_budget=50))
    system.add_channel("c", capacity=1)
    system.add_env_sink("out")
    system.add_process("divider", "divider")
    system.add_process("spinner", "spinner")
    return system


# ---------------------------------------------------------------------------
# The searches
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backtrack, engine", MODES)
def test_bounded_fiveess(backtrack, engine):
    # No event within depth 12: the 876 ``on_leaf`` traces are checked.
    report, _ = checked_search(fiveess_system(), max_depth=12, backtrack=backtrack, engine=engine)
    assert report.toss_points > 0


@pytest.mark.parametrize("source, proc", [(FIG2_SRC, "p"), (FIG3_SRC, "q")], ids=["fig2", "fig3"])
@pytest.mark.parametrize("backtrack, engine", MODES)
def test_figures(source, proc, backtrack, engine):
    report, events = checked_search(
        figure_system(source, proc), max_depth=60, backtrack=backtrack, engine=engine
    )
    assert report.violations and events == len(report.violations)


@pytest.mark.parametrize("backtrack, engine", MODES)
def test_crashes_and_divergences(backtrack, engine):
    report, _ = checked_search(faults_system(), max_depth=20, backtrack=backtrack, engine=engine)
    assert report.crashes and report.divergences


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    backtrack=st.sampled_from(["restore", "replay"]),
    engine=st.sampled_from(["walk", "compiled"]),
)
def test_random_systems(seed, backtrack, engine):
    system = random_system(seed)
    report, _ = checked_search(
        system, max_depth=14, max_transitions=4000, backtrack=backtrack, engine=engine
    )
    assume(report.toss_points > 0)


def has_toss_point(prefix) -> bool:
    return any(point.kind == "toss" for point in prefix.points)


@pytest.mark.parametrize("scheduler", ["static", "steal"])
@pytest.mark.parametrize(
    "make_system", [lambda: figure_system(FIG3_SRC, "q"), faults_system], ids=["fig3", "faults"]
)
def test_resumed_parallel_leases(make_system, scheduler):
    """A ``jobs=1`` parallel search suspended after a few paths, then
    resumed from its checkpoint (through JSON): the resumed leases
    replay frozen prefixes that hold toss points."""
    system = make_system()
    options = SearchOptions(
        strategy="parallel", jobs=1, scheduler=scheduler, max_depth=20, max_events=50_000
    )
    polls = [0]

    def should_suspend():
        polls[0] += 1
        return polls[0] > 3

    first = parallel_search(system, options, should_suspend=should_suspend)
    checkpoint = SearchCheckpoint.from_json(first.checkpoint.to_json())
    assert any(has_toss_point(prefix) for prefix in checkpoint.pending)
    resumed = parallel_search(system, options, initial=checkpoint)
    assert resumed.checkpoint is None
    whole = run_search(system, SearchOptions(max_depth=20, max_events=50_000))
    assert check_report(system, resumed) == len(list(whole.all_events())) > 0
    assert [e.trace for e in resumed.all_events()] == [e.trace for e in whole.all_events()]


def test_random_walks():
    system = fiveess_system()
    report = random_walks(
        system, SearchOptions(strategy="random", walks=60, max_depth=60, seed=5, max_events=500)
    )
    assert report.deadlocks and report.toss_points > 0
    assert check_report(system, report) == len(list(report.all_events()))
    assert any(
        isinstance(choice, TossChoice) for event in report.all_events() for choice in event.trace.choices
    )
