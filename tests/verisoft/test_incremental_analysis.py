"""The explorer's incremental control projection against a rebuild.

The explorer keeps each state's control projection — per-process
control ids, the enabled bitmask and the deadlock/termination counts —
up to date per step, re-checking only the processes waiting on the
object a step performed on.  The differential suites compare explorer
configurations with one another, so a stale enabled bit would pass all
of them.  Here, at every visited state, the live projection must equal
one rebuilt from scratch, and the facts the explorer reads from it
(deadlock, all terminated, enabled count, candidate names and
signatures) must equal a full scan of the run with the set-based
persistent closure below, kept as the reference copy.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchOptions, System
from repro.fiveess import build_app
from repro.runtime.process import ProcessStatus
from repro.verisoft.explorer import ControlProjection, Explorer
from repro.verisoft.parallel import _thaw, harvest_residual
from repro.verisoft.por import ANY_OBJECT, signature_of
from tests.statespace.conftest import FIG2_SRC, figure_system
from tests.verisoft.test_fuzz_differential import random_system

# ---------------------------------------------------------------------------
# The reference: a full scan and the set-based closure
# ---------------------------------------------------------------------------


def reference_persistent(run, enabled, footprints):
    """The persistent subset of ``enabled`` by the set-based closure:
    per seed, close the candidates under "an outside live process's
    footprint meets an object of the candidates' next operations" and
    keep the smallest; the seed first, then the others in the order
    each pass discovers them."""
    if len(enabled) <= 1:
        return enabled
    live = [p for p in run.processes if p.status is ProcessStatus.AT_VISIBLE]
    sigs = {p.name: signature_of(p) for p in live}
    for process in enabled:
        if sigs[process.name].local:
            return [process]

    def closure(seed):
        members = {seed.name: seed}
        conflict = set()
        sig = sigs[seed.name]
        if sig.obj is not None and not sig.local:
            conflict.add(sig.obj)
        changed = True
        while changed:
            changed = False
            for process in live:
                if process.name in members:
                    continue
                footprint = footprints.get(process.name, {ANY_OBJECT})
                if ANY_OBJECT in footprint or footprint & conflict:
                    members[process.name] = process
                    other = sigs[process.name]
                    if other.obj is not None and not other.local:
                        conflict.add(other.obj)
                    changed = True
        return list(members.values())

    best = enabled
    for seed in enabled:
        candidate = [p for p in closure(seed) if p in enabled]
        if len(candidate) < len(best):
            best = candidate
            if len(best) == 1:
                break
    return best


def reference_analysis(run, footprints):
    """``(deadlock, all terminated, enabled count, names, sigs)`` by a
    scan over every process."""
    enabled = [
        p for p in run.processes if p.status is ProcessStatus.AT_VISIBLE and p.enabled()
    ]
    statuses = [p.status for p in run.processes]
    parked = {
        ProcessStatus.AT_VISIBLE,
        ProcessStatus.TERMINATED,
        ProcessStatus.CRASHED,
        ProcessStatus.DIVERGED,
    }
    deadlock = (
        all(status in parked for status in statuses)
        and ProcessStatus.AT_VISIBLE in statuses
        and not enabled
    )
    terminated = all(status is ProcessStatus.TERMINATED for status in statuses)
    candidates = enabled
    if footprints is not None:
        candidates = reference_persistent(run, enabled, footprints)
    return (
        deadlock,
        terminated,
        len(enabled),
        tuple(p.name for p in candidates),
        tuple(signature_of(p) for p in candidates),
    )


def facts(projection, persistent, memo):
    names, sigs = projection.candidates(persistent, memo)
    return (
        projection.deadlocked(),
        projection.all_terminated(),
        projection.mask.bit_count(),
        names,
        sigs,
    )


#: The static footprints the explorer's persistent-set computer is
#: built from, once per system.
footprints_of = functools.cache(Explorer._compute_footprints)


class CheckedExplorer(Explorer):
    """An explorer that, at every visited state, checks its live
    projection against a rebuild and the reference analysis."""

    def __init__(self, system, options, **kwargs):
        super().__init__(system, options, **kwargs)
        self.footprints = None if self._persistent is None else footprints_of(system)
        self.checked = 0
        self.persistent_checked = 0

    def _visit(self, state, stats, seen_states, depth, sleep):
        run = state.run
        live = self._projection_of(run)
        rebuilt = ControlProjection(run)
        assert live.capture() == rebuilt.capture()
        persistent = self._persistent
        expected = reference_analysis(run, self.footprints)
        assert facts(live, persistent, self._state_memo) == expected
        assert facts(rebuilt, persistent, {}) == expected
        if persistent is not None and expected[2] > 1:
            enabled = [
                p for p in run.processes if p.status is ProcessStatus.AT_VISIBLE and p.enabled()
            ]
            assert [p.name for p in persistent.persistent_choices(run, enabled)] == [
                p.name for p in reference_persistent(run, enabled, self.footprints)
            ]
            self.persistent_checked += 1
        self.checked += 1
        return super()._visit(state, stats, seen_states, depth, sleep)


def checked_search(system, options):
    explorer = CheckedExplorer(system, options)
    report = explorer.run()
    assert explorer.checked == report.states_visited > 0
    return report, explorer


def checked_leases(system, options, paths_before_split=3):
    """The search split as the parallel driver splits it: a DFS
    suspended after a few paths, then each residual prefix explored
    below its frozen prefix (``initial_stack``).  Returns the total
    states visited and checked."""
    paths = [0]

    def yield_check():
        paths[0] += 1
        return paths[0] >= paths_before_split

    first = CheckedExplorer(system, options, yield_check=yield_check)
    report = first.run()
    assert first.checked == report.states_visited
    assert first.suspended
    states = report.states_visited
    for prefix in harvest_residual(first.final_stack, first.final_base):
        lease = CheckedExplorer(system, options, initial_stack=_thaw(prefix))
        lease_report = lease.run()
        assert lease.checked == lease_report.states_visited
        states += lease_report.states_visited
    return states


# ---------------------------------------------------------------------------
# The systems
# ---------------------------------------------------------------------------

#: Two producers on a capacity-1 channel and one consumer that wants
#: one value more than they send (a deadlock once they are done), plus
#: two lockers on a semaphore.  A recv wakes the producers and a sem_v
#: the other locker: only the re-check of the waiters sets those bits.
BLOCKING_SRC = """
proc producer(n) {
    var i = 0;
    while (i < n) { send(ch, i); i = i + 1; }
}
proc consumer(n) {
    var i = 0;
    var v;
    while (i < n) { v = recv(ch); i = i + 1; }
}
proc locker(id) {
    var k;
    k = VS_toss(1);
    sem_p(s);
    send(out, id + k);
    sem_v(s);
}
"""


def blocking_system():
    system = System(BLOCKING_SRC)
    system.add_channel("ch", capacity=1)
    system.add_semaphore("s", initial=1)
    system.add_env_sink("out")
    system.add_process("p1", "producer", [2])
    system.add_process("p2", "producer", [1])
    system.add_process("c", "consumer", [4])
    system.add_process("l1", "locker", [10])
    system.add_process("l2", "locker", [20])
    return system


def fiveess_system():
    app = build_app(n_lines=2, calls_per_line=1)
    return app.make_system(app.close(), with_maintenance=False)


MODES = [
    pytest.param("restore", "compiled", id="restore-compiled"),
    pytest.param("replay", "walk", id="replay-walk"),
]


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    backtrack=st.sampled_from(["restore", "replay"]),
    por=st.booleans(),
)
def test_random_systems(seed, backtrack, por):
    options = SearchOptions(
        max_depth=14, max_transitions=4000, backtrack=backtrack, por=por
    )
    checked_search(random_system(seed), options)


@pytest.mark.parametrize("backtrack, engine", MODES)
def test_blocked_waiters_wake(backtrack, engine):
    options = SearchOptions(max_depth=40, backtrack=backtrack, engine=engine)
    report, explorer = checked_search(blocking_system(), options)
    assert report.deadlocks
    assert explorer.persistent_checked > 0


@pytest.mark.parametrize("por, max_depth", [(True, 40), (False, 6)])
def test_blocked_waiters_wake_in_leases(por, max_depth):
    system = blocking_system()
    options = SearchOptions(max_depth=max_depth, por=por)
    whole, _ = checked_search(system, options)
    assert checked_leases(system, options) == whole.states_visited


@pytest.mark.parametrize("backtrack, engine", MODES)
def test_fig2(backtrack, engine):
    options = SearchOptions(max_depth=60, backtrack=backtrack, engine=engine)
    checked_search(figure_system(FIG2_SRC, "p"), options)


@pytest.mark.parametrize("backtrack, engine", MODES)
def test_bounded_fiveess(backtrack, engine):
    options = SearchOptions(max_depth=10, backtrack=backtrack, engine=engine)
    report, explorer = checked_search(fiveess_system(), options)
    assert explorer.persistent_checked > 0


def test_bounded_fiveess_in_leases():
    system = fiveess_system()
    options = SearchOptions(max_depth=8, engine="compiled")
    whole, _ = checked_search(system, options)
    assert checked_leases(system, options, paths_before_split=5) == whole.states_visited
