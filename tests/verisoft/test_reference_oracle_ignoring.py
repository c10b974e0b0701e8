"""Reference-oracle systems on which the reduced search ignores a process.

A ``spinner`` cycles ``sem_v(a); sem_p(a)`` forever.  Its next operation
touches only ``a``, which no other process's footprint contains, so
``{spinner}`` is persistent at every state of its loop: the reduced
search puts every other process off for ever, and each deferral uses up
depth.  This is the ignoring problem (ROADMAP item 1).  Deadlocks are
safe from it, since a path to a deadlock must take a transition of each
persistent set on its way, but an assertion that only another process
can reach is lost:

* spinner/checker: ``checker`` sends on ``c`` and asserts false;
* spinner/feeder/checker: ``feeder`` sends on ``c``, and ``checker``
  receives from ``c`` before its assertion.

Each system runs in both process orders, by the sequential search with
and without the exact state cache and by the parallel driver under
both schedulers, and each answer is compared with the naive reference
of :mod:`tests.verisoft.test_reference_oracle`: whether a violation
exists, and the set of deadlock states (read by replaying each deadlock
trace, which every driver reports).  The cases the reduced search gets
wrong today are marked ``xfail(strict=True)``, so the fix of item 1
must remove the marks.
"""

import pytest

from repro import SearchOptions, System, run_search
from repro.verisoft.explorer import replay

from .test_reference_oracle import _reference_explore

PAIR_SRC = """
proc spinner() { while (true) { sem_v(a); sem_p(a); } }
proc checker() { send(c, 1); VS_assert(false); }
"""

TRIPLE_SRC = """
proc spinner() { while (true) { sem_v(a); sem_p(a); } }
proc feeder() { send(c, 1); }
proc checker() { var x; x = recv(c); VS_assert(false); }
"""

SYSTEMS = {
    "pair": (PAIR_SRC, ("spinner", "checker"), 6),
    "triple": (TRIPLE_SRC, ("spinner", "feeder", "checker"), 8),
}

SEARCHES = {
    "dfs": dict(),
    "exact-cache": dict(state_cache="exact"),
    "parallel-static": dict(strategy="parallel", jobs=1, scheduler="static"),
    "parallel-steal": dict(strategy="parallel", jobs=1, scheduler="steal"),
}

IGNORED = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the persistent set {spinner} ignores the checker",
)


def builder(source, order):
    def build():
        system = System(source)
        system.add_semaphore("a", 0)
        system.add_channel("c", capacity=2)
        for name in order:
            system.add_process(name, name, [])
        return system

    return build


def cases():
    for system, (_, names, _) in SYSTEMS.items():
        for order in (names, names[::-1]):
            for search in SEARCHES:
                for por in (False, True):
                    # Reduced, with the spinner scheduled first: the
                    # spinner is the first persistent seed at every state.
                    marks = [IGNORED] if por and order[0] == "spinner" else []
                    yield pytest.param(
                        system,
                        order,
                        search,
                        por,
                        id=f"{system}-{'-'.join(order)}-{search}-{'por' if por else 'full'}",
                        marks=marks,
                    )


@pytest.mark.parametrize("system, order, search, por", cases())
def test_matches_the_naive_reference(system, order, search, por):
    source, _, depth = SYSTEMS[system]
    build = builder(source, order)
    _, ref_deadlocks, ref_violation = _reference_explore(build, depth)
    assert ref_violation
    report = run_search(
        build(),
        SearchOptions(max_depth=depth, por=por, max_events=10_000, **SEARCHES[search]),
    )
    deadlocks = {
        replay(build(), event.trace).state_fingerprint() for event in report.deadlocks
    }
    assert deadlocks == ref_deadlocks
    assert bool(report.violations) == ref_violation
