"""A reference-oracle system on which an over-pruning sleep set shows.

:mod:`tests.verisoft.test_reference_oracle` compares the reduced search
with a naive unreduced one, but on its systems a sleep set that keeps a
dependent transition asleep still reaches every deadlock state and
violation.  Here it does not: a writer and a reader share a semaphore
``m`` and a variable ``v``, and the reader asserts that it ran first.
The violation needs the writer's whole critical section to run before
the reader's ``sem_p(m)``.  Explored with the reader first, the reader's
``sem_p(m)`` sleeps in the writer's branch unless the search wakes it
when the writer operates on ``m``; a sleep set that ignores objects
keeps it asleep and loses the only violating interleaving.

Both process orders are checked against the naive reference of
:mod:`tests.verisoft.test_reference_oracle`, with partial-order
reduction on and off.
"""

import pytest

from repro import System

from .test_reference_oracle import _production_explore, _reference_explore

SOURCE = """
proc writer() {
    sem_p(m);
    write(v, 1);
    sem_v(m);
}
proc reader() {
    var t;
    sem_p(m);
    t = read(v);
    VS_assert(t == 0);
    sem_v(m);
}
"""

DEPTH = 12


def guarded_pair(order):
    def build():
        system = System(SOURCE)
        system.add_semaphore("m", 1)
        system.add_shared("v", 0)
        for name in order:
            system.add_process(name, name, [])
        return system

    return build


ORDERS = [("writer", "reader"), ("reader", "writer")]


@pytest.mark.parametrize("order", ORDERS, ids="-".join)
@pytest.mark.parametrize("por", [False, True], ids=["full", "por"])
def test_matches_the_naive_reference(order, por):
    build = guarded_pair(order)
    ref_states, ref_deadlocks, ref_violation = _reference_explore(build, DEPTH)
    assert ref_violation  # the writer can run first in either order
    report, deadlock_states = _production_explore(build, DEPTH, por=por)
    assert bool(report.violations) == ref_violation
    assert deadlock_states == ref_deadlocks
    assert report.distinct_states <= len(ref_states)
    if not por:
        assert report.distinct_states == len(ref_states)
