"""Whom the parallel driver asks for a steal: a pure function of the
coordinator's worker records, tested without processes."""

from hypothesis import given
from hypothesis import strategies as st

from repro.verisoft.parallel import _steal_targets, _WorkerHandle


def worker(label, key=None, seq=0):
    """A worker record, busy with lease ``seq`` at DFS position ``key``
    (idle when ``key`` is None)."""
    handle = _WorkerHandle(None, None, label)
    if key is not None:
        handle.assign((key, seq, None), now=0.0)
    return handle


def ask(targets):
    """What the coordinator does with the chosen workers."""
    for handle in targets:
        handle.asked = handle.assigned[1]
    return [handle.label for handle in targets]


def test_static_asks_nobody():
    workers = [worker("w0"), worker("w1", (0,), 1), worker("w2", (1,), 2)]
    assert _steal_targets("static", workers) == []


def test_one_request_per_idle_worker_shallowest_first():
    workers = [
        worker("w0", (0, 1, 1), 1),
        worker("w1"),
        worker("w2", (2,), 2),
        worker("w3", (1, 0), 3),
        worker("w4"),
    ]
    assert ask(_steal_targets("steal", workers)) == ["w2", "w3"]


def test_no_more_requests_than_busy_workers():
    workers = [worker("w0"), worker("w1"), worker("w2", (0,), 1)]
    assert ask(_steal_targets("steal", workers)) == ["w2"]


def test_nobody_idle_asks_nobody():
    workers = [worker("w0", (0,), 1), worker("w1", (1,), 2)]
    assert _steal_targets("steal", workers) == []


def test_a_lease_is_asked_once():
    w0, w1, w2 = worker("w0"), worker("w1", (0,), 1), worker("w2", (1, 0), 2)
    assert ask(_steal_targets("steal", [w0, w1, w2])) == ["w1"]
    # The idle worker's request is still out: nobody else is asked.
    assert _steal_targets("steal", [w0, w1, w2]) == []
    # A second idle worker asks the next lease, never w1's again.
    w1.release(False, now=1.0)
    w1.assign(((0,), 1, None), now=1.0)
    w3 = worker("w3")
    assert ask(_steal_targets("steal", [w0, w1, w2, w3])) == ["w2"]
    assert _steal_targets("steal", [w0, w1, w2, w3]) == []
    # A new lease on the same worker may be asked.
    w1.release(True, now=2.0)
    w1.assign(((0, 1), 5, None), now=2.0)
    assert ask(_steal_targets("steal", [w0, w1, w2, w3])) == ["w1"]


# A round: each worker is idle, or busy with a lease at some DFS position.
keys = st.lists(st.integers(0, 2), max_size=4).map(tuple)
rounds = st.lists(st.lists(st.none() | keys, min_size=1, max_size=6), min_size=1, max_size=5)


@given(rounds)
def test_requests_follow_the_rules(plan):
    """Over rounds of workers changing leases: at most one request out
    per idle worker, each to a distinct busy worker, shallowest lease
    first, and no lease asked twice."""
    workers = [worker(f"w{i}") for i in range(max(len(r) for r in plan))]
    asked = set()
    seq = 0
    for assignment in plan:
        for handle, key in zip(workers, assignment):
            if key is None and handle.assigned is not None:
                handle.release(False, now=0.0)
            elif key is not None and (handle.assigned is None or handle.assigned[0] != key):
                seq += 1
                handle.assign((key, seq, None), now=0.0)
        targets = _steal_targets("steal", workers)
        busy = [w for w in workers if w.assigned is not None]
        idle = len(workers) - len(busy)
        outstanding = sum(1 for w in busy if w.asked == w.assigned[1])
        assert len(set(map(id, targets))) == len(targets) <= max(0, idle - outstanding)
        assert all(w.assigned is not None for w in targets)
        chosen = {w.assigned[1] for w in targets}
        assert not chosen & asked
        # Shallowest first: no lease left unasked is shallower.
        depths = [len(w.assigned[0]) for w in targets]
        passed = [len(w.assigned[0]) for w in busy if w.assigned[1] not in chosen | asked]
        assert depths == sorted(depths)
        assert not (targets and passed) or max(depths) <= min(passed)
        asked |= chosen
        ask(targets)
