"""The divergence budget runs out after the same node on both engines.

The walking engine checks the invisible-step budget once per executed
node, and entering a procedure defers the check by one node (the
callee's START node makes it).  Every budget is tried on small programs
that cover straight-line runs, nested and void calls, ``VS_toss`` calls
and TOSS nodes, ``record()``/``channel()`` lookups and a fault in the
middle of a run.  After every scheduling step the two engines must
agree on each process's status, crash message, ``state_fingerprint()``,
``control_nodes()`` and coverage trace, and on the journal's entry
count.
"""

import pytest

from repro import SearchOptions, System, close_program, run_search
from repro.runtime.system import SystemConfig

STRAIGHT = """
proc main() {
    var i;
    i = 0;
    while (i < 6) {
        var a;
        a = i * 3;
        var b;
        b = a + 1;
        i = i + 1;
    }
    send(out, i);
}
"""

NESTED_CALLS = """
proc g(x) {
    var y;
    y = x + 1;
    return y;
}
proc f(x) {
    var z;
    z = g(x);
    z = g(z);
    return z;
}
proc main() {
    var k;
    k = 0;
    while (k < 3) {
        var r;
        r = f(k);
        send(out, r);
        k = k + 1;
    }
}
"""

VOID_CALLS = """
proc bump() {
    var t;
    t = 1;
}
proc main() {
    var n;
    n = 0;
    while (n < 4) {
        bump();
        n = n + 1;
    }
    send(out, n);
}
"""

TOSS_CALLS = """
proc main() {
    var c;
    c = 0;
    while (c < 8) {
        var v;
        v = VS_toss(2);
        c = c + v + 1;
    }
    send(out, c);
}
"""

#: Closed with ``x`` from the environment: ``if (y == 0)`` becomes a
#: TOSS node.
TOSS_NODES = """
proc p(x) {
    var y = x % 2;
    var cnt = 0;
    var odds = 0;
    while (cnt < 3) {
        if (y == 0) { send(out, 'even'); } else { send(out, 'odd'); odds = odds + 1; }
        cnt = cnt + 1;
    }
    VS_assert(odds < 3);
}
"""

LOOKUPS = """
proc main() {
    var i;
    i = 0;
    while (i < 3) {
        var r;
        r = record();
        r.n = i;
        var c;
        c = channel('ch');
        send(c, r.n);
        i = i + 1;
    }
}
proc drain() {
    var j;
    j = 0;
    while (j < 3) {
        var v;
        v = recv(ch);
        j = j + 1;
    }
}
"""

#: ``a[i] = i`` faults when ``i`` reaches 3.
FAULT = """
proc main() {
    var a[3];
    var i;
    i = 0;
    while (i < 5) {
        a[i] = i;
        i = i + 1;
    }
    send(out, i);
}
"""


def _plain(source, *processes, channels=()):
    def build(budget):
        system = System(source, SystemConfig(divergence_budget=budget))
        system.add_env_sink("out")
        for name in channels:
            system.add_channel(name, capacity=1)
        for name in processes:
            system.add_process(name, name, [])
        return system

    return build


def _closed_toss_nodes(budget):
    closed = close_program(TOSS_NODES, env_params={"p": ["x"]})
    system = System(closed.cfgs, SystemConfig(divergence_budget=budget))
    system.add_env_sink("out")
    system.add_process("P", "p", [])
    return system


PROGRAMS = {
    "straight": _plain(STRAIGHT, "main"),
    "nested-calls": _plain(NESTED_CALLS, "main"),
    "void-calls": _plain(VOID_CALLS, "main"),
    "toss-calls": _plain(TOSS_CALLS, "main"),
    "toss-nodes": _closed_toss_nodes,
    "lookups": _plain(LOOKUPS, "main", "drain", channels=("ch",)),
    "fault": _plain(FAULT, "main"),
}

BUDGETS = range(1, 61)


def _observe(run):
    processes = tuple(
        (
            p.name,
            p.status,
            None if p.crash is None else str(p.crash),
            p.engine.state_fingerprint(),
            tuple(p.engine.control_nodes()),
            tuple(p.engine.take_trace()),
        )
        for p in run.processes
    )
    return processes, run.journal.entries_recorded


def _drive(system, engine, max_steps=80):
    """One fixed schedule: the first enabled process runs, a toss takes
    the step count modulo its range.  Returns an observation after
    every step."""
    run = system.start(journal=True, engine=engine, trace=True)
    assert run.engine == engine
    run.start_processes()
    observed = [_observe(run)]
    for step in range(max_steps):
        toss = run.toss_pending()
        if toss is not None:
            run.answer_toss(toss, step % (toss.toss_request.bound + 1))
        else:
            enabled = run.enabled_processes()
            if not enabled:
                break
            run.execute_visible(enabled[0])
        observed.append(_observe(run))
    return observed


@pytest.mark.parametrize("name", list(PROGRAMS))
def test_every_budget_stops_both_engines_at_the_same_node(name):
    build = PROGRAMS[name]
    walks = {budget: _drive(build(budget), "walk") for budget in BUDGETS}
    mismatched = [b for b in BUDGETS if walks[b] != _drive(build(b), "compiled")]
    assert mismatched == []
    # The range matters: the smallest budget diverges, the largest
    # lets the program run to its end.
    first, last = ({p[1].value for p in walks[b][-1][0]} for b in (BUDGETS[0], BUDGETS[-1]))
    assert "diverged" in first and "diverged" not in last


LOOP_CALLS_F = """
proc f() {
    var t;
    t = 1;
}
proc main() {
    var i;
    i = 0;
    while (i < 100) {
        f();
        i = i + 1;
    }
}
"""


def test_search_counts_and_coverage_match_when_a_call_exhausts_the_budget():
    # With a budget of 9 the second call of ``f`` is the tenth invisible
    # step: the process diverges at f's entry, before ``var t``.
    reports = {}
    for engine in ("walk", "compiled"):
        system = System(LOOP_CALLS_F, SystemConfig(divergence_budget=9))
        system.add_process("main", "main", [])
        reports[engine] = run_search(
            system, SearchOptions(engine=engine, coverage=True)
        )
    walk, compiled = reports["walk"], reports["compiled"]
    assert compiled.stats.engine == "compiled"
    assert len(walk.divergences) == len(compiled.divergences) == 1
    assert walk.stats.undo_entries == compiled.stats.undo_entries
    assert dict(walk.coverage.nodes) == dict(compiled.coverage.nodes)
    assert dict(walk.coverage.edges) == dict(compiled.coverage.edges)
    assert walk.coverage.nodes[("f", 1)] == 1
