"""Oracle for :func:`repro.dataflow.defuse.compute_defuse`.

``reference_arcs`` below is the reaching-definitions worklist the
library used before it kept per-variable maps: every node's in-set and
out-set is a set of ``(variable, defining node)`` pairs, a node's out-set
drops the pairs of the variables it defines strongly and adds one pair
per definition, and a use reads every reaching pair of its variable.
It is slow and plainly correct; the library must produce exactly its
arcs on every program here.
"""

from __future__ import annotations

import pathlib
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg import build_cfgs
from repro.closing.generators import ProgramGenerator, generate_sized_program
from repro.dataflow.accesses import node_access
from repro.dataflow.alias import analyze_aliases
from repro.dataflow.defuse import compute_defuse
from repro.fiveess import build_app
from repro.lang.parser import parse_program

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def reference_arcs(cfg, points_to) -> set[tuple[int, int, str]]:
    """``(def node, use node, variable)`` for every def-use arc of ``cfg``."""
    accesses = {node.id: node_access(node, points_to) for node in cfg}
    gen = {n: {(d.var, n) for d in access.defs} for n, access in accesses.items()}
    kill = {n: {d.var for d in access.defs if d.strong} for n, access in accesses.items()}
    gen[cfg.start_id] |= {(param, cfg.start_id) for param in cfg.params}

    reaching_in = {n: set() for n in cfg.nodes}
    reaching_out = {n: set() for n in cfg.nodes}
    worklist = deque(cfg.nodes)
    queued = set(cfg.nodes)
    while worklist:
        node_id = worklist.popleft()
        queued.discard(node_id)
        in_set = set()
        for arc in cfg.predecessors(node_id):
            in_set |= reaching_out[arc.src]
        reaching_in[node_id] = in_set
        out_set = {pair for pair in in_set if pair[0] not in kill[node_id]} | gen[node_id]
        if out_set != reaching_out[node_id]:
            reaching_out[node_id] = out_set
            for arc in cfg.successors(node_id):
                if arc.dst not in queued:
                    queued.add(arc.dst)
                    worklist.append(arc.dst)
    return {
        (def_node, node_id, var)
        for node_id, access in accesses.items()
        for var, def_node in reaching_in[node_id]
        if var in access.uses
    }


def assert_matches_reference(source: str) -> int:
    """Check every procedure of ``source``; return how many arcs it has."""
    cfgs = build_cfgs(parse_program(source))
    points_to = analyze_aliases(cfgs)
    total = 0
    for proc, cfg in cfgs.items():
        local = points_to.local_pointer_map(proc)
        arcs = {(a.def_node, a.use_node, a.var) for a in compute_defuse(cfg, local).arcs}
        assert arcs == reference_arcs(cfg, local), proc
        total += len(arcs)
    return total


#: Weak definitions: a store into an array, a store through a pointer,
#: an ``&x`` argument to a user procedure, and all three inside loops
#: and branches, where they meet strong definitions at joins.
WEAK_DEFS = {
    "array": """
        proc main() {
            var a[2];
            a[0] = 1;
            var b = a[1];
        }
    """,
    "pointer": """
        proc main() {
            var x = 0;
            var p = &x;
            *p = 5;
            var y = x;
        }
    """,
    "address-arg": """
        proc main() {
            var x = 0;
            f(&x);
            var y = x;
        }
        proc f(p) { *p = 1; }
    """,
    "loops-and-joins": """
        proc main(c) {
            var a[3];
            var x = 0;
            var y = 1;
            var p = &x;
            var i = 0;
            while (i < 3) {
                if (c == i) {
                    *p = i;
                    p = &y;
                } else {
                    a[i] = x + y;
                    x = a[0];
                }
                f(&y);
                i = i + 1;
            }
            send(out, x + y + a[1]);
        }
        proc f(q) { *q = *q + 1; }
    """,
}


@pytest.mark.parametrize("name", sorted(WEAK_DEFS))
def test_weak_definitions(name):
    assert assert_matches_reference(WEAK_DEFS[name])


@pytest.mark.parametrize("name", ["fig2.rc", "fig3.rc"])
def test_figures(name):
    assert assert_matches_reference((EXAMPLES / name).read_text())


def test_bounded_5ess():
    assert assert_matches_reference(build_app(n_lines=2, calls_per_line=1).source)


@pytest.mark.parametrize("size", [200, 800])
@pytest.mark.parametrize("seed", range(4))
def test_sized_programs(size, seed):
    assert assert_matches_reference(generate_sized_program(size, seed))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_generated_programs(seed):
    assert_matches_reference(ProgramGenerator(seed).generate())
