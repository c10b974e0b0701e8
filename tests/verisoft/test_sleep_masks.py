"""The explorer's sleep masks and carried signatures against the
set-based reference.

The explorer keeps each sleep set as an int mask over the bits of
interned transition signatures, and each visible request carries its
own interned signature (``repro.verisoft.por``).  The differential
suites compare explorer configurations with one another, so a wrong bit
that every configuration shares would pass all of them.  Here, at
every visited state:

* the carried sleep mask, decoded to signatures, equals the set that
  the set-based ``augment_sleep`` builds from the stack's last schedule
  point: its decoded inherited mask, its explored siblings' signatures
  and its chosen signature;
* the awake candidates equal the candidates whose signature is not in
  that set;
* the signature of every process at a visible operation equals a
  ``TransitionSig`` built from its pending request's fields.

Leases thawed from a harvested prefix must decode to the signature
sets that were frozen, also after a frontier JSON round trip, which
drops every bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchOptions
from repro.runtime.objects import EnvSink
from repro.runtime.process import ProcessStatus
from repro.service.frontier import prefix_from_json, prefix_to_json
from repro.verisoft.explorer import Explorer, _Leaf
from repro.verisoft.parallel import _thaw, harvest_residual
from repro.verisoft.por import (
    TransitionSig,
    augment_sleep,
    reintern,
    signature_of,
    sleep_signatures,
)
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system
from tests.verisoft.test_fuzz_differential import random_system
from tests.verisoft.test_incremental_analysis import fiveess_system

# ---------------------------------------------------------------------------
# The reference
# ---------------------------------------------------------------------------


def fields_signature(process) -> TransitionSig:
    """The signature of ``process``'s pending visible request, built
    from the request's fields."""
    request = process.pending
    obj = request.obj
    if obj is None:
        return TransitionSig(process.name, request.node_id, request.op, None, True)
    local = isinstance(obj, EnvSink) and not obj.visible_in_state
    return TransitionSig(process.name, request.node_id, request.op, obj.name, local)


def reference_sleep(points) -> frozenset:
    """The sleep set carried below the last schedule point of
    ``points``, by the set-based ``augment_sleep``; empty above the
    first one."""
    for point in reversed(points):
        if point.kind == "schedule":
            assert point.sigs, "a schedule point lost its signatures"
            explored = [sig for sig in point.sigs[: point.index] if sig is not None]
            return augment_sleep(
                sleep_signatures(point.sleep), explored, point.sigs[point.index]
            )
    return frozenset()


class MaskCheckedExplorer(Explorer):
    """An explorer that checks its sleep masks and carried signatures
    against the reference at every visited state."""

    def __init__(self, system, options, **kwargs):
        super().__init__(system, options, **kwargs)
        self.checked = 0
        self.nonempty = 0
        self.all_asleep = 0

    def _visit(self, state, stats, seen_states, depth, sleep):
        run = state.run
        for process in run.processes:
            if process.status is ProcessStatus.AT_VISIBLE:
                sig = signature_of(process)
                assert sig == fields_signature(process)
                assert reintern(sig) is sig and sig.bit == 1 << sig.id
        carried = sleep_signatures(sleep)
        expected = reference_sleep(state.stack[: state.ptr]) if self._sleep_sets else frozenset()
        assert carried == expected
        self.checked += 1
        self.nonempty += bool(carried)
        try:
            awake_names, awake_sigs = super()._visit(state, stats, seen_states, depth, sleep)
        except _Leaf:
            projection = self._projection_of(run)
            if projection.mask and depth < self._max_depth:
                # Moves are enabled below the bound, so the only leaf
                # left is a state whose every candidate is asleep.
                _, sigs = projection.candidates(self._persistent, self._state_memo)
                assert all(sig in carried for sig in sigs)
                self.all_asleep += 1
            raise
        names, sigs = self._projection_of(run).candidates(self._persistent, self._state_memo)
        awake = [(name, sig) for name, sig in zip(names, sigs) if sig not in carried]
        assert list(zip(awake_names, awake_sigs)) == awake
        return awake_names, awake_sigs


def checked_search(system, options):
    explorer = MaskCheckedExplorer(system, options)
    report = explorer.run()
    assert explorer.checked == report.states_visited > 0
    return report, explorer


def thawed(prefix):
    """``_thaw(prefix)``, checked to decode to what was frozen."""
    points = _thaw(prefix)
    for frozen, point in zip(prefix.points, points, strict=True):
        assert sleep_signatures(point.sleep) == frozen.sleep
        assert tuple(point.sigs) == frozen.sigs
        assert all(sig is None or reintern(sig) is sig for sig in point.sigs)
    return points


def checked_leases(system, options, paths_before_split=3):
    """The search split as the parallel driver splits it: a DFS
    suspended after a few paths, then every residual prefix, thawed
    directly and after a frontier JSON round trip, explored below its
    frozen prefix.  Returns the states visited by the first part and
    by each copy of the leases."""
    paths = [0]

    def yield_check():
        paths[0] += 1
        return paths[0] >= paths_before_split

    first = MaskCheckedExplorer(system, options, yield_check=yield_check)
    report = first.run()
    assert first.suspended
    states = {"direct": report.states_visited, "json": report.states_visited}
    for prefix in harvest_residual(first.final_stack, first.final_base):
        copies = {"direct": prefix, "json": prefix_from_json(prefix_to_json(prefix))}
        for how, copy in copies.items():
            lease = MaskCheckedExplorer(system, options, initial_stack=thawed(copy))
            lease_report = lease.run()
            assert lease.checked == lease_report.states_visited
            states[how] += lease_report.states_visited
    return states


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
    engine=st.sampled_from(["walk", "compiled"]),
)
def test_random_systems(seed, backtrack, engine):
    options = SearchOptions(
        max_depth=14, max_transitions=4000, backtrack=backtrack, engine=engine
    )
    checked_search(random_system(seed), options)


@pytest.mark.parametrize("source, proc", [(FIG2_SRC, "p"), (FIG3_SRC, "q")], ids=["fig2", "fig3"])
@pytest.mark.parametrize("backtrack, engine", MODES)
def test_figures(source, proc, backtrack, engine):
    options = SearchOptions(max_depth=60, backtrack=backtrack, engine=engine)
    checked_search(figure_system(source, proc), options)


@pytest.mark.parametrize("backtrack, engine", MODES)
def test_bounded_fiveess(backtrack, engine):
    options = SearchOptions(max_depth=10, backtrack=backtrack, engine=engine)
    report, explorer = checked_search(fiveess_system(), options)
    assert explorer.nonempty > 0
    assert explorer.all_asleep > 0


@pytest.mark.parametrize(
    "make_system, max_depth",
    # Random seed 29 carries non-empty masks at about a third of its states.
    [(lambda: random_system(29), 14), (fiveess_system, 8)],
    ids=["random-29", "fiveess"],
)
def test_thawed_leases(make_system, max_depth):
    system = make_system()
    options = SearchOptions(max_depth=max_depth, engine="compiled")
    whole, explorer = checked_search(system, options)
    assert explorer.nonempty > 0
    states = checked_leases(system, options, paths_before_split=5)
    assert states == {"direct": whole.states_visited, "json": whole.states_visited}
