"""Tests for explorer work budgets, state counting options, and the
behaviour-matching utilities."""


from tests.helpers import dfs_search
from repro import System
from repro.runtime.values import TOP
from repro.verisoft import (
    behavior_inclusion,
    collect_output_traces,
    matches_with_erasure,
    missing_behaviors,
)


def toss_system(bound=9):
    system = System(
        f"proc main() {{ var t; t = VS_toss({bound}); send(out, t); }}"
    )
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


class TestBudgets:
    def test_max_transitions(self):
        report = dfs_search(toss_system(), max_depth=10, max_transitions=4, por=False)
        assert report.truncated
        assert report.transitions_executed <= 5

    def test_time_budget_zero_truncates(self):
        from repro.verisoft import Explorer

        report = Explorer(toss_system(), max_depth=10, time_budget=0.0, por=False).run()
        assert report.truncated
        assert report.paths_explored >= 1

    def test_stop_when_predicate(self):
        calls = []

        def predicate(r):
            calls.append(r.paths_explored)
            return r.paths_explored >= 2

        report = dfs_search(toss_system(), max_depth=10, stop_when=predicate, por=False)
        assert report.paths_explored == 2
        assert calls

    def test_unbudgeted_run_completes(self):
        report = dfs_search(toss_system(3), max_depth=10, por=False)
        assert not report.truncated
        assert report.paths_explored == 4


class TestStateCounting:
    def _two_senders(self, visible_sink):
        system = System("proc sender(tag) { send(out, tag); }")
        system.add_env_sink("out", visible_in_state=visible_sink)
        system.add_process("a", "sender", [1])
        system.add_process("b", "sender", [2])
        return system

    def test_sink_hidden_by_default_merges_states(self):
        hidden = dfs_search(
            self._two_senders(False), max_depth=10, por=False, count_states=True
        )
        visible = dfs_search(
            self._two_senders(True), max_depth=10, por=False, count_states=True
        )
        # With the sink outputs in the fingerprint, interleavings stay
        # distinguishable; hidden, the final states merge.
        assert visible.distinct_states > hidden.distinct_states

    def test_distinct_at_most_visited(self):
        report = dfs_search(toss_system(), max_depth=10, por=False, count_states=True)
        assert report.distinct_states <= report.states_visited


class TestBehaviorMatching:
    def test_exact_match(self):
        assert matches_with_erasure((1, "a"), (1, "a"))

    def test_length_mismatch(self):
        assert not matches_with_erasure((1,), (1, 2))

    def test_top_matches_anything(self):
        assert matches_with_erasure((TOP, 2), (999, 2))
        assert matches_with_erasure((TOP,), ("string",))

    def test_top_on_open_side_does_not_wildcard(self):
        assert not matches_with_erasure((1,), (TOP,))

    def test_inclusion(self):
        open_traces = {(1,), (2,)}
        closed_traces = {(TOP,)}
        assert behavior_inclusion(open_traces, closed_traces)

    def test_inclusion_failure_reported(self):
        open_traces = {(1,), (2, 3)}
        closed_traces = {(1,)}
        assert not behavior_inclusion(open_traces, closed_traces)
        assert missing_behaviors(open_traces, closed_traces) == [(2, 3)]

    def test_collect_output_traces_respects_max_paths(self):
        traces = collect_output_traces(toss_system(), "out", max_depth=10, max_paths=3)
        assert len(traces) == 3
