"""Tests for the unified search API (SearchOptions + run_search)."""

import pytest

import repro
from tests.helpers import dfs_search
from repro import SearchOptions, System, run_search
from repro.verisoft import STRATEGIES, replay
from repro.verisoft.random_walk import random_walks


def toss_system(bound=3):
    system = System(
        f"proc main() {{ var t; t = VS_toss({bound}); send(out, t); }}"
    )
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def deadlock_system():
    src = """
    proc main() {
        recv(never);
    }
    """
    system = System(src)
    system.add_channel("never", capacity=1)
    system.add_process("p", "main", [])
    return system


class TestDispatch:
    def test_default_strategy_is_dfs(self):
        report = run_search(toss_system())
        assert report.stats.strategy == "dfs"
        assert report.paths_explored == 4

    def test_dfs_matches_direct_explorer(self):
        from repro.verisoft import Explorer

        assert (
            run_search(toss_system(), SearchOptions(strategy="dfs")).summary()
            == Explorer(toss_system()).run().summary()
        )

    def test_random_matches_internal_random_walks(self):
        via_api = run_search(
            toss_system(9), SearchOptions(strategy="random", walks=11, seed=42)
        )
        legacy = random_walks(toss_system(9), walks=11, seed=42)
        assert via_api.summary() == legacy.summary()

    def test_parallel_strategy_dispatches(self):
        report = run_search(
            toss_system(9), SearchOptions(strategy="parallel", jobs=1)
        )
        assert report.stats.strategy == "parallel"
        assert report.summary() == dfs_search(toss_system(9)).summary()

    def test_keyword_overrides(self):
        report = run_search(toss_system(9), max_paths=2)
        assert report.paths_explored == 2
        assert report.truncated

    def test_overrides_do_not_mutate_options(self):
        options = SearchOptions()
        run_search(toss_system(), options, max_paths=1)
        assert options.max_paths is None


class TestProvenance:
    """run_search records how a report was produced (deliverable: seed
    and options inside the report, for trace-file search metadata)."""

    def test_options_recorded_on_report(self):
        options = SearchOptions(strategy="dfs", max_depth=17)
        report = run_search(toss_system(), options)
        assert report.options is options
        assert report.options.as_dict()["max_depth"] == 17

    def test_seed_recorded_for_random(self):
        report = run_search(
            toss_system(), SearchOptions(strategy="random", walks=5, seed=42)
        )
        assert report.seed == 42

    def test_seed_none_for_dfs(self):
        assert run_search(toss_system()).seed is None

    def test_options_recorded_for_parallel(self):
        report = run_search(
            toss_system(), SearchOptions(strategy="parallel", jobs=1)
        )
        assert report.options is not None
        assert report.options.strategy == "parallel"

    def test_as_dict_omits_callbacks(self):
        options = SearchOptions(stop_when=lambda r: True)
        payload = options.as_dict()
        assert "stop_when" not in payload
        assert "on_leaf" not in payload
        assert "progress" not in payload


class TestValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown search strategy"):
            run_search(toss_system(), SearchOptions(strategy="bfs"))

    def test_strategies_constant(self):
        assert set(STRATEGIES) == {"dfs", "random", "parallel"}

    def test_parallel_rejects_callbacks(self):
        with pytest.raises(ValueError, match="cannot cross process"):
            run_search(
                toss_system(),
                SearchOptions(strategy="parallel", stop_when=lambda r: True),
            )

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="max_depth"):
            run_search(toss_system(), SearchOptions(max_depth=0))

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_search(toss_system(), SearchOptions(strategy="parallel", jobs=-1))


class TestTimeBudget:
    def test_zero_budget_marks_incomplete(self):
        report = run_search(toss_system(9), SearchOptions(time_budget=0.0))
        assert report.incomplete
        assert report.truncated
        assert "INCOMPLETE" in report.summary()

    def test_generous_budget_completes(self):
        report = run_search(toss_system(3), SearchOptions(time_budget=60.0))
        assert not report.incomplete
        assert not report.truncated
        assert report.paths_explored == 4

    def test_budget_checked_within_a_path(self):
        # max_seconds was only checked between paths; time_budget must
        # interrupt even the first execution.
        report = run_search(
            toss_system(9), SearchOptions(time_budget=0.0, max_depth=50)
        )
        assert report.paths_explored == 1
        assert report.incomplete


class TestExports:
    def test_machinery_names_still_exported(self):
        for name in ("replay", "Explorer", "collect_output_traces"):
            assert hasattr(repro, name) or hasattr(repro.verisoft, name)

    def test_legacy_wrappers_are_gone(self):
        # Removed after a five-release deprecation: the unified
        # run_search() / `repro search` front end replaces them.
        assert not hasattr(repro, "explore")
        assert not hasattr(repro, "random_walks")
        assert "explore" not in repro.__all__
        assert "random_walks" not in repro.__all__

    def test_new_names_reexported_from_top_level(self):
        for name in (
            "run_search",
            "SearchOptions",
            "SearchStats",
            "ProgressPrinter",
            "parallel_search",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_replay_wrapper_roundtrip(self):
        system = deadlock_system()
        report = run_search(system, SearchOptions(max_depth=10))
        assert report.deadlocks
        run = replay(deadlock_system(), report.deadlocks[0].trace)
        assert not run.enabled_processes()
