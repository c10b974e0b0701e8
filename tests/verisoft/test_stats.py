"""Tests for the search-telemetry layer (repro.verisoft.stats)."""

import io

from repro import System
from repro.verisoft import (
    Explorer,
    ProgressPrinter,
    SearchOptions,
    SearchStats,
    run_search,
)
from repro.verisoft.random_walk import random_walks


def toss_system(bound=3):
    system = System(
        f"proc main() {{ var t; t = VS_toss({bound}); send(out, t); }}"
    )
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def two_proc_system():
    src = """
    proc main(id) {
        send(c, id);
        send(out, id);
    }
    """
    system = System(src)
    system.add_env_sink("out")
    system.add_channel("c", capacity=4)
    system.add_process("p1", "main", [1])
    system.add_process("p2", "main", [2])
    return system


class TestExplorerStats:
    def test_report_carries_stats(self):
        report = Explorer(toss_system()).run()
        stats = report.stats
        assert stats is not None
        assert stats.strategy == "dfs"
        assert stats.states_visited == report.states_visited
        assert stats.transitions_executed == report.transitions_executed
        assert stats.toss_points == report.toss_points
        assert stats.paths_explored == report.paths_explored
        assert stats.max_depth_reached == report.max_depth_reached

    def test_replays_count_backtracking(self):
        report = Explorer(toss_system(bound=3), backtrack="replay").run()
        # 4 paths: the first execution is not a replay, the other 3 are.
        assert report.paths_explored == 4
        assert report.stats.replays == 3

    def test_replayed_transitions_counted(self):
        report = Explorer(two_proc_system(), por=False, backtrack="replay").run()
        assert report.stats.replayed_transitions > 0
        assert report.stats.replay_overhead is not None
        assert 0 < report.stats.replay_overhead < 1

    def test_wall_and_cpu_time_populated(self):
        stats = Explorer(toss_system()).run().stats
        assert stats.wall_time > 0.0
        assert stats.cpu_time >= 0.0
        assert stats.states_per_second > 0.0

    def test_por_reduction_ratio(self):
        # Independent processes: the persistent sets are singletons, so
        # the ratio must show a strict reduction.
        with_por = Explorer(two_proc_system(), por=True).run().stats
        without = Explorer(two_proc_system(), por=False).run().stats
        assert with_por.reduction_ratio is not None
        assert with_por.reduction_ratio < 1.0
        assert without.reduction_ratio == 1.0

    def test_fresh_ratio_none_before_any_state(self):
        assert SearchStats().reduction_ratio is None
        assert SearchStats().replay_overhead is None


class TestRandomWalkStats:
    def test_stats_threaded_through(self):
        report = random_walks(toss_system(), walks=7, seed=1)
        stats = report.stats
        assert stats is not None
        assert stats.strategy == "random"
        assert stats.paths_explored == 7
        assert stats.states_visited == report.states_visited
        assert report.toss_points == 7  # one toss per walk

    def test_time_budget_flags_incomplete(self):
        report = random_walks(toss_system(), walks=10_000, time_budget=0.0)
        assert report.incomplete
        assert report.truncated


class TestProgress:
    def test_progress_callback_invoked(self):
        ticks = []
        run_search(
            toss_system(9),
            SearchOptions(progress=ticks.append, progress_interval=0.0),
        )
        assert ticks
        assert all(isinstance(t, SearchStats) for t in ticks)
        # Monotonic path counts: the callback sees a live object.
        paths = [t.paths_explored for t in ticks]
        assert paths == sorted(paths)

    def test_progress_printer_ticker(self):
        buffer = io.StringIO()
        printer = ProgressPrinter(stream=buffer)
        stats = SearchStats(states_visited=12, paths_explored=3, wall_time=1.0)
        printer(stats)
        printer.finish()
        text = buffer.getvalue()
        assert "states=12" in text
        assert "paths=3" in text
        assert text.endswith("\n")

    def test_printer_finish_idempotent(self):
        buffer = io.StringIO()
        printer = ProgressPrinter(stream=buffer)
        printer.finish()
        assert buffer.getvalue() == ""

    def test_plain_mode_rate_limited(self):
        # StringIO is not a TTY: the printer emits plain newline lines,
        # at most one per plain_interval — except the very first.
        buffer = io.StringIO()
        printer = ProgressPrinter(stream=buffer, plain_interval=3600.0)
        stats = SearchStats(states_visited=1, wall_time=1.0)
        printer(stats)
        printer(stats)
        printer(stats)
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert len(lines) == 1  # throttled after the first update

    def test_plain_mode_zero_interval_prints_every_tick(self):
        buffer = io.StringIO()
        printer = ProgressPrinter(stream=buffer, plain_interval=0.0)
        stats = SearchStats(states_visited=1, wall_time=1.0)
        printer(stats)
        printer(stats)
        assert buffer.getvalue().count("states=1") == 2

    def test_worker_lines_rendered_below_ticker(self):
        buffer = io.StringIO()
        printer = ProgressPrinter(stream=buffer, plain_interval=0.0)
        printer.worker_lines(["worker 1: busy", "worker 2: idle"])
        printer(SearchStats(states_visited=5, wall_time=1.0))
        ticker, first, second = buffer.getvalue().splitlines()
        assert "states=5" in ticker
        assert first == "  worker 1: busy"
        assert second == "  worker 2: idle"

    def test_warn_gets_own_line(self):
        buffer = io.StringIO()
        printer = ProgressPrinter(stream=buffer)
        printer.warn("worker 7 stalled")
        assert buffer.getvalue() == "warning: worker 7 stalled\n"

    def test_tty_mode_redraws_in_place(self):
        class FakeTty(io.StringIO):
            def isatty(self):
                return True

        buffer = FakeTty()
        printer = ProgressPrinter(stream=buffer)
        stats = SearchStats(states_visited=2, wall_time=1.0)
        printer(stats)
        printer(stats)
        printer.finish()
        text = buffer.getvalue()
        assert "\r\x1b[2K" in text  # erase sequence between redraws
        assert text.endswith("\n")


class TestAggregation:
    def test_merged_sums_counters(self):
        a = SearchStats(states_visited=10, transitions_executed=9, cpu_time=1.0,
                        max_depth_reached=5, sleep_prunes=2)
        b = SearchStats(states_visited=5, transitions_executed=4, cpu_time=0.5,
                        max_depth_reached=8, sleep_prunes=1)
        merged = SearchStats.merged([a, b], strategy="parallel", jobs=2)
        assert merged.states_visited == 15
        assert merged.transitions_executed == 13
        assert merged.cpu_time == 1.5
        assert merged.max_depth_reached == 8
        assert merged.sleep_prunes == 3
        assert merged.strategy == "parallel"
        assert merged.jobs == 2

    def test_describe_and_ticker(self):
        stats = SearchStats(
            states_visited=100,
            enabled_transitions=50,
            persistent_transitions=25,
            wall_time=2.0,
        )
        assert "POR ratio:       0.500" in stats.describe()
        assert "por=0.50" in stats.ticker_line()
        assert "50 states/s" in stats.ticker_line()

    def test_ticker_shows_coverage_and_frontier_gauges(self):
        stats = SearchStats(
            states_visited=10,
            wall_time=1.0,
            coverage_nodes=9,
            coverage_nodes_total=12,
            frontier_pending=4,
        )
        line = stats.ticker_line()
        assert "cov=75%" in line
        assert "pending=4" in line
        # Gauges are absent when unset — the ticker stays compact.
        quiet = SearchStats(states_visited=10, wall_time=1.0).ticker_line()
        assert "cov=" not in quiet and "pending=" not in quiet

    def test_coverage_gauges_not_summed_on_merge(self):
        parts = [
            SearchStats(coverage_nodes=5, coverage_nodes_total=12, frontier_pending=2),
            SearchStats(coverage_nodes=7, coverage_nodes_total=12, frontier_pending=3),
        ]
        merged = SearchStats.merged(parts, strategy="parallel", jobs=2)
        # Worker shards can overlap; the merged gauges are re-derived
        # from the merged collector, never summed across shards.
        assert merged.coverage_nodes == 0
        assert merged.coverage_nodes_total == 0
        assert merged.frontier_pending == 0

    def test_json_dict_derives_coverage_percent(self):
        stats = SearchStats(coverage_nodes=6, coverage_nodes_total=12)
        payload = stats.json_dict()
        assert payload["coverage_percent"] == 50.0
        assert SearchStats().json_dict()["coverage_percent"] is None

    def test_as_dict_roundtrip(self):
        stats = SearchStats(states_visited=3)
        assert stats.as_dict()["states_visited"] == 3
        assert SearchStats(**stats.as_dict()) == stats

    def test_merged_empty_parts(self):
        merged = SearchStats.merged([], strategy="parallel", jobs=4)
        assert merged.states_visited == 0
        assert merged.strategy == "parallel"
        assert merged.jobs == 4

    def test_merged_single_part_is_copy(self):
        part = SearchStats(states_visited=7, max_depth_reached=3)
        merged = SearchStats.merged([part])
        assert merged.states_visited == 7
        merged.states_visited = 99
        assert part.states_visited == 7  # no aliasing

    def test_add_wall_time_not_summed(self):
        # Parallel workers overlap in wall time: add() must not turn
        # N overlapping seconds into N summed seconds (the coordinator
        # overwrites wall_time with its own measurement).
        a = SearchStats(wall_time=2.0, cpu_time=2.0)
        a.add(SearchStats(wall_time=3.0, cpu_time=3.0))
        assert a.wall_time == 2.0
        assert a.cpu_time == 5.0

    def test_add_adopts_cache_mode_only_when_off(self):
        a = SearchStats(state_cache="off")
        a.add(SearchStats(state_cache="exact", cache_hits=4))
        assert a.state_cache == "exact"
        assert a.cache_hits == 4
        # An already-set mode is kept even if parts disagree.
        a.add(SearchStats(state_cache="bitstate", cache_hits=1))
        assert a.state_cache == "exact"
        assert a.cache_hits == 5

    def test_add_keeps_receiver_identity_fields(self):
        a = SearchStats(strategy="parallel", jobs=4, prefixes=8)
        a.add(SearchStats(strategy="dfs", jobs=1, prefixes=0))
        assert a.strategy == "parallel"
        assert a.jobs == 4
        assert a.prefixes == 8
