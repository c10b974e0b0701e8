"""Tests for the hot-spot profiler: counter anchoring, parallel parity,
rendering and serialization."""

from repro import SearchOptions, Tracer, run_search
from repro.obs import HotSpotProfiler

from .conftest import deadlock_system, fig2_system


def profiled(system, **kwargs):
    report = run_search(system, SearchOptions(profile=True, **kwargs))
    assert report.profile is not None
    return report


class TestAnchoring:
    def test_totals_match_search_counters(self, fig2):
        report = profiled(fig2)
        profile = report.profile
        assert profile.total_transitions == report.transitions_executed
        assert sum(profile.tosses.values()) == report.toss_points
        assert sum(profile.depth_hist.values()) == report.transitions_executed

    def test_random_strategy_profiles_too(self, fig2):
        report = profiled(fig2, strategy="random", walks=5, seed=3)
        assert report.profile.total_transitions == report.transitions_executed
        assert sum(report.profile.tosses.values()) == report.toss_points

    def test_no_profile_by_default(self, fig2):
        report = run_search(fig2, SearchOptions())
        assert report.profile is None


def counters(report):
    """The profile dict minus ``phases_s`` — wall seconds per explorer
    phase, the one field that is real time rather than a deterministic
    counter.  The phase *names* must still agree run to run."""
    profile = report.profile.as_dict()
    timings = profile.pop("phases_s")
    assert all(value > 0 for value in timings.values())
    return profile, tuple(sorted(timings))


class TestParallelParity:
    def test_dfs_equals_parallel_jobs_1_and_4(self):
        dfs = counters(profiled(fig2_system()))
        one = counters(profiled(fig2_system(), strategy="parallel", jobs=1))
        four = counters(profiled(fig2_system(), strategy="parallel", jobs=4))
        assert dfs == one
        assert dfs == four

    def test_two_process_system_parity(self):
        sequential = profiled(deadlock_system(), max_depth=20)
        parallel = profiled(
            deadlock_system(),
            strategy="parallel",
            jobs=2,
            prefix_depth=2,
            max_depth=20,
        )
        assert counters(sequential) == counters(parallel)


class TestAggregation:
    def test_merged_skips_none_parts(self):
        part = HotSpotProfiler()
        part.on_step(_FakeProcess(), _FakeRequest(), 0, 1, True, True)
        merged = HotSpotProfiler.merged([None, part, None])
        assert merged.total_transitions == 1

    def test_add_sums_every_counter(self):
        a, b = HotSpotProfiler(), HotSpotProfiler()
        a.on_toss(_FakeProcess(), _FakeRequest(), 0, 1, True, True)
        b.on_toss(_FakeProcess(), _FakeRequest(), 0, 1, True, True)
        a.add(b)
        assert a.tosses[("p", 4)] == 2
        assert a.branching_hist[2] == 2


class _FakeRequest:
    """The slice of a runtime request the profiler reads."""

    proc_name = "p"
    node_id = 4
    op = "send"
    obj = None
    bound = 1


class _FakeProcess:
    """The slice of a runtime process the profiler reads."""

    name = "P"


class TestPresentation:
    def test_render_table_annotates_nodes(self, fig2):
        report = profiled(fig2)
        table = report.profile.render_table(5, system=fig2)
        assert "hot spots" in table
        assert "send" in table
        assert "p:" in table  # proc:node labels present
        assert "depth histogram" in table

    def test_render_table_without_system(self):
        profile = HotSpotProfiler()
        profile.on_step(_FakeProcess(), _FakeRequest(), 0, 1, True, True)
        table = profile.render_table()
        assert "p:4" in table

    def test_ranking_deterministic_on_ties(self):
        profile = HotSpotProfiler()
        for node in (9, 2, 5):
            profile.nodes[("p", node)] = 1
        assert [key for key, _ in profile.top_nodes()] == [
            ("p", 2),
            ("p", 5),
            ("p", 9),
        ]

    def test_as_dict_json_friendly(self, fig2):
        import json

        payload = profiled(fig2).profile.as_dict()
        json.dumps(payload)  # no tuple keys survive
        assert payload["total_transitions"] > 0
        assert all(":" in key for key in payload["nodes"])


class TestTracerIntegration:
    def test_dfs_emits_path_spans(self, fig2):
        tracer = Tracer()
        run_search(fig2, SearchOptions(tracer=tracer))
        names = {event["name"] for event in tracer.events}
        assert "path" in names
