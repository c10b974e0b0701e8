"""State caching plugged into the search: the parity contract.

The cache is only allowed to change *how much work* the search does —
never *what it finds*.  Every test here compares a cached search to the
uncached baseline on the same system and asserts the two report the
same violation-triage groups; the cached one must also do strictly less
work where the state space has diamonds (Figure 2/3 do: different toss
orders converge on the same counter states).
"""

import pytest

from repro import SearchOptions, run_search
from repro.counterex import load_trace, save_report_traces, verify_trace
from repro.fiveess.app import demo_system

from .conftest import triage_signatures


def _search(system, **kwargs):
    return run_search(system, SearchOptions(max_depth=60, **kwargs))


@pytest.fixture(params=["fig2_system", "fig3_system"])
def figure(request):
    return request.getfixturevalue(request.param)


class TestSequentialParity:
    def test_exact_cache_same_triage_strictly_fewer_transitions(self, figure):
        baseline = _search(figure)
        cached = _search(figure, state_cache="exact")
        assert triage_signatures(cached) == triage_signatures(baseline)
        assert cached.transitions_executed < baseline.transitions_executed
        assert cached.stats.cache_hits > 0

    @pytest.mark.parametrize("kind", ["hashcompact"])
    def test_compact_stores_find_the_same_bugs(self, figure, kind):
        baseline = _search(figure)
        cached = _search(figure, state_cache=kind)
        assert triage_signatures(cached) == triage_signatures(baseline)
        assert cached.transitions_executed < baseline.transitions_executed

    def test_uncached_report_has_no_caching_block(self, fig2_system):
        report = _search(fig2_system)
        assert report.state_caching is None
        assert report.stats.state_cache == "off"
        assert "cache=" not in report.summary()


class TestProvenance:
    def test_report_records_cache_configuration(self, fig2_system):
        report = _search(fig2_system, state_cache="exact")
        assert report.state_caching == {
            "store": "exact",
            "mode": "safe",
            "sleep_sets": False,
        }
        assert "cache=exact" in report.summary()
        stats = report.stats
        assert stats.state_cache == "exact"
        assert stats.cache_misses == stats.cache_stored > 0
        assert stats.cache_hit_ratio is not None
        assert "state cache:" in stats.describe()

    def test_unsafe_fast_keeps_sleep_sets(self, fig2_system):
        report = _search(fig2_system, state_cache="exact", cache_mode="unsafe-fast")
        assert report.state_caching["mode"] == "unsafe-fast"
        assert report.state_caching["sleep_sets"] is True

    def test_saved_traces_carry_the_cache_config(self, fig2_system, tmp_path):
        # Counterexample provenance: a trace found by a cached search
        # must say so, because a cached search's counters (and, with
        # lossy stores, even its findings) depend on the store.
        report = _search(fig2_system, state_cache="hashcompact")
        written = save_report_traces(tmp_path, report, system=fig2_system)
        assert written
        options = load_trace(written[0]).search["options"]
        assert options["state_cache"] == "hashcompact"
        assert options["cache_mode"] == "safe"

    def test_traces_from_cached_searches_replay(self, fig3_system, tmp_path):
        report = _search(fig3_system, state_cache="exact")
        written = save_report_traces(tmp_path, report, system=fig3_system)
        verdict = verify_trace(fig3_system, load_trace(written[0]))
        assert verdict.ok


class TestValidation:
    def test_unknown_store_rejected(self, fig2_system):
        with pytest.raises(ValueError, match="unknown state cache"):
            _search(fig2_system, state_cache="lru")

    def test_unknown_mode_rejected(self, fig2_system):
        with pytest.raises(ValueError, match="unknown cache mode"):
            _search(fig2_system, state_cache="exact", cache_mode="yolo")

    def test_random_strategy_ignores_cache_silently(self, fig2_system):
        # Random walks revisit by design; the cache fields are simply
        # unused (like `walks` is by dfs), not an error.
        report = _search(fig2_system, strategy="random", walks=5, state_cache="exact")
        assert report.state_caching is None  # no store was ever consulted
        assert report.stats.cache_hits == 0


class TestParallelParity:
    def test_parallel_cached_triage_matches_sequential(self, fig2_system):
        sequential = _search(fig2_system, state_cache="exact")
        parallel = _search(
            fig2_system, strategy="parallel", jobs=2, state_cache="exact"
        )
        assert triage_signatures(parallel) == triage_signatures(sequential)
        # Per-worker stores cannot see across subtrees, so the parallel
        # run prunes at most as much as the sequential cached run.
        uncached = _search(fig2_system)
        assert (
            sequential.transitions_executed
            <= parallel.transitions_executed
            <= uncached.transitions_executed
        )

    def test_merged_report_flags_per_worker_stores(self, fig2_system):
        report = _search(
            fig2_system, strategy="parallel", jobs=2, state_cache="exact"
        )
        assert report.state_caching["store"] == "exact"
        assert report.state_caching["per_worker_stores"] is True
        assert report.stats.state_cache == "exact"


class TestMemoryFootprint:
    def test_compact_stores_are_at_least_8x_smaller_per_state(self):
        # The headline claim of hash compaction, on the 5ESS case study
        # (large snapshots: many processes + objects).
        per_state = {}
        for kind in ("exact", "hashcompact"):
            report = run_search(
                demo_system(),
                SearchOptions(max_depth=30, max_paths=300, state_cache=kind),
            )
            assert report.stats.cache_stored > 50
            per_state[kind] = report.stats.cache_bytes_per_state
        assert per_state["exact"] >= 8 * per_state["hashcompact"]

    def test_exact_store_charges_real_snapshot_bytes(self, fig2_system):
        report = _search(fig2_system, state_cache="exact")
        stats = report.stats
        # Figure 2 snapshots are dozens of bytes; the accounting must
        # reflect that, not a token constant.
        assert stats.cache_bytes_per_state > 16
        assert stats.cache_memory_bytes > stats.cache_stored * 16
