"""A report's caching provenance is derived from the options it records,
so every driver states the same configuration for the same options."""

import pytest

from repro import SearchOptions, run_search


@pytest.mark.parametrize("por", [True, False])
@pytest.mark.parametrize("mode", ["safe", "unsafe-fast"])
@pytest.mark.parametrize("store", ["exact", "hashcompact"])
def test_dfs_and_parallel_report_the_same_provenance(fig2_system, por, mode, store):
    options = dict(max_depth=60, por=por, state_cache=store, cache_mode=mode)
    dfs = run_search(fig2_system, SearchOptions(**options))
    parallel = run_search(fig2_system, SearchOptions(strategy="parallel", jobs=1, **options))
    assert parallel.state_caching == {**dfs.state_caching, "per_worker_stores": True}
    assert dfs.state_caching == {
        "store": store,
        "mode": mode,
        # No sleep set runs without POR, nor under safe caching.
        "sleep_sets": por and mode == "unsafe-fast",
    }


def test_the_explorer_records_its_options(fig2_system):
    from repro.verisoft.explorer import Explorer

    options = SearchOptions(max_depth=60, state_cache="exact")
    report = Explorer(fig2_system, options).run()
    assert report.options is options
    assert report.state_caching == {"store": "exact", "mode": "safe", "sleep_sets": False}
    assert report.seed is None
