"""Experiment PERF-CACHE — DFS throughput with and without state caching.

The stateless explorer's defining trade (store nothing, re-execute
everything) meets its SPIN-style counterweight here: a visited-state
store prunes revisited subtrees at the cost of remembering states.
This experiment runs the exhaustive DFS over Figure 2, Figure 3 and the
Section 6 call-processing application, uncached and under each store,
in both cache modes, and records states, transitions, wall time,
throughput and the store's memory.

Each variant is timed five times (:func:`benchmarks.bench_lib.
timed_search`): ``wall_time_s`` is the median, with ``wall_time_min_s``
and ``wall_time_max_s`` beside it.  Memory is recorded twice: the
stores' accounting model (``cache_memory_bytes``) and the tracemalloc
peak of one extra, untimed search (``tracemalloc_peak_bytes``), so the
memory claims rest on measured bytes.

Besides the human-readable tables, the run writes ``BENCH_search.json``
at the repository root, one entry per system keyed by variant name.
Asserted: the sound settings (``cache_mode="safe"``) find the same
violation groups as the uncached search.  On 5ESS the exact store
charges at most 512 B per stored state (its keys are tuples of shared
component encodings), its accounted bytes stay below the search's
measured tracemalloc peak, and hash compaction stores at least 8x
fewer bytes per state than the exact store.
``unsafe-fast`` keeps sleep sets under caching and may miss
interleavings by design, so its groups are recorded, not asserted.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro import SearchOptions, run_search
from benchmarks.bench_lib import (
    baseline_delta_lines,
    fiveess_system,
    merge_bench_json,
    timed_search,
)
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system

pytestmark = pytest.mark.slow

#: label -> (system factory, SearchOptions bounds).  The 5ESS slice is
#: bounded to keep its thirty searches inside a couple of minutes.
CASES = {
    "fig2": (lambda: figure_system(FIG2_SRC, "p"), dict(max_depth=60)),
    "fig3": (lambda: figure_system(FIG3_SRC, "q"), dict(max_depth=60)),
    "5ess": (fiveess_system, dict(max_depth=22, max_events=100_000)),
}

#: variant -> (state_cache, cache_mode).
VARIANTS = {
    "off": ("off", "safe"),
    "exact": ("exact", "safe"),
    "hashcompact": ("hashcompact", "safe"),
    "exact+unsafe-fast": ("exact", "unsafe-fast"),
    "hashcompact+unsafe-fast": ("hashcompact", "unsafe-fast"),
}


def _peak_bytes(build, options) -> int:
    system = build()
    tracemalloc.start()
    try:
        run_search(system, options)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _run_one(build, bounds, cache, mode):
    options = SearchOptions(state_cache=cache, cache_mode=mode, **bounds)
    report, timing = timed_search(build, options)
    stats = report.stats
    return {
        "state_cache": cache,
        "cache_mode": mode,
        "states": stats.states_visited,
        "transitions": stats.transitions_executed,
        "paths": stats.paths_explored,
        "violation_groups": len(report.triage()),
        "cache_hits": stats.cache_hits,
        "cache_stored": stats.cache_stored,
        "cache_memory_bytes": stats.cache_memory_bytes,
        "cache_bytes_per_state": stats.cache_bytes_per_state,
        "tracemalloc_peak_bytes": _peak_bytes(build, options),
        **timing,
        "states_per_second": round(stats.states_per_second),
    }


@pytest.mark.parametrize("label", list(CASES))
def test_bench_search(label, record_table, baseline_results):
    build, bounds = CASES[label]
    rows = {
        variant: _run_one(build, bounds, cache, mode)
        for variant, (cache, mode) in VARIANTS.items()
    }

    # The parity contract, for the sound settings: caching never
    # changes what is found.
    sound = {
        row["violation_groups"]
        for row in rows.values()
        if row["cache_mode"] == "safe"
    }
    assert len(sound) == 1, f"{label}: sound caches disagree on groups {sound}"

    lines = [
        f"DFS with and without state caching on {label} (bounds {bounds})",
        "",
        f"  {'variant':<24} {'states':>8} {'trans':>8} {'time':>8} "
        f"{'states/s':>10} {'B/state':>8} {'peak KB':>8} {'groups':>6}",
    ]
    for variant, row in rows.items():
        per_state = row["cache_bytes_per_state"]
        lines.append(
            f"  {variant:<24} {row['states']:>8} {row['transitions']:>8} "
            f"{row['wall_time_s']:>7.3f}s {row['states_per_second']:>10,} "
            f"{per_state if per_state is not None else 0:>8.1f} "
            f"{row['tracemalloc_peak_bytes'] // 1024:>8} "
            f"{row['violation_groups']:>6}"
        )

    if label == "5ess":
        # The memory claims.  The exact store keeps a state as a tuple
        # of shared part encodings, not their ~2.8 KB concatenation, and
        # its accounting model must not claim more than was measured.
        exact = rows["exact"]
        assert exact["cache_bytes_per_state"] <= 512, (
            f"exact: {exact['cache_bytes_per_state']:.0f} B per stored state"
        )
        assert exact["cache_memory_bytes"] < exact["tracemalloc_peak_bytes"]
        # Hash compaction costs at least 8x less per stored state.
        ratio = (
            rows["exact"]["cache_bytes_per_state"]
            / rows["hashcompact"]["cache_bytes_per_state"]
        )
        assert ratio >= 8, f"hashcompact: only {ratio:.1f}x smaller than exact"
        rows["hashcompact"]["memory_ratio_vs_exact"] = round(ratio, 1)
        lines.append("")
        lines.append(f"memory per state vs exact: hashcompact {ratio:.1f}x smaller")

    merge_bench_json("search", label, rows)
    lines.extend(baseline_delta_lines(baseline_results.get("search"), label, rows))
    record_table(f"bench_search_{label}", lines)
