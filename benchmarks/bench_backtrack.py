"""Experiment BENCH-BACKTRACK — replay vs restore backtracking.

The classic VeriSoft explorer is stateless: backtracking re-executes
the whole path prefix from the initial state, so deep searches spend
most of their transitions replaying old ground (``replay_fraction``).
The restore-based mode keeps undo-journal checkpoints at choice points
and rewinds the live run in O(changes) instead.  This experiment runs
the identical bounded DFS over Figure 2, Figure 3 and the Section 6
call-processing application in both modes and records wall time,
replay fraction and total executed transitions (fresh + replayed).

On the 5ESS case each mode additionally runs under the compiled
execution engine — the end-to-end configuration the incremental
fingerprint + hot-loop work targets ("as fast as the compiled
engine") — with full counter parity asserted across all four variants.

Asserted here (the variants must differ *only* in how they backtrack
and how fast they step):

* states / transitions / paths / violation groups identical;
* restore performs zero replays (``replayed_transitions == 0``,
  ``replay_fraction == 0``) in sequential DFS;
* on the 5ESS case the replay mode executes at least 2x more total
  transitions than restore — the work the undo journal saves.

Each variant is timed five times (:func:`benchmarks.bench_lib.timed_search`):
``wall_time_s`` is the median, with ``wall_time_min_s`` and
``wall_time_max_s`` beside it, and the counters are the median run's.
Numbers land in the repo-root ``BENCH_backtrack.json`` (CI uploads the
``BENCH_*.json`` artifacts) with a copy under ``benchmarks/results/``.
Each parametrized case merges its rows into the JSON, so a filtered run
(``-k "fig2 or fig3"``) refreshes only its own entries; ``--baseline``
prints states/sec deltas against a previous run's files.
"""

from __future__ import annotations

import pytest

from repro import SearchOptions
from benchmarks.bench_lib import (
    baseline_delta_lines,
    fiveess_system,
    merge_bench_json,
    timed_search,
)
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system

pytestmark = pytest.mark.slow

PARITY_KEYS = ("states", "transitions", "paths", "toss_points", "violation_groups")


#: label -> (system factory, bounds, (variant -> (backtrack, engine))).
#: The figure searches are small enough that the engine dimension adds
#: nothing; the bounded 5ESS case carries the headline end-to-end
#: throughput, so it runs both modes under both engines.
CASES = {
    "fig2": (
        lambda: figure_system(FIG2_SRC, "p"),
        dict(max_depth=60),
        {"replay": ("replay", "walk"), "restore": ("restore", "walk")},
    ),
    "fig3": (
        lambda: figure_system(FIG3_SRC, "q"),
        dict(max_depth=60),
        {"replay": ("replay", "walk"), "restore": ("restore", "walk")},
    ),
    "5ess": (
        fiveess_system,
        dict(max_depth=20, max_events=50_000),
        {
            "replay": ("replay", "walk"),
            "restore": ("restore", "walk"),
            "replay_compiled": ("replay", "compiled"),
            "restore_compiled": ("restore", "compiled"),
        },
    ),
}


def _run_one(build, bounds, mode, engine):
    def build_ready():
        system = build()
        if engine == "compiled":
            system.compiled_program()  # compile outside the timed region
        return system

    options = SearchOptions(backtrack=mode, engine=engine, **bounds)
    report, timing = timed_search(build_ready, options)
    stats = report.stats
    assert stats.engine == engine, f"fell back to {stats.engine}"
    total = stats.transitions_executed + stats.replayed_transitions
    return {
        "backtrack": stats.backtrack,
        "engine": stats.engine,
        "states": stats.states_visited,
        "transitions": stats.transitions_executed,
        "toss_points": stats.toss_points,
        "paths": stats.paths_explored,
        "violation_groups": len(report.triage()),
        "replays": stats.replays,
        "replayed_transitions": stats.replayed_transitions,
        "total_transitions": total,
        "replay_fraction": round(stats.replay_fraction or 0.0, 4),
        "restores": stats.restores,
        "undo_entries": stats.undo_entries,
        "checkpoint_memory_bytes": stats.checkpoint_memory_bytes,
        **timing,
        "states_per_second": round(stats.states_per_second),
    }


@pytest.mark.parametrize("label", list(CASES))
def test_bench_backtrack(label, record_table, baseline_results):
    build, bounds, variants = CASES[label]
    rows = {
        variant: _run_one(build, bounds, mode, engine)
        for variant, (mode, engine) in variants.items()
    }
    replay_row, restore_row = rows["replay"], rows["restore"]

    # Identical search, different backtracking/stepping cost — nothing
    # else: every variant must agree with walk-engine replay.
    for variant, row in rows.items():
        for key in PARITY_KEYS:
            assert row[key] == replay_row[key], (
                f"{label}: {key} differs between replay and {variant}: "
                f"{replay_row[key]} vs {row[key]}"
            )
    for variant, row in rows.items():
        if row["backtrack"] != "restore":
            continue
        assert row["replays"] == 0, variant
        assert row["replayed_transitions"] == 0, variant
        assert row["replay_fraction"] == 0.0, variant
        assert row["restores"] > 0, variant

    if label == "5ess":
        ratio = replay_row["total_transitions"] / restore_row["total_transitions"]
        restore_row["transition_ratio_vs_replay"] = round(ratio, 2)
        assert ratio >= 2.0, (
            f"5ess: replay executed only {ratio:.2f}x the transitions of "
            "restore (expected >= 2x)"
        )
        speedup = (
            rows["restore_compiled"]["states_per_second"]
            / max(replay_row["states_per_second"], 1)
        )
        rows["restore_compiled"]["speedup_vs_walk_replay"] = round(speedup, 2)

    merge_bench_json("backtrack", label, rows)

    lines = [
        f"Backtracking modes on {label} (bounds {bounds})",
        "",
        f"  {'variant':<17} {'states':>7} {'total-trans':>12} {'replayed':>9} "
        f"{'replay%':>8} {'time':>8} {'states/s':>10}",
    ]
    for variant, row in rows.items():
        lines.append(
            f"  {variant:<17} {row['states']:>7} {row['total_transitions']:>12} "
            f"{row['replayed_transitions']:>9} {row['replay_fraction']:>8.1%} "
            f"{row['wall_time_s']:>7.2f}s {row['states_per_second']:>10,}"
        )
    if "transition_ratio_vs_replay" in restore_row:
        lines.append(
            "  restore executes "
            f"{restore_row['transition_ratio_vs_replay']}x fewer total "
            "transitions than replay"
        )
    lines.extend(baseline_delta_lines(baseline_results.get("backtrack"), label, rows))
    lines.append("wrote BENCH_backtrack.json")
    record_table(f"BENCH_backtrack_{label}", lines)
