"""Experiment BENCH-SHARD — the two lease policies of the parallel driver.

The parallel driver (:mod:`repro.verisoft.parallel`) hands out subtree
*leases* to worker processes.  Under ``--scheduler static`` it splits
the tree in-process first — one path of the shallowest lease at a time,
the rest of it becoming new leases — until there are 16 leases per
worker, then hands them out with stealing off; a tree that runs out
before that (Figures 2 and 3) is searched without forking at all.
Under ``--scheduler steal`` it starts from the one root lease and lets
idle workers steal unexplored siblings from busy ones, so skew is
dissolved at runtime.  The skewed toss tree — one giant subtree among
trivial siblings — was the worst case of cutting the tree at a fixed
frontier depth.

This experiment runs the identical bounded search three ways — the
sequential DFS baseline, ``--scheduler static`` and ``--scheduler
steal`` — over Figure 2, Figure 3, the skewed tree and bounded 5ESS
(perfbench search-5ess's search: compiled engine, ``max_depth=24``),
and records wall time plus the lease/steal telemetry.  Each of the
three also runs with ``count_states`` (rows ``dfs+count_states``,
``static+count_states``, ``steal+count_states``), whose state keys
every lease ships back to the coordinator; those rows record
``distinct_states``.  Each parallel row records ``vs_dfs``, its median
over the DFS row's median with the same ``count_states`` setting, so
the parallel driver's overhead with and without ``count_states`` can be
compared.  Each row is timed five times
(:func:`benchmarks.bench_lib.timed_search`): ``wall_time_s`` is the
median, with ``wall_time_min_s`` and ``wall_time_max_s`` beside it, and
the counters are the median run's.  The figure and skewed trees are so
small that sequential DFS beats both policies; the 5ESS row is the one
where the workers pay.

Asserted unconditionally (the policies must differ *only* in how work
is distributed):

* states / transitions / paths / toss points / violation groups all
  identical to sequential DFS for both policies, on every repeat, and
  with ``count_states`` the distinct states too;
* the static policy never steals (``steals == 0``);
* on the skewed tree, stealing actually happens (``steals > 0``) and
  the work is split across leases (``leases > jobs``).

Asserted only on hosts with >= 4 CPUs (the container CI box has one
core, where every scheduler time-slices): steal beats static on the
skewed workload by at least 20%.

Numbers land in the repo-root ``BENCH_shard.json`` (CI uploads the
``BENCH_*.json`` artifacts) with a copy under ``benchmarks/results/``.
Each parametrized case merges its rows into the JSON, so a filtered run
(``-k "fig2 or fig3"``) refreshes only its own entries.
"""

from __future__ import annotations

import os

import pytest

from repro import SearchOptions, System
from benchmarks.bench_lib import (
    baseline_delta_lines,
    fiveess_system,
    merge_bench_json,
    timed_search,
)
from tests.statespace.conftest import FIG2_SRC, FIG3_SRC, figure_system

pytestmark = pytest.mark.slow

JOBS = 4

PARITY_KEYS = ("states", "transitions", "paths", "toss_points", "violation_groups")

SKEWED_SRC = """
proc main() {
    var which;
    which = VS_toss(3);
    if (which == 0) {
        var i = 0;
        while (i < 8) {
            var t;
            t = VS_toss(1);
            i = i + 1;
        }
        send(out, i);
    } else {
        send(out, which);
    }
}
"""


def _skewed_system():
    """One subtree holds 2**8 paths, its three siblings one each — the
    worst case of a fixed-depth frontier cut."""
    system = System(SKEWED_SRC)
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


CASES = {
    "fig2": (lambda: figure_system(FIG2_SRC, "p"), dict(max_depth=60)),
    "fig3": (lambda: figure_system(FIG3_SRC, "q"), dict(max_depth=60)),
    "skewed": (lambda: _skewed_system(), dict(max_depth=60)),
    "5ess": (fiveess_system, dict(engine="compiled", max_depth=24)),
}


def _run_one(build, bounds, *, strategy, scheduler="static", jobs=0, count_states=False):
    options = SearchOptions(
        strategy=strategy, scheduler=scheduler, jobs=jobs, count_states=count_states, **bounds
    )
    report, timing = timed_search(build, options)
    stats = report.stats
    row = {
        "strategy": stats.strategy,
        "scheduler": scheduler if strategy == "parallel" else None,
        "jobs": stats.jobs,
        "states": stats.states_visited,
        "transitions": stats.transitions_executed,
        "toss_points": stats.toss_points,
        "paths": stats.paths_explored,
        "violation_groups": len(report.triage()),
        "leases": stats.leases,
        "steals": stats.steals,
        "leases_requeued": stats.leases_requeued,
        **timing,
        "states_per_second": round(stats.states_per_second),
    }
    if count_states:
        row["distinct_states"] = report.distinct_states
    return row


#: Each row's variant and its ``count_states`` twin.
VARIANTS = [
    (f"{variant}{suffix}", variant, count_states)
    for count_states, suffix in ((False, ""), (True, "+count_states"))
    for variant in ("dfs", "static", "steal")
]


@pytest.mark.parametrize("label", list(CASES))
def test_bench_shard(label, record_table, baseline_results):
    build, bounds = CASES[label]
    rows = {
        name: _run_one(
            build,
            bounds,
            strategy="dfs" if variant == "dfs" else "parallel",
            scheduler="static" if variant == "dfs" else variant,
            jobs=0 if variant == "dfs" else JOBS,
            count_states=count_states,
        )
        for name, variant, count_states in VARIANTS
    }

    # Identical search, different distribution cost — nothing else.
    for name, variant, count_states in VARIANTS:
        dfs = rows["dfs+count_states" if count_states else "dfs"]
        keys = PARITY_KEYS + ("distinct_states",) if count_states else PARITY_KEYS
        for key in keys:
            assert rows[name][key] == dfs[key], (
                f"{label}: {key} differs between {name} and dfs: "
                f"{rows[name][key]} vs {dfs[key]}"
            )
        if variant != "dfs":
            ratio = rows[name]["wall_time_s"] / max(dfs["wall_time_s"], 1e-9)
            rows[name]["vs_dfs"] = round(ratio, 2)

    for name in ("static", "static+count_states"):
        assert rows[name]["steals"] == 0, "the static policy never steals"

    if label == "skewed":
        assert rows["steal"]["steals"] > 0, "skewed tree must trigger steals"
        assert rows["steal"]["leases"] > JOBS, (
            "stealing must split the heavy subtree into more leases "
            "than there are workers"
        )
        ratio = rows["static"]["wall_time_s"] / max(
            rows["steal"]["wall_time_s"], 1e-9
        )
        rows["steal"]["speedup_vs_static"] = round(ratio, 2)
        if (os.cpu_count() or 1) >= 4:
            assert ratio >= 1.2, (
                f"skewed: steal was only {ratio:.2f}x static "
                "(expected >= 1.2x with >= 4 real cores)"
            )

    merge_bench_json("shard", label, rows)

    lines = [
        f"Schedulers on {label} (bounds {bounds}, jobs {JOBS})",
        "",
        f"  {'variant':<20} {'paths':>6} {'states':>7} {'distinct':>8} {'leases':>7} "
        f"{'steals':>7} {'time':>9} {'vs dfs':>7}",
    ]
    for variant, row in rows.items():
        lines.append(
            f"  {variant:<20} {row['paths']:>6} {row['states']:>7} "
            f"{row.get('distinct_states', ''):>8} {row['leases']:>7} {row['steals']:>7} "
            f"{row['wall_time_s']:>8.3f}s {row.get('vs_dfs', ''):>7}"
        )
    lines.extend(baseline_delta_lines(baseline_results.get("shard"), label, rows))
    record_table(f"bench_shard_{label}", lines)
