"""Experiment BENCH-OBS — overhead of the observability layer.

The design rule of :mod:`repro.obs` is "zero cost when disabled, cheap
when enabled": every instrumentation site in the explorer is one
``if observer is not None`` branch, the tracer appends one record per
*path* (not per transition), and the profiler does a handful of
``Counter`` increments per fresh transition.  This experiment prices
that claim on the bounded 5ESS search: the same exhaustive DFS runs
bare, with the profiler, with the tracer, with the coverage collector,
and with profiler+tracer together, best-of-3 each, and the overhead
ratios land in the repo-root ``BENCH_obs.json`` (with a copy under
``benchmarks/results/`` next to the other artefacts).

A note on the targets: overhead here is a *ratio*, and the incremental
fingerprint + hot-loop work shrank its denominator by ~3.5x — the same
absolute per-transition observer cost now reads as a several-times
larger percentage.  The honest targets against the fast baseline are
profiler+tracer < 20 % and coverage < 30 % (coverage records a node
trace per transition, which the others do not), asserted with CI slack
so a loaded box does not flake; the recorded JSON holds the measured
ratios.
"""

from __future__ import annotations

import time

import pytest

from repro import SearchOptions, Tracer, run_search
from benchmarks.bench_lib import fiveess_system, merge_bench_json

pytestmark = pytest.mark.slow

BOUNDS = dict(max_depth=20, max_events=50_000)
REPEATS = 3

MODES = ("off", "profile", "trace", "coverage", "both")


def _run_once(mode):
    system = fiveess_system()
    tracer = Tracer() if mode in ("trace", "both") else None
    options = SearchOptions(
        profile=mode in ("profile", "both"),
        tracer=tracer,
        coverage=mode == "coverage",
        **BOUNDS,
    )
    started = time.perf_counter()
    report = run_search(system, options)
    elapsed = time.perf_counter() - started
    return elapsed, report, tracer


def test_bench_obs_overhead(record_table):
    timings = {}
    checks = {}
    for mode in MODES:
        best = None
        for _ in range(REPEATS):
            elapsed, report, tracer = _run_once(mode)
            best = elapsed if best is None else min(best, elapsed)
            checks[mode] = (report, tracer)
        timings[mode] = best

    # Same search regardless of observation (observers must not perturb).
    baseline_report = checks["off"][0]
    for mode in MODES[1:]:
        report = checks[mode][0]
        assert report.transitions_executed == baseline_report.transitions_executed
        assert report.states_visited == baseline_report.states_visited
    profile = checks["both"][0].profile
    assert profile.total_transitions == baseline_report.transitions_executed
    assert checks["both"][1].events  # the tracer actually recorded spans
    coverage = checks["coverage"][0].coverage
    assert coverage.nodes_covered  # the collector actually saw the run

    base = timings["off"]
    overhead = {
        mode: (timings[mode] - base) / base if base else 0.0
        for mode in MODES[1:]
    }

    states = baseline_report.states_visited
    payload = {
        "bounds": BOUNDS,
        "repeats": REPEATS,
        "transitions": baseline_report.transitions_executed,
        "paths": baseline_report.paths_explored,
        "states": states,
        "modes": {
            mode: {
                "wall_time_s": round(timings[mode], 4),
                "states_per_second": round(states / timings[mode])
                if timings[mode]
                else 0,
                "overhead": round(overhead[mode], 4) if mode != "off" else 0.0,
            }
            for mode in MODES
        },
        "target": "both < 0.20, coverage < 0.30",
    }
    merge_bench_json("obs", "5ess_bounded", payload)

    lines = [
        "Observability overhead on the bounded 5ESS DFS (best of "
        f"{REPEATS}, {baseline_report.transitions_executed} transitions)",
        "",
        f"  {'mode':<8} {'wall (s)':>10} {'overhead':>10}",
    ]
    lines.append(f"  {'off':<8} {timings['off']:>10.4f} {'—':>10}")
    for mode in MODES[1:]:
        lines.append(
            f"  {mode:<8} {timings[mode]:>10.4f} {overhead[mode]:>9.1%}"
        )
    record_table("BENCH_obs", lines)

    # Wide bounds so shared CI machines do not flake; the recorded JSON
    # holds the honest numbers against the design targets (both < 20%,
    # coverage < 30% — ratios against the post-fingerprint fast
    # baseline; coverage pays for a node trace per transition, which
    # the others do not record).
    assert overhead["both"] < 0.30, overhead
    assert overhead["coverage"] < 0.40, overhead
