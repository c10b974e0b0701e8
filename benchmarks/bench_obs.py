"""Experiment BENCH-OBS — overhead of the observability layer.

The design rule of :mod:`repro.obs` is "zero cost when disabled, cheap
when enabled": every instrumentation site in the explorer is one
``if observer is not None`` branch, the tracer appends one record per
*path* (not per transition), and the profiler does a handful of
``Counter`` increments per fresh transition.  This experiment prices
that claim on the bounded 5ESS search: the same exhaustive DFS runs
bare, with the profiler, with the tracer, with the coverage collector,
and with profiler+tracer together.  Each observed mode is timed against
the bare search in ``PAIRS`` alternating pairs
(:func:`benchmarks.bench_lib.alternating_pairs`), so both sides of a
pair see the host at the same speed; a mode's overhead is the median of
its per-pair ratios, recorded with their min and max.  The numbers land
in the repo-root ``BENCH_obs.json`` (with a copy under
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

import statistics
import time

import pytest

from repro import SearchOptions, Tracer, run_search
from benchmarks.bench_lib import alternating_pairs, fiveess_system, merge_bench_json, spread

pytestmark = pytest.mark.slow

BOUNDS = dict(max_depth=20, max_events=50_000)
#: Alternating bare/observed pairs per observed mode.  With nine, a
#: median overhead crosses a bound only if five pairs do.
PAIRS = 9

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
    # One untimed run per mode (also a warm-up) for the checks.
    checks = {mode: _run_once(mode)[1:] for mode in MODES}

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

    def timed(mode):
        return _run_once(mode)[0]

    times = {"off": []}
    ratios = {}
    for mode in MODES[1:]:
        off, times[mode] = alternating_pairs(PAIRS, timed, "off", mode)
        times["off"].extend(off)
        ratios[mode] = [on / base - 1.0 for base, on in zip(off, times[mode])]
    overhead = {mode: statistics.median(ratios[mode]) for mode in MODES[1:]}

    states = baseline_report.states_visited
    modes = {}
    for mode in MODES:
        row = spread(times[mode])
        row["states_per_second"] = round(states / row["wall_time_s"])
        if mode != "off":
            row["overhead"] = round(overhead[mode], 4)
            row["overhead_min"] = round(min(ratios[mode]), 4)
            row["overhead_max"] = round(max(ratios[mode]), 4)
        modes[mode] = row
    payload = {
        "bounds": BOUNDS,
        "pairs": PAIRS,
        "transitions": baseline_report.transitions_executed,
        "paths": baseline_report.paths_explored,
        "states": states,
        "modes": modes,
        "target": "both < 0.20, coverage < 0.30",
    }
    merge_bench_json("obs", "5ess_bounded", payload)

    lines = [
        "Observability overhead on the bounded 5ESS DFS (median of "
        f"{PAIRS} alternating pairs per mode, "
        f"{baseline_report.transitions_executed} transitions)",
        "",
        f"  {'mode':<8} {'wall (s)':>10} {'overhead':>10} {'min':>8} {'max':>8}",
    ]
    lines.append(f"  {'off':<8} {modes['off']['wall_time_s']:>10.4f} {'—':>10}")
    for mode in MODES[1:]:
        row = modes[mode]
        lines.append(
            f"  {mode:<8} {row['wall_time_s']:>10.4f} {row['overhead']:>9.1%} "
            f"{row['overhead_min']:>7.1%} {row['overhead_max']:>7.1%}"
        )
    record_table("BENCH_obs", lines)

    # Wide bounds so shared CI machines do not flake; the recorded JSON
    # holds the honest numbers against the design targets (both < 20%,
    # coverage < 30% — ratios against the post-fingerprint fast
    # baseline; coverage pays for a node trace per transition, which
    # the others do not record).
    assert overhead["both"] < 0.30, overhead
    assert overhead["coverage"] < 0.40, overhead
