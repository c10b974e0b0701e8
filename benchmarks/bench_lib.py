"""Shared plumbing for the ``BENCH_*.json`` artifacts.

Every benchmark writes its numbers to a repo-root ``BENCH_<name>.json``
(with a copy under ``benchmarks/results/``) so the measurements are
machine-consumable across sessions and CI runs.  This module normalizes
the concerns the bench scripts share:

* :func:`provenance_block` — one uniform ``_provenance`` block per
  label (when it was generated, on what interpreter/platform/CPU count,
  at which commit, and whether ``src/`` had uncommitted changes), so a
  number can always be traced back to its run;
* :func:`merge_bench_json` — label-wise merging, so a filtered run
  (``-k "fig2 or fig3"``) refreshes only its own entries, with their
  own provenance, and never clobbers the rest of the file or restamps
  the provenance of rows it did not measure;
* :func:`baseline_delta_lines` — the ``--baseline`` delta summary (see
  ``benchmarks/conftest.py``): every row carrying a
  ``states_per_second`` field is matched by path against the baseline
  file and the throughput delta printed alongside the result table.
* :func:`timed_repeats` — one row's timing: the median, min and max of
  ``REPEATS`` runs, so a row that takes milliseconds on a host whose
  speed swings by ~1.5x is still a measurement; :func:`timed_search`
  applies it to searches.
* :func:`alternating_pairs` — two variants timed in pairs whose order
  alternates, for rows that compare them (a speedup, an overhead):
  both sides of a pair see the host at the same speed, and
  :func:`spread` gives each side's median, min and max.

The CI ``perf-smoke`` job drives the same row discovery
(:func:`iter_rates`) through ``benchmarks/check_regression.py`` to fail
on throughput regressions against the committed baselines.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import time
from typing import Any, Callable, Iterator

#: Repository root — the BENCH_*.json files live here so CI artifact
#: globs and README pointers find them.
ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Copies land next to the human-readable result tables.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Timed runs per row; the row records their median, min and max.
REPEATS = 5


def provenance_block() -> dict[str, Any]:
    """The uniform ``_provenance`` block stamped into every label of a
    BENCH file.

    ``dirty`` is true when ``src/`` differs from ``git_commit`` (the
    numbers then come from uncommitted code), ``None`` without git."""
    commit = dirty = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
        commit = proc.stdout.strip() or None
        if commit is not None:
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=5,
            )
            dirty = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        commit = dirty = None
    return {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "dirty": dirty,
    }


def merge_bench_json(name: str, label: str, rows: dict[str, Any]) -> pathlib.Path:
    """Merge one experiment's ``rows`` under ``label`` into
    ``BENCH_<name>.json`` (root + results copy), stamped with their own
    ``_provenance`` block.  Entries a filtered run did not regenerate
    keep theirs; a file-wide block of an older file is first copied into
    each label that has none, so those rows keep the commit that
    measured them."""
    path = ROOT / f"BENCH_{name}.json"
    results: dict[str, Any] = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except (ValueError, OSError):
            results = {}
    shared = results.pop("_provenance", None)
    if shared is not None:
        for block in results.values():
            if isinstance(block, dict):
                block.setdefault("_provenance", shared)
    results[label] = {**rows, "_provenance": provenance_block()}
    text = json.dumps(results, indent=2) + "\n"
    path.write_text(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / path.name).write_text(text)
    return path


def iter_rates(
    data: Any, prefix: tuple[str, ...] = ()
) -> Iterator[tuple[tuple[str, ...], float]]:
    """Yield ``(path, states_per_second)`` for every row holding one.

    Walks nested dicts/lists; ``_provenance`` blocks are skipped so a
    regenerated file never "regresses" against its own metadata."""
    if isinstance(data, dict):
        rate = data.get("states_per_second")
        if isinstance(rate, (int, float)):
            yield prefix, float(rate)
        for key, value in data.items():
            if key == "_provenance":
                continue
            yield from iter_rates(value, prefix + (str(key),))
    elif isinstance(data, list):
        for index, value in enumerate(data):
            yield from iter_rates(value, prefix + (str(index),))


def baseline_delta_lines(
    baseline: dict[str, Any] | None, label: str, rows: Any
) -> list[str]:
    """Human-readable throughput deltas of ``rows`` against a baseline
    file's matching ``label`` entry (empty when there is no baseline or
    no overlapping rows)."""
    if not baseline or label not in baseline:
        return []
    current = dict(iter_rates(rows))
    old = dict(iter_rates(baseline[label]))
    lines: list[str] = []
    for path, new_rate in current.items():
        old_rate = old.get(path)
        if not old_rate:
            continue
        delta = (new_rate - old_rate) / old_rate
        where = "/".join(path) or label
        lines.append(
            f"  vs baseline {where}: {old_rate:,.0f} -> {new_rate:,.0f} "
            f"states/s ({delta:+.1%})"
        )
    if lines:
        lines.insert(0, "")
    return lines


def fiveess_system(calls_per_line: int = 1):
    """Bounded 5ESS: the call-processing app with 2 lines,
    ``calls_per_line`` calls each, closed, without the maintenance
    process."""
    from repro.fiveess import build_app

    app = build_app(n_lines=2, calls_per_line=calls_per_line)
    return app.make_system(app.close(), with_maintenance=False)


def timed_repeats(
    build: Callable[[], Any], run: Callable[[Any], Any]
) -> tuple[Any, list[Any], dict[str, Any]]:
    """Call ``run(build())`` ``REPEATS`` times, timing ``run`` only.

    Returns the median run's result, every result in call order, and
    the row's timing fields: ``repeats``, ``wall_time_s`` (the median),
    ``wall_time_min_s`` and ``wall_time_max_s``."""
    runs = []
    for _ in range(REPEATS):
        operand = build()
        started = time.perf_counter()
        result = run(operand)
        runs.append((time.perf_counter() - started, result))
    ordered = sorted(runs, key=lambda run: run[0])
    elapsed, median = ordered[len(ordered) // 2]
    return median, [result for _, result in runs], {
        "repeats": REPEATS,
        "wall_time_s": round(elapsed, 4),
        "wall_time_min_s": round(ordered[0][0], 4),
        "wall_time_max_s": round(ordered[-1][0], 4),
    }


def timed_search(build: Callable[[], Any], options: Any) -> tuple[Any, dict[str, Any]]:
    """Search a freshly built system ``REPEATS`` times under ``options``
    (:func:`timed_repeats`; building the system is not timed).

    Returns the median run's report and the row's timing fields.
    Asserts that every run reports the same summary."""
    # Imported here so check_regression.py runs without the package.
    from repro import run_search

    report, reports, timing = timed_repeats(build, lambda system: run_search(system, options))
    assert len({report.summary() for report in reports}) == 1
    return report, timing


def alternating_pairs(
    pairs: int, timed: Callable[[Any], float], first: Any, second: Any
) -> tuple[list[float], list[float]]:
    """Call ``timed(first)`` and ``timed(second)`` ``pairs`` times each,
    one of each per pair, ``first`` leading the even pairs and
    ``second`` the odd ones.

    ``timed`` returns the seconds it measured; the result is each
    side's times in call order, so ``zip`` pairs them up."""
    operands = (first, second)
    times: tuple[list[float], list[float]] = ([], [])
    for pair in range(pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            times[side].append(timed(operands[side]))
    return times


def spread(times: list[float]) -> dict[str, float]:
    """A row's timing fields from its timed runs: ``wall_time_s`` (the
    median), ``wall_time_min_s`` and ``wall_time_max_s``."""
    return {
        "wall_time_s": round(statistics.median(times), 4),
        "wall_time_min_s": round(min(times), 4),
        "wall_time_max_s": round(max(times), 4),
    }
