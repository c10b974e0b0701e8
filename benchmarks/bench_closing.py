"""Experiment BENCH-CLOSING — the closing pipeline against program size.

The paper's closing is one traversal of ``G_j`` and ``G~_j``,
"essentially linear" in their size (§4).  This experiment times the
whole pipeline that turns source text into a runnable closed system —
parse, CFG construction, alias and def-use analysis, Steps 2–5, then
``System`` and ``compiled_program()`` (perfbench's ``close_runnable``,
the unit of its ``close-sized`` workload) — on
``generate_sized_program(n, 0)`` for the ladder of ``close-sized``.

Each row records, for one size:

* the median, min and max wall time of
  :data:`~benchmarks.bench_lib.REPEATS` runs
  (:func:`~benchmarks.bench_lib.timed_repeats`), each including the
  freeing of its closed system;
* ``layers_s``: the per-layer self times of one traced run, from
  perfbench's spans (:func:`perfbench.layers.hooked`), named as
  perfbench names them; ``setup.other_s`` is the wall time the named
  layers do not cover;
* ``cfg_size`` (CFG nodes plus arcs) and ``defuse_arcs``;
* ``gc_passes`` and ``gc_collected``: the cyclic collector's passes
  and the objects they freed during one untimed run, per generation
  (young, middle, full), from ``gc.get_stats()``;
* ``retained_bytes`` and ``peak_bytes``: in one untimed run under
  ``tracemalloc``, the bytes that the returned system and closed
  program still hold after ``gc.collect()``, and the peak during the
  call.

Numbers land in the repo-root ``BENCH_closing.json`` with a copy under
``benchmarks/results/``.  Asserted: every run, the traced one too,
inserts and eliminates the same number of nodes and compiles, and at
every size the result retains at most :data:`RETAINED_PER_STATEMENT`
bytes per statement.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from benchmarks.bench_lib import merge_bench_json, timed_repeats
from perfbench.layers import Spans, hooked, setup_layers
from perfbench.workloads import CLOSE_SIZES, close_runnable
from repro.closing.generators import generate_sized_program

pytestmark = pytest.mark.slow

#: The most bytes per statement a runnable closed system may retain:
#: ``S'`` alone takes about 2,020 on CPython 3.11 and 3.12, and one
#: that also keeps the def-use graphs, the alias result and the open
#: CFGs takes about 4,000.
RETAINED_PER_STATEMENT = 2600


def _collector_passes(source: str) -> tuple[list[int], list[int]]:
    gc.collect()
    before = gc.get_stats()
    close_runnable(source)
    after = gc.get_stats()
    passes = [after[g]["collections"] - before[g]["collections"] for g in range(3)]
    freed = [after[g]["collected"] - before[g]["collected"] for g in range(3)]
    return passes, freed


def _memory(source: str) -> tuple[int, int]:
    """The tracemalloc bytes that ``close_runnable(source)``'s result
    holds after a full collection, and the peak during the call."""
    gc.collect()
    tracemalloc.start()
    try:
        result = close_runnable(source)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del result
    return retained, peak


def _answers(system, closed) -> tuple:
    return closed.toss_nodes_added, closed.nodes_eliminated, system.compiled_program() is not None


def _row(statements: int) -> dict:
    source = generate_sized_program(statements, 0)
    # Each run keeps only its answers, so no run's closed system is alive
    # during the next; the time includes freeing it.
    answers, runs, timing = timed_repeats(
        lambda: source, lambda text: _answers(*close_runnable(text))
    )
    assert set(runs) == {answers}

    spans = Spans()
    gc.collect()
    with hooked(spans), spans.span("setup") as root:
        system, closed = close_runnable(source)
    assert _answers(system, closed) == answers
    layers = setup_layers(spans, root, closed)
    del system, closed

    passes, freed = _collector_passes(source)
    retained, peak = _memory(source)
    return {
        "statements": statements,
        **timing,
        "layers_s": {
            name: round(value, 4) for name, value in layers.items() if name.endswith("_s")
        },
        "cfg_size": layers["cfg.size"],
        "defuse_arcs": layers["dataflow.defuse_arcs"],
        "gc_passes": passes,
        "gc_collected": freed,
        "retained_bytes": retained,
        "peak_bytes": peak,
    }


def test_bench_closing(record_table):
    rows = {str(n): _row(n) for n in CLOSE_SIZES}
    lines = [
        "Closing pipeline (close -> System -> compiled_program) against size",
        "",
        f"  {'stmts':>6} {'median':>8} {'min':>8} {'max':>8} {'parse':>7} "
        f"{'cfg':>7} {'units':>7} {'gc passes':>12} {'kept B/stmt':>12} {'peak':>8}",
    ]
    for label, row in rows.items():
        layers = row["layers_s"]
        lines.append(
            f"  {label:>6} {row['wall_time_s']:>7.3f}s {row['wall_time_min_s']:>7.3f}s "
            f"{row['wall_time_max_s']:>7.3f}s {layers['lang.parse_s']:>6.3f}s "
            f"{layers['cfg.build_s']:>6.3f}s {row['cfg_size'] + row['defuse_arcs']:>7} "
            f"{'/'.join(map(str, row['gc_passes'])):>12} "
            f"{row['retained_bytes'] / row['statements']:>12,.0f} "
            f"{row['peak_bytes'] / 2**20:>6.2f}MB"
        )
        merge_bench_json("closing", label, row)
    record_table("BENCH_closing", lines)
    over = {
        label: round(row["retained_bytes"] / row["statements"])
        for label, row in rows.items()
        if row["retained_bytes"] > RETAINED_PER_STATEMENT * row["statements"]
    }
    assert not over, (
        f"retained bytes per statement above {RETAINED_PER_STATEMENT}: {over}"
    )
