"""``Run.checkpoint`` against a snapshot of every process.

A run keeps the snapshot tuple of its last checkpoint or restore and the
set of processes resumed since (by ``execute_visible`` and
``answer_toss``), and a checkpoint re-snapshots only those.  So a
process that moved without being marked would keep its old snapshot,
and a restore to that checkpoint would silently rewind it to a stale
control state.  Here every checkpoint of a restore-mode search, and the
run's kept tuple right after every restore, must hold the very objects
``tuple(p.snapshot() for p in run.processes)`` gives (``is``, entry by
entry), and its ``approx_bytes`` must equal the full accounting formula.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchOptions, run_search
from repro.runtime.system import Run
from tests.statespace.test_parts_key import pointer_system
from tests.verisoft.test_fuzz_differential import random_system
from tests.verisoft.test_incremental_analysis import fiveess_system


def check_snapshots(checkpoint, run) -> None:
    """``checkpoint`` holds every process's current snapshot and the
    accounting bytes of the full pass over them."""
    snapshots = tuple(process.snapshot() for process in run.processes)
    assert len(checkpoint.processes) == len(snapshots)
    for kept, fresh in zip(checkpoint.processes, snapshots):
        assert kept is fresh
    assert checkpoint.approx_bytes == 96 + sum(
        112 + 56 * len(snap[3][0]) for snap in snapshots
    )


@contextmanager
def checked():
    """Check every ``Run.checkpoint`` and, right after every
    ``Run.restore``, the run's kept snapshots; yields the counts."""
    counts = {"checkpoints": 0, "restores": 0}
    original_checkpoint = Run.checkpoint
    original_restore = Run.restore

    def checkpoint(run):
        taken = original_checkpoint(run)
        check_snapshots(taken, run)
        counts["checkpoints"] += 1
        return taken

    def restore(run, taken):
        moved = original_restore(run, taken)
        # Nothing moved since the restore: a checkpoint now returns the
        # tuple the restore left behind.
        check_snapshots(original_checkpoint(run), run)
        counts["restores"] += 1
        return moved

    # Patched by hand, not through pytest's monkeypatch: Hypothesis runs
    # many examples within one test call.
    Run.checkpoint = checkpoint
    Run.restore = restore
    try:
        yield counts
    finally:
        Run.checkpoint = original_checkpoint
        Run.restore = original_restore


def checked_search(system, **options):
    with checked() as counts:
        report = run_search(system, SearchOptions(backtrack="restore", **options))
    assert report.stats.backtrack == "restore"
    assert counts["restores"] == report.stats.restores
    return report, counts


@pytest.mark.parametrize("engine", ["walk", "compiled"])
def test_bounded_fiveess(engine):
    report, counts = checked_search(fiveess_system(), max_depth=12, engine=engine)
    assert counts["checkpoints"] > 0 and counts["restores"] > 0
    assert report.toss_points > 0


def test_pointer_program():
    _, counts = checked_search(pointer_system(), max_depth=20, engine="walk")
    assert counts["restores"] > 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    engine=st.sampled_from(["walk", "compiled"]),
)
def test_random_systems(seed, engine):
    checked_search(random_system(seed), max_depth=14, max_transitions=4000, engine=engine)
