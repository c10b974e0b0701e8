"""Coverage under moved-only re-anchoring, against replay.

After a checkpoint restore the coverage collector re-anchors the
control-context parser of each process the rewind changed, and only
those (``CoverageCollector.on_restore``): a process the rewind skipped
has not stepped since the checkpoint, so its parser still stands where
the checkpoint left it.  Replay backtracking re-executes every prefix
instead and never re-anchors, so its counters are the reference.  On
bounded 5ESS at depth 12 (10 processes) most restores rewind only a
few processes, so the skip is exercised thousands of times.
"""

from repro import SearchOptions, run_search
from repro.runtime.system import Run
from tests.verisoft.test_incremental_analysis import fiveess_system

from .test_coverage import cov_key


def test_fiveess_restore_matches_replay(monkeypatch):
    rewound = []
    original = Run.restore

    def restore(run, checkpoint):
        moved = original(run, checkpoint)
        rewound.append((len(moved), len(run.processes)))
        return moved

    monkeypatch.setattr(Run, "restore", restore)
    options = dict(coverage=True, max_depth=12)
    restored = run_search(fiveess_system(), SearchOptions(backtrack="restore", **options))
    replayed = run_search(fiveess_system(), SearchOptions(backtrack="replay", **options))
    assert restored.stats.restores == len(rewound) > 0
    assert {total for _, total in rewound} == {10}
    # Moved-only re-anchoring really skips processes: most restores
    # rewind fewer than all ten.
    skipped = sum(moved < total for moved, total in rewound)
    assert skipped > len(rewound) // 2
    assert restored.summary() == replayed.summary()
    assert cov_key(restored) == cov_key(replayed)
    assert restored.coverage.nodes_covered > 0
