"""Tests for worker health in the parallel driver: the coordinator's
per-worker record, stall detection and recovery, and the per-worker
ticker lines, all fed by beats on the one result queue."""

import re

from repro import SearchOptions, System, run_search
from repro.verisoft.parallel import _inflight, _worker_lines, _WorkerHandle


def handle(label="w0"):
    return _WorkerHandle(None, None, label)


def lease(seq):
    return ((seq,), seq, None)


class TestWorkerHealth:
    """The coordinator's record of one worker."""

    def test_start_claims_prefix(self):
        record = handle()
        record.assign(lease(3), now=1.0)
        record.beat(5, 9, now=2.0)
        record.release(False, now=3.0)
        record.assign(lease(4), now=4.0)
        assert record.holds(4) and not record.holds(3)
        assert (record.states, record.transitions) == (0, 0)
        assert record.last_progress == 4.0

    def test_counters_moving_is_progress(self):
        record = handle()
        record.assign(lease(0), now=1.0)
        record.beat(5, 9, now=2.0)
        assert record.last_progress == 2.0
        # Same counters again: a beat, but no progress.
        record.beat(5, 9, now=9.0)
        assert record.last_progress == 2.0
        assert (record.states, record.transitions) == (5, 9)

    def test_done_frees_worker(self):
        record = handle()
        record.assign(lease(0), now=1.0)
        record.release(True, now=2.0)
        assert record.assigned is None
        assert (record.leases_done, record.stolen_from) == (1, 1)
        assert record.describe(now=3.0) == "worker w0: idle (1 lease(s) done)"

    def test_describe_busy_line(self):
        record = handle("w2")
        record.assign(lease(2), now=1.0)
        record.beat(7, 11, now=2.0)
        line = record.describe(now=5.0)
        assert "worker w2" in line
        assert "lease 2" in line
        assert "states=7" in line
        assert "transitions=11" in line
        assert "3.0s ago" in line


class TestMonitor:
    """What the coordinator watches over its records: stalls, in-flight
    totals, ticker lines."""

    def test_stall_fires_once_then_recovery(self):
        record = handle()
        record.assign(lease(0), now=0.0)
        record.beat(3, 3, now=1.0)
        assert record.stall_warning(10.0, now=5.0) is None
        warning = record.stall_warning(10.0, now=20.0)
        assert "worker w0 has made no progress for 19.0s" in warning
        # Stalled stays flagged; no duplicate warning.
        assert record.stall_warning(10.0, now=30.0) is None
        assert "STALLED" in record.describe(now=30.0)
        # Repeated counters are no recovery; moving ones are.
        assert record.beat(3, 3, now=31.0) is None
        assert "recovered" in record.beat(4, 4, now=32.0)
        assert record.stall_warning(10.0, now=33.0) is None
        # A new episode warns again; committing the lease recovers it.
        assert record.stall_warning(10.0, now=50.0) is not None
        assert "recovered" in record.release(False, now=51.0)

    def test_none_timeout_disables_detection(self):
        record = handle()
        record.assign(lease(0), now=0.0)
        assert record.stall_warning(None, now=1e9) is None

    def test_idle_workers_never_stall(self):
        record = handle()
        record.assign(lease(0), now=0.0)
        record.release(False, now=1.0)
        assert record.stall_warning(1.0, now=100.0) is None

    def test_inflight_sums_busy_workers_only(self):
        busy, done = handle("w0"), handle("w1")
        busy.assign(lease(0), now=0.0)
        busy.beat(5, 8, now=1.0)
        done.assign(lease(1), now=0.0)
        done.beat(3, 4, now=1.0)
        done.release(False, now=2.0)
        assert _inflight({0: busy, 1: done}) == (5, 8)

    def test_lines_ordered_by_worker(self):
        workers = {7: handle("w7"), 3: handle("w3")}
        lines = _worker_lines(workers, now=1.0)
        assert lines[0].startswith("worker w3")
        assert lines[1].startswith("worker w7")


class RecordingProgress:
    """A progress callback with the printer's ``warn``/``worker_lines``."""

    def __init__(self):
        self.warnings = []
        self.lines = []

    def __call__(self, stats):
        pass

    def warn(self, message):
        self.warnings.append(message)

    def worker_lines(self, lines):
        self.lines.append(list(lines))


def slow_path_system():
    """Three paths, each far longer than the stall timeout plus the
    coordinator's 0.05 s poll: five sends, each after an invisible
    loop kept under the divergence budget."""
    system = System(
        """
        proc spin() {
            var t; var round = 0;
            t = VS_toss(2);
            while (round < 5) {
                var i = 0;
                while (i < 25000) { i = i + 1; }
                send(out, t);
                round = round + 1;
            }
        }
        """
    )
    system.add_env_sink("out")
    system.add_process("p", "spin", [])
    return system


class TestEndToEnd:
    def test_stalls_recoveries_and_worker_lines_reach_the_printer(self):
        options = SearchOptions(engine="compiled")
        sequential = run_search(slow_path_system(), options)
        progress = RecordingProgress()
        report = run_search(
            slow_path_system(),
            options,
            strategy="parallel",
            scheduler="steal",
            jobs=2,
            stall_timeout=0.03,
            progress_interval=0.02,
            progress=progress,
        )
        assert report.summary() == sequential.summary()
        assert report.states_visited == sequential.states_visited
        assert report.transitions_executed == sequential.transitions_executed
        assert any("no progress" in w for w in progress.warnings)
        # A beat's moving counters end the stall before the lease commits.
        assert any(re.search(r"recovered .*states=[1-9]", w) for w in progress.warnings)
        assert any(line.startswith("worker ") for lines in progress.lines for line in lines)
