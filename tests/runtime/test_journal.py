"""Tests for the undo journal and Run checkpoint/restore.

The contract under test is the one restore-based backtracking depends
on: restoring a checkpoint must reproduce the checkpointed state
*bit-identically* — the same ``state_fingerprint()`` as re-executing the
same prefix in a fresh run — in O(changes since), and must be repeatable
(restore twice from the same checkpoint) and crash-safe (restore across
a state that crashed or diverged).
"""

import pytest

from repro import System
from repro.runtime.journal import RunCheckpoint, UndoJournal
from repro.runtime.process import Process, ProcessStatus

PINGPONG = """
proc ping(n) {
    var i = 0;
    while (i < n) {
        send(ab, i);
        var r;
        r = recv(ba);
        i = i + 1;
    }
}
proc pong(n) {
    var i = 0;
    while (i < n) {
        var v;
        v = recv(ab);
        send(ba, v + 100);
        i = i + 1;
    }
}
"""

RICH_STATE = """
proc main(n) {
    var r = record();
    r.count = 0;
    var arr[3];
    var i = 0;
    while (i < n) {
        arr[i] = i * 10;
        r.count = r.count + 1;
        sem_p(gate);
        write(sv, i);
        send(out, r.count);
        sem_v(gate);
        i = i + 1;
    }
}
"""


def pingpong_system(n=2):
    system = System(PINGPONG)
    system.add_channel("ab", capacity=1)
    system.add_channel("ba", capacity=1)
    system.add_process("ping", "ping", [n])
    system.add_process("pong", "pong", [n])
    return system


def rich_system(n=3):
    system = System(RICH_STATE)
    system.add_semaphore("gate", initial=1)
    system.add_shared("sv", initial=0)
    system.add_env_sink("out", visible_in_state=True)
    system.add_process("main", "main", [n])
    return system


def step_visible(run, count):
    """Execute ``count`` visible operations in fixed (first-enabled) order,
    answering tosses with 0.  Returns the number actually executed."""
    executed = 0
    while executed < count:
        pending = run.toss_pending()
        if pending is not None:
            run.answer_toss(pending, 0)
            continue
        enabled = run.enabled_processes()
        if not enabled:
            break
        run.execute_visible(enabled[0])
        executed += 1
    return executed


class TestUndoJournalUnits:
    def test_cell_rewind(self):
        from repro.runtime.values import Cell

        journal = UndoJournal()
        cell = Cell(1)
        mark = journal.mark()
        journal.record_cell(cell)
        cell.value = 2
        journal.rewind(mark)
        assert cell.value == 1

    def test_attr_rewind(self):
        class Obj:
            count = 5

        journal = UndoJournal()
        obj = Obj()
        mark = journal.mark()
        journal.record_attr(obj, "count")
        obj.count = 0
        journal.rewind(mark)
        assert obj.count == 5

    def test_dict_new_key_rewind(self):
        journal = UndoJournal()
        mapping = {"a": 1}
        mark = journal.mark()
        journal.record_new_key(mapping, "b")
        mapping["b"] = 2
        journal.rewind(mark)
        assert mapping == {"a": 1}

    def test_append_and_popleft_rewind(self):
        from collections import deque

        journal = UndoJournal()
        queue = deque([1, 2])
        mark = journal.mark()
        journal.record_append(queue)
        queue.append(3)
        value = queue.popleft()
        journal.record_popleft(queue, value)
        journal.rewind(mark)
        assert list(queue) == [1, 2]

    def test_rewind_is_lifo(self):
        from repro.runtime.values import Cell

        journal = UndoJournal()
        cell = Cell(0)
        mark = journal.mark()
        for value in (1, 2, 3):
            journal.record_cell(cell)
            cell.value = value
        journal.rewind(mark)
        assert cell.value == 0

    def test_partial_rewind_to_intermediate_mark(self):
        from repro.runtime.values import Cell

        journal = UndoJournal()
        cell = Cell(0)
        journal.record_cell(cell)
        cell.value = 1
        mid = journal.mark()
        journal.record_cell(cell)
        cell.value = 2
        journal.rewind(mid)
        assert cell.value == 1

    def test_forward_rewind_rejected(self):
        journal = UndoJournal()
        with pytest.raises(ValueError):
            journal.rewind(1)

    def test_telemetry_counters(self):
        from repro.runtime.values import Cell

        journal = UndoJournal()
        cell = Cell(0)
        mark = journal.mark()
        journal.record_cell(cell)
        journal.record_cell(cell)
        journal.rewind(mark)
        journal.rewind(mark)  # empty rewind still counts as a restore
        assert journal.entries_recorded == 2
        assert journal.entries_undone == 2
        assert journal.restores == 2
        assert journal.peak_entries == 2
        assert journal.peak_memory_bytes() > 0


class TestRunCheckpointRestore:
    def test_unjournaled_run_refuses_checkpoint(self):
        run = pingpong_system().start()
        with pytest.raises(RuntimeError):
            run.checkpoint()

    def test_restore_matches_fresh_reexecution(self):
        """The core bit-identical contract, probed at every prefix depth."""
        system = pingpong_system(n=2)
        # Reference fingerprints from plain (journal-free) execution.
        reference = []
        ref_run = system.start()
        ref_run.start_processes()
        reference.append(ref_run.state_fingerprint())
        while step_visible(ref_run, 1):
            reference.append(ref_run.state_fingerprint())

        run = system.start(journal=True)
        run.start_processes()
        checkpoints = [run.checkpoint()]
        while step_visible(run, 1):
            checkpoints.append(run.checkpoint())
        assert len(checkpoints) == len(reference)

        # Restore to successively shallower depths (an undo journal only
        # rewinds to *ancestors* — DFS backtracking order), repeating one
        # depth to prove restore-from-the-same-checkpoint is idempotent.
        last = len(reference) - 1
        for depth in [last, last, len(reference) // 2, 1, 0, 0]:
            run.restore(checkpoints[depth])
            assert run.state_fingerprint() == reference[depth]

    def test_restore_then_reexecute_matches(self):
        """After a restore the run must be *live*: executing forward again
        reproduces exactly the states the first pass saw."""
        system = rich_system(n=3)
        run = system.start(journal=True)
        run.start_processes()
        base = run.checkpoint()
        first_pass = []
        while step_visible(run, 1):
            first_pass.append(run.state_fingerprint())
        run.restore(base)
        second_pass = []
        while step_visible(run, 1):
            second_pass.append(run.state_fingerprint())
        assert second_pass == first_pass

    def test_rich_state_round_trip(self):
        """Records, arrays, semaphores, shared vars and sink outputs all
        rewind — including sink output traces and record field creation."""
        system = rich_system(n=3)
        run = system.start(journal=True)
        run.start_processes()
        cp = run.checkpoint()
        fp_before = run.state_fingerprint()
        step_visible(run, 6)
        assert run.state_fingerprint() != fp_before
        run.restore(cp)
        assert run.state_fingerprint() == fp_before
        assert run.objects["out"].outputs == []
        assert run.objects["gate"].count == 1
        assert run.objects["sv"].value == 0

    def test_restore_cost_is_o_changes_not_o_depth(self):
        """Restoring one step back near the end of a long run must undo
        only the entries of that step, not replay/undo the whole path."""
        system = pingpong_system(n=20)
        run = system.start(journal=True)
        run.start_processes()
        step_visible(run, 70)
        late = run.checkpoint()
        undone_before = run.journal.entries_undone
        step_visible(run, 1)
        run.restore(late)
        undone = run.journal.entries_undone - undone_before
        assert 0 < undone < 20  # one recv+locals, nowhere near the path total

    def test_restore_across_crash(self):
        system = System(
            """
            proc main() {
                var p = 1;
                send(out, p);
                VS_assert(1 / 0);
            }
            """
        )
        system.add_env_sink("out")
        system.add_process("main", "main", [])
        run = system.start(journal=True)
        run.start_processes()
        cp = run.checkpoint()
        fp = run.state_fingerprint()
        step_visible(run, 2)  # second op crashes (division by zero)
        assert run.processes[0].status is ProcessStatus.CRASHED
        run.restore(cp)
        assert run.processes[0].status is ProcessStatus.AT_VISIBLE
        assert run.processes[0].crash is None
        assert run.state_fingerprint() == fp
        # And the run is live again after the restore.
        assert step_visible(run, 1) == 1

    def test_checkpoint_reports_memory(self):
        run = pingpong_system().start(journal=True)
        run.start_processes()
        cp = run.checkpoint()
        assert isinstance(cp, RunCheckpoint)
        assert cp.approx_bytes > 0


#: Three workers over a semaphore, a shared variable and a sink that
#: is part of the state, plus a process that crashes on its second
#: visible operation.
WORKERS = """
proc worker(id, n) {
    var i = 0;
    while (i < n) {
        sem_p(lock);
        write(sv, id * 10 + i);
        sem_v(lock);
        send(out, i);
        i = i + 1;
    }
}
proc crasher() {
    var z = 0;
    send(out, 1);
    VS_assert(1 / z);
}
"""

#: A pointer program: it gets no fingerprinter, so ``state_key``
#: recomputes in full.
POINTER_WORKERS = """
proc worker(id, n) {
    var x = 0;
    var p;
    p = &x;
    while (x < n) {
        *p = x + 1;
        send(out, id * 10 + x);
    }
}
"""


def workers_system(source=WORKERS):
    system = System(source)
    system.add_env_sink("out", visible_in_state=True)
    for name in ("w1", "w2", "w3"):
        system.add_process(name, "worker", [int(name[1]), 3])
    if "crasher" in source:
        system.add_semaphore("lock", initial=1)
        system.add_shared("sv", initial=0)
        system.add_process("crash", "crasher", [])
    return system


def live_snapshot(process):
    """A process's snapshot rebuilt from its live state (not the memo)."""
    return (process.status, process.pending, process.crash, process.engine.snapshot())


class TestMovedOnlyRestore:
    """``Run.restore`` skips a process whose memoised snapshot is the
    checkpoint's: it has not stepped since the checkpoint.  The state,
    its key and every snapshot must still come back exactly."""

    @pytest.fixture()
    def restored(self, monkeypatch):
        """Record the names of the processes each restore rewinds."""
        names = []
        original = Process.restore

        def restore(process, snap):
            names.append(process.name)
            original(process, snap)

        monkeypatch.setattr(Process, "restore", restore)
        return names

    def checkpointed(self, system, engine):
        run = system.start(journal=True, engine=engine)
        run.start_processes()
        step_visible(run, 3)  # w1 takes and releases the lock
        run.state_key()  # the fingerprinter's memo now holds bytes
        checkpoint = run.checkpoint()
        expected = (
            run.state_fingerprint(),
            run.state_key(),
            [live_snapshot(p) for p in run.processes],
        )
        return run, checkpoint, expected

    def assert_restored(self, run, checkpoint, expected):
        run.restore(checkpoint)
        assert run.state_fingerprint() == expected[0]
        assert run.state_key() == expected[1]
        assert [live_snapshot(p) for p in run.processes] == expected[2]
        assert [p.snapshot() for p in run.processes] == list(checkpoint.processes)

    @pytest.mark.parametrize("engine", ["walk", "compiled"])
    def test_only_the_moved_process_is_restored(self, engine, restored):
        run, checkpoint, expected = self.checkpointed(workers_system(), engine)
        assert run.fingerprinter is not None
        mover = run.process_map["w2"]
        assert mover.enabled()
        run.execute_visible(mover)
        assert run.state_key() != expected[1]
        self.assert_restored(run, checkpoint, expected)
        assert restored == ["w2"]
        # Nothing moved since: restoring again from the same checkpoint
        # rewinds no process and changes nothing.
        self.assert_restored(run, checkpoint, expected)
        assert restored == ["w2"]

    @pytest.mark.parametrize("engine", ["walk", "compiled"])
    def test_restore_after_a_crash(self, engine, restored):
        run, checkpoint, expected = self.checkpointed(workers_system(), engine)
        crasher = run.process_map["crash"]
        while crasher.status is ProcessStatus.AT_VISIBLE:
            run.execute_visible(crasher)
        assert crasher.status is ProcessStatus.CRASHED
        self.assert_restored(run, checkpoint, expected)
        assert restored == ["crash"]
        assert crasher.crash is None

    @pytest.mark.parametrize("engine", ["walk", "compiled"])
    def test_restore_across_several_moves(self, engine, restored):
        run, checkpoint, expected = self.checkpointed(workers_system(), engine)
        for name in ("w2", "w1", "crash", "w2"):
            run.execute_visible(run.process_map[name])
        self.assert_restored(run, checkpoint, expected)
        assert sorted(restored) == ["crash", "w1", "w2"]

    def test_pointer_program_without_fingerprinter(self, restored):
        system = workers_system(POINTER_WORKERS)
        assert system.uses_pointers()
        run, checkpoint, expected = self.checkpointed(system, "compiled")
        assert run.fingerprinter is None and run.engine == "walk"
        run.execute_visible(run.process_map["w3"])
        self.assert_restored(run, checkpoint, expected)
        assert restored == ["w3"]
        self.assert_restored(run, checkpoint, expected)
        assert restored == ["w3"]
