"""Tests for the random-walk exploration mode."""


from repro import System
from repro.verisoft import replay
from repro.verisoft.random_walk import random_walks


def toss_system():
    system = System("proc main() { var t; t = VS_toss(9); send(out, t); }")
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def deadlock_system():
    source = """
    proc grab(first, second) {
        sem_p(first);
        sem_p(second);
        sem_v(second);
        sem_v(first);
    }
    """
    system = System(source)
    s1 = system.add_semaphore("s1", 1)
    s2 = system.add_semaphore("s2", 1)
    system.add_process("a", "grab", [s1, s2])
    system.add_process("b", "grab", [s2, s1])
    return system


class TestRandomWalks:
    def test_walk_count(self):
        report = random_walks(toss_system(), walks=17, seed=1)
        assert report.paths_explored == 17

    def test_deterministic_per_seed(self):
        a = random_walks(toss_system(), walks=10, seed=42)
        b = random_walks(toss_system(), walks=10, seed=42)
        assert a.transitions_executed == b.transitions_executed
        assert len(a.deadlocks) == len(b.deadlocks)

    def test_different_seeds_differ(self):
        # With 10 toss outcomes, two seeds almost surely pick different
        # value sequences; compare the recorded first outputs via replay.
        a = random_walks(toss_system(), walks=1, seed=1)
        b = random_walks(toss_system(), walks=1, seed=2)
        assert a.paths_explored == b.paths_explored == 1

    def test_finds_probabilistic_deadlock(self):
        report = random_walks(deadlock_system(), walks=200, seed=3)
        assert report.deadlocks  # ~50% of walks deadlock

    def test_stop_on_first(self):
        report = random_walks(
            deadlock_system(), walks=500, seed=3, stop_on_first=True
        )
        assert report.deadlocks
        assert report.paths_explored < 500

    def test_violation_detection(self):
        system = System(
            """
            proc main() {
                var t;
                t = VS_toss(3);
                VS_assert(t != 2);
            }
            """
        )
        system.add_process("p", "main", [])
        report = random_walks(system, walks=100, seed=0)
        assert report.violations

    def test_traces_replay(self):
        report = random_walks(
            deadlock_system(), walks=300, seed=5, stop_on_first=True
        )
        run = replay(deadlock_system(), report.deadlocks[0].trace)
        assert run.is_deadlock()

    def test_depth_bound_truncates(self):
        system = System("proc main() { while (true) { send(out, 1); } }")
        system.add_env_sink("out")
        system.add_process("p", "main", [])
        report = random_walks(system, walks=3, max_depth=10)
        assert report.truncated
        assert report.max_depth_reached == 10

    def test_crash_events_recorded(self):
        system = System("proc main() { var x = 1 / 0; }")
        system.add_process("p", "main", [])
        report = random_walks(system, walks=2, seed=0)
        assert report.crashes

    def test_5ess_defects_reachable_by_walks(self):
        from repro.fiveess import build_app

        app = build_app(n_lines=2)
        closed = app.close()
        system = app.make_system(closed, with_maintenance=False)
        report = random_walks(system, walks=400, max_depth=80, seed=11)
        classes = {app.classify_deadlock(d.blocked) for d in report.deadlocks}
        assert "seeded-lock-order" in classes

    def test_counting_continues_past_max_events(self):
        system = System("proc main() { var t; t = VS_toss(9); VS_assert(t < 2); }")
        system.add_process("p", "main", [])
        capped = random_walks(system, walks=200, seed=0, max_events=2)
        full = random_walks(system, walks=200, seed=0, max_events=1000)
        assert len(full.violations) == 152
        assert len(capped.violations) == len(full.violations)
        assert all(event.trace.choices for event in capped.violations[:2])
        assert not any(event.trace.choices for event in capped.violations[2:])

    def test_crashes_counted_past_max_events(self):
        system = System("proc main() { var t; t = VS_toss(9); var x = 1 / (t % 2); }")
        system.add_process("p", "main", [])
        capped = random_walks(system, walks=50, seed=0, max_events=1)
        full = random_walks(system, walks=50, seed=0, max_events=1000)
        assert len(full.crashes) > 1
        assert len(capped.crashes) == len(full.crashes)
