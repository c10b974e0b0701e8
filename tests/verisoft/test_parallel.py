"""Tests for parallel stateless exploration (repro.verisoft.parallel).

The partition scheme must be *exact*: splitting the tree into subtree
leases, completing each independently and merging the reports has to
reproduce the sequential DFS report counter for counter and event for
event.  The
determinism tests pin that guarantee on the paper's Figure 2/3 programs.
"""

import pickle

import pytest

from tests.helpers import dfs_search
from repro import SearchOptions, System, close_program, run_search
from repro.verisoft import ChoicePrefix, merge_reports, parallel_search, prefix_key
from repro.verisoft.parallel import explore_lease

P_SRC = """
proc p(x) {
    var y = x % 2;
    var cnt = 0;
    while (cnt < 4) {
        if (y == 0) { send(out, 'even'); } else { send(out, 'odd'); }
        cnt = cnt + 1;
    }
}
"""

Q_SRC = """
proc q(x) {
    var cnt = 0;
    while (cnt < 4) {
        var y = x % 2;
        if (y == 0) { send(out, 'even'); } else { send(out, 'odd'); }
        x = x / 2;
        cnt = cnt + 1;
    }
}
"""


def toss_system(bound=3):
    system = System(
        f"proc main() {{ var t; t = VS_toss({bound}); send(out, t); }}"
    )
    system.add_env_sink("out")
    system.add_process("p", "main", [])
    return system


def closed_figure_system(source, proc):
    closed = close_program(source, env_params={proc: ["x"]})
    system = System(closed.cfgs)
    system.add_env_sink("out")
    system.add_process("P", proc, [])
    return system


def racing_system():
    """Two producers racing into one consumer: scheduling nondeterminism."""
    src = """
    proc producer(id) { send(c, id); }
    proc consumer() { var a; var b; a = recv(c); b = recv(c); send(out, a * 10 + b); }
    """
    system = System(src)
    system.add_env_sink("out")
    system.add_channel("c", capacity=1)
    system.add_process("p1", "producer", [1])
    system.add_process("p2", "producer", [2])
    system.add_process("con", "consumer", [])
    return system


def deadlock_system():
    src = """
    proc grab(first, second) {
        sem_p(first);
        sem_p(second);
        sem_v(second);
        sem_v(first);
    }
    """
    system = System(src)
    s1 = system.add_semaphore("s1", 1)
    s2 = system.add_semaphore("s2", 1)
    system.add_process("a", "grab", [s1, s2])
    system.add_process("b", "grab", [s2, s1])
    return system


def capped_system():
    system = System("proc main() { var t; t = VS_toss(3); VS_assert(t < 1); recv(c); }")
    system.add_channel("c", capacity=1)
    system.add_process("p", "main", [])
    return system


def lease_parts(build, splits, **options):
    """Cut the tree into lease parts by hand, as the static policy does:
    ``splits`` times, complete one path of the shallowest lease and turn
    the rest of it into leases (``harvest_residual``); then explore every
    remaining lease.  Returns the parts in DFS order."""
    pending = [((), None)]
    blocks = []
    for _ in range(splits):
        entry = min(pending, key=lambda e: (len(e[0]), e[0]))
        pending.remove(entry)
        report, residuals, _ = explore_lease(
            build(), entry[1], yield_check=lambda: True, **options
        )
        blocks.append((entry[0], report))
        pending += [(prefix_key(r), r) for r in residuals]
    for key, prefix in pending:
        blocks.append((key, explore_lease(build(), prefix, **options)[0]))
    return [report for _, report in sorted(blocks, key=lambda e: e[0])]


def split_once(system):
    """The residual prefixes left after one path of the whole tree."""
    _, residuals, _ = explore_lease(system, None, yield_check=lambda: True, max_depth=20)
    return residuals


class TestPrefixEnumeration:
    """The subtree prefixes ``harvest_residual`` enumerates for the rest
    of a split lease."""

    def test_prefixes_are_deterministic(self):
        first = split_once(toss_system(9))
        second = split_once(toss_system(9))
        assert first == second
        assert all(isinstance(p, ChoicePrefix) for p in first)

    def test_toss_fanout_reflected_in_prefix_count(self):
        # VS_toss(9) at the root: after the path through value 0, one
        # prefix per remaining value (9 of them).
        assert len(split_once(toss_system(9))) == 9

    def test_prefix_pins_every_decision(self):
        indices = [prefix_key(p) for p in split_once(deadlock_system())]
        # All distinct, in DFS order.
        assert len(set(indices)) == len(indices) > 1
        assert indices == sorted(indices)

    def test_describe_is_readable(self):
        assert split_once(toss_system(3))[0].describe() == "toss=1"
        texts = [p.describe() for p in split_once(deadlock_system())]
        assert "schedule='a' / schedule='b'" in texts


class TestManualMerge:
    """Drive the lease pipeline by hand (no workers) and demand parity."""

    @pytest.mark.parametrize("splits", [1, 2, 3])
    def test_merge_matches_sequential(self, splits):
        sequential = dfs_search(toss_system(9), max_depth=20, max_events=1000)
        parts = lease_parts(lambda: toss_system(9), splits, max_depth=20, max_events=1000)
        assert len(parts) == 10  # one path split off per round, the rest leased
        merged = merge_reports(parts, max_events=1000)
        assert merged.summary() == sequential.summary()

    def test_merge_matches_sequential_events(self):
        sequential = dfs_search(deadlock_system(), max_depth=20, max_events=1000)
        parts = lease_parts(deadlock_system, 2, max_depth=20, max_events=1000)
        merged = merge_reports(parts, max_events=1000)
        assert merged.summary() == sequential.summary()
        assert [str(d) for d in merged.deadlocks] == [
            str(d) for d in sequential.deadlocks
        ]

    def test_merge_respects_event_cap(self):
        # Every path deadlocks; three of the four also violate.  Past the
        # cap, deadlocks stop and violations keep counting without traces.
        sequential = dfs_search(capped_system(), max_depth=20, max_events=1)
        parts = lease_parts(capped_system, 1, max_depth=20, max_events=1)
        assert sum(len(part.deadlocks) for part in parts) == 4
        merged = merge_reports(parts, max_events=1)
        assert len(merged.deadlocks) == len(sequential.deadlocks) == 1
        assert len(merged.violations) == len(sequential.violations) == 3
        assert [bool(v.trace.choices) for v in merged.violations] == [True, False, False]

    def test_merged_stats_aggregate_workers(self):
        parts = lease_parts(
            lambda: closed_figure_system(P_SRC, "p"), 1, max_depth=40, backtrack="replay"
        )
        merged = merge_reports(parts, max_events=25)
        assert merged.stats is not None
        assert merged.stats.states_visited == merged.states_visited
        assert merged.stats.replays == sum(r.stats.replays for r in parts) > 0


class TestParallelSearch:
    @pytest.mark.parametrize(
        "make_system",
        [toss_system, racing_system, deadlock_system],
        ids=["toss", "racing", "deadlock"],
    )
    def test_matches_sequential_dfs(self, make_system):
        options = SearchOptions(max_depth=30, max_events=1000)
        sequential = run_search(make_system(), options)
        for jobs in (1, 2):
            parallel = run_search(
                make_system(),
                options,
                strategy="parallel",
                jobs=jobs,
            )
            assert parallel.summary() == sequential.summary(), f"jobs={jobs}"

    @pytest.mark.parametrize(
        "source,proc", [(P_SRC, "p"), (Q_SRC, "q")], ids=["figure2", "figure3"]
    )
    def test_jobs_1_and_4_identical_on_figures(self, source, proc):
        """The satellite determinism requirement: closed Figure 2/3
        programs searched with --jobs 1 and --jobs 4 merge identically."""
        options = SearchOptions(
            strategy="parallel", max_depth=40, max_events=1000, count_states=True
        )
        one = run_search(closed_figure_system(source, proc), options, jobs=1)
        four = run_search(closed_figure_system(source, proc), options, jobs=4)
        assert one.summary() == four.summary()
        assert one.paths_explored > 1  # the closing introduced real branching
        # And both equal the plain sequential DFS.
        sequential = run_search(
            closed_figure_system(source, proc),
            SearchOptions(max_depth=40, max_events=1000, count_states=True),
        )
        assert one.summary() == sequential.summary()

    def test_count_states_unions_fingerprints(self):
        options = SearchOptions(max_depth=30, count_states=True, max_events=1000)
        sequential = run_search(racing_system(), options)
        parallel = run_search(racing_system(), options, strategy="parallel", jobs=2)
        assert parallel.states_visited == sequential.states_visited

    def test_stop_on_first_reports_an_event(self):
        report = parallel_search(
            deadlock_system(),
            SearchOptions(strategy="parallel", jobs=2, stop_on_first=True, max_depth=20),
        )
        assert report.deadlocks
        assert not report.ok

    def test_stats_record_jobs_and_prefixes(self):
        report = parallel_search(
            toss_system(9), SearchOptions(strategy="parallel", jobs=2, max_depth=20)
        )
        assert report.stats.strategy == "parallel"
        assert report.stats.jobs == 2
        assert report.stats.prefixes >= 1
        assert report.stats.wall_time > 0

    def test_system_factory_escape_hatch(self):
        report = parallel_search(
            toss_system(9),
            SearchOptions(strategy="parallel", jobs=2, max_depth=20),
            system_factory=lambda: toss_system(9),
        )
        assert report.summary() == dfs_search(toss_system(9), max_depth=20).summary()


class TestStaticPolicy:
    def test_forked_split_is_deterministic_and_never_steals(self):
        # 2**7 paths: too many to finish while splitting, so leases are
        # handed to both workers.
        from tests.service.conftest import toss_loop_system

        options = SearchOptions(strategy="parallel", jobs=2, max_depth=40)
        sequential = dfs_search(toss_loop_system(7), max_depth=40)
        runs = [parallel_search(toss_loop_system(7), options) for _ in range(2)]
        for report in runs:
            assert report.summary() == sequential.summary()
            assert report.stats.steals == 0
            workers = report.worker_summary
            assert workers["w0"]["leases"] and workers["w1"]["leases"]
            assert sum(w["leases"] for w in workers.values()) == report.stats.leases
        assert runs[0].stats.leases == runs[1].stats.leases >= 32


class TestPicklability:
    def test_system_roundtrips_through_pickle(self):
        system = toss_system(3)
        clone = pickle.loads(pickle.dumps(system))
        assert dfs_search(clone).summary() == dfs_search(toss_system(3)).summary()

    def test_run_refuses_to_pickle(self):
        run = toss_system(3).start()
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(run)
