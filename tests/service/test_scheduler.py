"""The work-stealing scheduler: parity, suspension, crash recovery.

The headline contract: a steal-scheduled search — any number of
workers, any steal pattern, any crash/requeue history — produces a
merged report counter-for-counter identical to the sequential DFS,
excluding only the backtracking-cost group and the stealing counters
themselves (NON_PARITY_FIELDS in conftest).
"""

import pytest

from repro import SearchOptions, run_search
from repro.service import work_stealing_search
from repro.verisoft import SCHEDULERS, SearchStats

from .conftest import (
    assert_report_parity,
    deadlock_system,
    fig3_system,
    racing_system,
    toss_loop_system,
)


def _steal_options(jobs=1, **kwargs):
    kwargs.setdefault("count_states", True)
    kwargs.setdefault("max_depth", 40)
    return SearchOptions(
        strategy="parallel", scheduler="steal", jobs=jobs, **kwargs
    )


class TestSchedulerOption:
    def test_registry(self):
        assert SCHEDULERS == ("static", "steal")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            run_search(fig3_system(), SearchOptions(scheduler="lifo"))

    def test_scheduler_recorded_in_options_dict(self):
        options = _steal_options()
        assert options.as_dict()["scheduler"] == "steal"
        assert SearchOptions(**options.as_dict()).scheduler == "steal"


class TestInProcessParity:
    """jobs=1 runs the lease loop in-process — the reference for the
    multiprocess path and the fastest parity check."""

    @pytest.mark.parametrize(
        "make_system",
        [fig3_system, racing_system, deadlock_system],
        ids=["fig3", "racing", "deadlock"],
    )
    def test_matches_sequential_dfs(self, make_system):
        base = run_search(
            make_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=40),
        )
        report = run_search(make_system(), _steal_options(jobs=1))
        assert_report_parity(report, base)

    def test_stats_record_lease_counters(self):
        report = run_search(fig3_system(), _steal_options(jobs=1))
        assert report.stats.leases >= 1
        assert report.stats.steals == 0
        assert report.stats.leases_requeued == 0
        assert report.stats.jobs == 1
        assert report.worker_summary is not None
        assert report.worker_summary["w0"]["leases"] == report.stats.leases

    def test_stop_on_first_short_circuits(self):
        report = run_search(
            fig3_system(), _steal_options(jobs=1, stop_on_first=True)
        )
        assert not report.ok
        # Same convention as the sequential DFS: the report simply stops
        # early (no incomplete flag), having explored fewer paths.
        full = run_search(
            fig3_system(), SearchOptions(strategy="dfs", max_depth=40)
        )
        assert report.paths_explored < full.paths_explored

    def test_max_paths_budget_truncates(self):
        report = run_search(fig3_system(), _steal_options(jobs=1, max_paths=3))
        assert report.truncated
        assert report.paths_explored <= 4


class TestMultiprocessParity:
    def test_jobs_4_matches_sequential_and_steals(self):
        base = run_search(
            fig3_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=40),
        )
        report = run_search(fig3_system(), _steal_options(jobs=4))
        assert_report_parity(report, base)
        # With idle workers and one subtree, work must have been stolen.
        assert report.stats.steals >= 1
        assert report.stats.leases > 1
        assert report.worker_summary is not None
        assert (
            sum(w["leases"] for w in report.worker_summary.values())
            == report.stats.leases
        )

    def test_jobs_2_scheduling_nondeterminism_parity(self):
        base = run_search(
            racing_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=40),
        )
        report = run_search(racing_system(), _steal_options(jobs=2))
        assert_report_parity(report, base)

    def test_worker_summary_reaches_manifest(self):
        from repro.obs import build_manifest

        report = run_search(fig3_system(), _steal_options(jobs=2))
        manifest = build_manifest(report=report)
        assert manifest["report"]["workers"] == report.worker_summary


class TestSuspension:
    def test_suspend_yields_checkpoint_and_partial_report(self):
        calls = [0]

        def stop_soon():
            calls[0] += 1
            return calls[0] >= 2

        report = work_stealing_search(
            fig3_system(), _steal_options(jobs=1), should_suspend=stop_soon
        )
        assert report.incomplete
        assert report.checkpoint is not None
        assert not report.checkpoint.done()
        assert report.paths_explored >= 1

    def test_resume_completes_identically(self):
        base = run_search(
            fig3_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=40),
        )
        calls = [0]

        def stop_soon():
            calls[0] += 1
            return calls[0] >= 2

        partial = work_stealing_search(
            fig3_system(), _steal_options(jobs=1), should_suspend=stop_soon
        )
        final = work_stealing_search(
            fig3_system(), _steal_options(jobs=1), initial=partial.checkpoint
        )
        assert final.checkpoint is None
        assert_report_parity(final, base)

    def test_periodic_checkpoints_are_resumable(self):
        # Every on_checkpoint snapshot — taken while leases were still
        # in flight — must itself resume to the sequential result.
        base = run_search(
            fig3_system(),
            SearchOptions(strategy="dfs", count_states=True, max_depth=40),
        )
        snapshots = []
        work_stealing_search(
            fig3_system(),
            _steal_options(jobs=1),
            on_checkpoint=snapshots.append,
            checkpoint_interval=0.0,
        )
        assert snapshots
        probe = snapshots[len(snapshots) // 2]
        resumed = work_stealing_search(
            fig3_system(), _steal_options(jobs=1), initial=probe
        )
        assert_report_parity(resumed, base)

    @pytest.mark.parametrize(
        "make_system, budget",
        [(fig3_system, {"max_paths": 3}), (lambda: toss_loop_system(12), {"time_budget": 0.02})],
        ids=["max_paths", "time_budget"],
    )
    def test_budgeted_checkpoints_are_resumable(self, make_system, budget):
        # A lease cut short by a budget is not finished: no checkpoint
        # may record it as a completed block.  Resumed without the
        # budget, every checkpoint must finish the whole search.
        base = run_search(
            make_system(), SearchOptions(strategy="dfs", count_states=True, max_depth=40)
        )
        snapshots = []
        report = work_stealing_search(
            make_system(),
            _steal_options(jobs=1, **budget),
            on_checkpoint=snapshots.append,
            checkpoint_interval=0.0,
        )
        assert report.truncated
        if "time_budget" in budget:
            # A spent time budget suspends the search at a path boundary.
            assert report.incomplete and report.checkpoint is not None
            snapshots.append(report.checkpoint)
        else:
            assert report.checkpoint is None
        unbudgeted = {"max_paths": None, "time_budget": None}
        for snapshot in snapshots:
            snapshot.options = {**snapshot.options, **unbudgeted}
            resumed = work_stealing_search(
                make_system(), _steal_options(jobs=1), initial=snapshot
            )
            assert_report_parity(resumed, base)


@pytest.mark.slow
class TestCrashRecovery:
    """Satellite: SIGKILL a worker mid-subtree; the lease re-queues and
    the job completes with a report identical to the undisturbed run."""

    def test_killed_worker_lease_requeued_and_report_identical(self):
        system = toss_loop_system(rounds=6)
        base = run_search(
            system, SearchOptions(strategy="dfs", count_states=True, max_depth=60)
        )
        report = work_stealing_search(
            toss_loop_system(rounds=6),
            _steal_options(jobs=2, max_depth=60),
            kill_worker_after_paths=3,
        )
        assert report.stats.leases_requeued >= 1
        assert_report_parity(report, base)
        assert report.worker_summary is not None
        assert any(not w["alive"] for w in report.worker_summary.values())


class TestStatsSurface:
    def test_ticker_line_shows_steals_when_nonzero(self):
        stats = SearchStats(leases=5, steals=2, leases_requeued=1)
        line = stats.ticker_line()
        assert "steals=2" in line
        assert "requeued=1" in line

    def test_describe_shows_lease_block(self):
        stats = SearchStats(leases=5, steals=2, leases_requeued=1)
        assert "work stealing" in stats.describe()
        quiet = SearchStats()
        assert "work stealing" not in quiet.describe()

    def test_stats_json_includes_steal_counters(self):
        report = run_search(fig3_system(), _steal_options(jobs=1))
        doc = report.stats.json_dict()
        assert {"leases", "steals", "leases_requeued"} <= set(doc)
