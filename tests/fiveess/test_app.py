"""Tests for the 5ESS-style call-processing case study."""

import pytest

from tests.helpers import dfs_search
from repro.cfg import NodeKind, build_cfgs
from repro.closing import analyze_for_closing
from repro.fiveess import build_app
from repro.lang.parser import parse_program


@pytest.fixture(scope="module")
def app():
    return build_app(n_lines=2, calls_per_line=1)


@pytest.fixture(scope="module")
def closed(app):
    return app.close()


class TestSourceGeneration:
    def test_source_parses(self, app):
        program = parse_program(app.source)
        expected = {
            "line_handler",
            "originate",
            "term_handler",
            "billing_daemon",
            "registration_server",
            "mobile_station",
            "handover_manager",
            "maintenance_daemon",
            "audit_daemon",
            "collect_digits",
        }
        assert expected <= set(program.procs)

    def test_open_interface_declared(self, app):
        program = parse_program(app.source)
        assert set(program.externs) == {
            "next_subscriber_event",
            "answer_decision",
            "radio_measurement",
            "maintenance_code",
        }

    def test_scales_with_lines(self):
        small = build_app(n_lines=1).source
        large = build_app(n_lines=4).source
        assert "setup_3" in large
        assert "setup_3" not in small

    def test_manual_stub_uses_bounded_toss(self, app):
        assert "VS_toss(1)" in app.source  # n_lines=2 -> toss over {0,1}


class TestClosing:
    def test_every_extern_call_eliminated(self, app, closed):
        for proc, cfg in closed.cfgs.items():
            for node in cfg.nodes_of_kind(NodeKind.CALL):
                assert node.callee not in (
                    "next_subscriber_event",
                    "answer_decision",
                    "radio_measurement",
                    "maintenance_code",
                ), f"{proc} kept env call {node.callee}"

    def test_env_branch_points_become_toss(self, app, closed):
        assert closed.proc_stats["line_handler"].toss_nodes >= 1
        assert closed.proc_stats["term_handler"].toss_nodes >= 1
        assert closed.proc_stats["handover_manager"].toss_nodes >= 1
        assert closed.proc_stats["maintenance_daemon"].toss_nodes >= 1

    def test_manual_stub_preserved(self, app, closed):
        # collect_digits is system code using VS_toss: untouched.
        cfg = closed.cfgs["collect_digits"]
        calls = [n.callee for n in cfg.nodes_of_kind(NodeKind.CALL)]
        assert "VS_toss" in calls

    def test_location_taint_erases_audit_subject(self, app, closed):
        from repro.lang import ast

        analysis = analyze_for_closing(build_cfgs(parse_program(app.source)), app.spec)
        assert "location" in analysis.tainted_objects
        cfg = closed.cfgs["audit_daemon"]
        asserts = [n for n in cfg.nodes_of_kind(NodeKind.CALL) if n.callee == "VS_assert"]
        erased = [n for n in asserts if isinstance(n.args[0], ast.AbstractLit)]
        kept = [n for n in asserts if not isinstance(n.args[0], ast.AbstractLit)]
        assert len(erased) == 1  # the `loc >= 0` check
        assert len(kept) == 2  # alarm and line_busy checks preserved

    def test_billing_assertions_preserved(self, app, closed):
        from repro.lang import ast

        cfg = closed.cfgs["billing_daemon"]
        asserts = [n for n in cfg.nodes_of_kind(NodeKind.CALL) if n.callee == "VS_assert"]
        assert asserts
        assert all(not isinstance(n.args[0], ast.AbstractLit) for n in asserts)

    def test_closing_reports_work(self, app, closed):
        assert closed.nodes_eliminated > 0
        assert closed.toss_nodes_added >= 4


class TestExploration:
    def test_system_builds_and_explores(self, app, closed):
        system = app.make_system(closed)
        report = dfs_search(system, max_depth=30, por=True, max_paths=300)
        assert report.states_visited > 0

    def test_make_system_parses_nothing(self, monkeypatch):
        import repro.lang

        fresh = build_app(n_lines=2, calls_per_line=1)
        closed = fresh.close()
        original = parse_program(fresh.source)
        for proc, stats in closed.proc_stats.items():
            assert stats.params_before == original.procs[proc].params
        calls = []
        monkeypatch.setattr(
            repro.lang, "parse_program", lambda *args: calls.append(args) or original
        )
        fresh.make_system(closed, with_forwarding=True)
        assert calls == []

    def test_seeded_deadlock_found(self, app, closed):
        system = app.make_system(closed, with_maintenance=False)
        report = dfs_search(
            system,
            max_depth=40,
            por=True,
            max_paths=4000,
            stop_when=lambda r: any(
                app.classify_deadlock(d.blocked) == "seeded-lock-order"
                for d in r.deadlocks
            ),
        )
        classes = {app.classify_deadlock(d.blocked) for d in report.deadlocks}
        assert "seeded-lock-order" in classes

    def test_deadlock_absent_without_seed(self):
        safe = build_app(n_lines=2, seed_deadlock=False)
        closed = safe.close()
        system = safe.make_system(closed, with_maintenance=False)
        report = dfs_search(system, max_depth=40, por=True, max_paths=4000)
        classes = {safe.classify_deadlock(d.blocked) for d in report.deadlocks}
        assert "seeded-lock-order" not in classes

    def test_billing_violation_found_in_core_flow(self, app, closed):
        system = app.make_system(closed, with_mobility=False, with_maintenance=False)
        report = dfs_search(
            system,
            max_depth=60,
            por=True,
            max_paths=50_000,
            time_budget=60,
            stop_when=lambda r: bool(r.violations),
        )
        assert report.violations

    def test_billing_invariant_holds_without_seed(self):
        safe = build_app(n_lines=2, seed_billing_bug=False)
        closed = safe.close()
        system = safe.make_system(closed, with_mobility=False, with_maintenance=False)
        report = dfs_search(
            system, max_depth=60, por=True, max_paths=8_000, time_budget=40
        )
        assert not report.violations

    def test_quiescence_classification(self, app):
        assert app.classify_deadlock(("term_0", "billing")) == "quiescence"
        assert (
            app.classify_deadlock(("term_0", "handover_1")) == "seeded-lock-order"
        )


class TestCallForwarding:
    def test_forwarding_procs_generated(self, app):
        from repro.lang.parser import parse_program

        program = parse_program(app.source)
        assert "read_forward" in program.procs
        assert "provisioning_daemon" in program.procs

    def test_forwarding_teardown_leak_found(self, app, closed):
        system = app.make_system(
            closed,
            with_mobility=False,
            with_maintenance=False,
            with_forwarding=True,
        )
        report = dfs_search(
            system,
            max_depth=70,
            por=True,
            max_paths=20_000,
            time_budget=90,
            stop_when=lambda r: any(
                app.classify_event(d) == "forwarding-teardown-leak"
                for d in r.deadlocks
            ),
        )
        classes = {app.classify_event(d) for d in report.deadlocks}
        assert "forwarding-teardown-leak" in classes

    def test_no_leak_without_provisioning(self, app, closed):
        system = app.make_system(
            closed,
            with_mobility=False,
            with_maintenance=False,
            with_forwarding=False,
        )
        report = dfs_search(system, max_depth=70, por=True, max_paths=8_000, time_budget=60)
        classes = {app.classify_event(d) for d in report.deadlocks}
        assert "forwarding-teardown-leak" not in classes

    def test_classify_event_details(self, app):
        from repro.verisoft.results import DeadlockEvent, Trace

        event = DeadlockEvent(
            Trace((), ()),
            ("term_1", "billing"),
            (("term_1", "recv", "teardown_1"), ("billing", "recv", "billing")),
        )
        assert app.classify_event(event) == "forwarding-teardown-leak"
        quiescent = DeadlockEvent(
            Trace((), ()),
            ("term_1", "billing"),
            (("term_1", "recv", "setup_1"), ("billing", "recv", "billing")),
        )
        assert app.classify_event(quiescent) == "quiescence"
