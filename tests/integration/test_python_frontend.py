"""End-to-end: close → search → shrink → replay on real Python programs.

The acceptance path of the Python front end: ``repro close`` and
``repro search`` take the ``.py`` file directly, the seeded assertion
violation is found at exact counter parity across engines and job
counts, saved traces replay with verdict ``reproduced`` on both
engines, and the triage signature cites the Python file and line.
"""

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.sysdesc import load_description, system_from_description
from repro.verisoft import SearchOptions, run_search

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
WORKER_POOL = EXAMPLES / "py_worker_pool.py"
PINGER = EXAMPLES / "py_pinger.py"


def build_system(path: pathlib.Path):
    description = load_description(path)
    return system_from_description(description, path.parent)


def counters(report) -> tuple:
    return (
        report.paths_explored,
        report.transitions_executed,
        len(report.violations),
        len(report.deadlocks),
    )


@pytest.fixture(scope="module")
def pinger_baseline():
    report = run_search(build_system(PINGER), SearchOptions(strategy="dfs"))
    assert not report.ok and report.violations
    return counters(report)


class TestCounterParity:
    def test_compiled_engine_matches_walk(self, pinger_baseline):
        report = run_search(
            build_system(PINGER),
            SearchOptions(strategy="dfs", engine="compiled"),
        )
        assert counters(report) == pinger_baseline

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_parallel_jobs_match_sequential(self, pinger_baseline, jobs):
        report = run_search(
            build_system(PINGER),
            SearchOptions(strategy="parallel", jobs=jobs),
        )
        assert counters(report) == pinger_baseline

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_parallel_compiled_matches_too(self, pinger_baseline, jobs):
        report = run_search(
            build_system(PINGER),
            SearchOptions(strategy="parallel", jobs=jobs, engine="compiled"),
        )
        assert counters(report) == pinger_baseline


class TestWorkerPoolCli:
    def test_close_writes_closed_rc(self, tmp_path, capsys):
        out = tmp_path / "closed.rc"
        assert main(["close", str(WORKER_POOL), "-o", str(out)]) == 0
        closed = out.read_text()
        assert "VS_toss" in closed  # the open interface became tosses
        assert "next_job" not in closed  # the extern call is gone

    @pytest.fixture(scope="class")
    def search_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("pyfront-e2e")
        traces = tmp / "traces"
        stats = tmp / "stats.json"
        code = main(
            [
                "search",
                str(WORKER_POOL),
                "--save-traces",
                str(traces),
                "--stats-json",
                str(stats),
                "--stop-on-first",
            ]
        )
        return code, traces, stats

    def test_exit_code_signals_violations(self, search_run):
        assert search_run[0] == 3

    def test_triage_cites_python_file_and_line(self, capsys):
        code = main(["search", str(PINGER), "--stop-on-first"])
        assert code == 3
        out = capsys.readouterr().out
        match = re.search(r"assertion at \[monitor, \d+\] \(py_pinger\.py:(\d+)\)", out)
        assert match, out
        line = int(match.group(1))
        source_lines = PINGER.read_text().splitlines()
        assert source_lines[line - 1].strip().startswith("assert ")

    def test_stats_json_records_language(self, search_run):
        stats = json.loads(search_run[2].read_text())
        assert stats["language"] == "python"

    def test_manifest_records_language(self, search_run):
        manifest = json.loads((search_run[1] / "run.json").read_text())
        assert manifest["language"] == "python"

    def test_trace_metadata_records_language(self, search_run):
        trace = json.loads((search_run[1] / "assertion-000.json").read_text())
        assert trace["search"]["language"] == "python"
        assert trace["system"]["description"]["language"] == "python"

    @pytest.mark.parametrize("engine", ["walk", "compiled"])
    def test_saved_trace_replays_reproduced(self, search_run, engine, capsys):
        trace = search_run[1] / "assertion-000.json"
        assert main(["replay", str(trace), "--engine", engine]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_shrink_then_replay_both_engines(self, search_run, tmp_path, capsys):
        trace = search_run[1] / "assertion-000.json"
        minimal = tmp_path / "minimal.json"
        assert main(["shrink", str(trace), "-o", str(minimal)]) == 0
        for engine in ("walk", "compiled"):
            assert main(["replay", str(minimal), "--engine", engine]) == 0
            assert "reproduced" in capsys.readouterr().out

    def test_embedded_payload_is_self_contained(self, search_run, tmp_path, capsys):
        # Copy the trace away from the examples directory: replay must
        # rebuild the system purely from the embedded description +
        # program source.
        trace = tmp_path / "moved.json"
        trace.write_text((search_run[1] / "assertion-000.json").read_text())
        assert main(["replay", str(trace)]) == 0
        assert "reproduced" in capsys.readouterr().out


def search(*argv) -> int:
    return main(["search", *map(str, argv)])


class TestCheckpoint:
    def test_suspended_search_resumes_and_records_the_language(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        argv = [PINGER, "--checkpoint", checkpoint, "-j", "1"]
        assert search(*argv, "--time-budget", "0") == 0
        assert checkpoint.exists()
        capsys.readouterr()
        traces = tmp_path / "traces"
        assert search(*argv, "--save-traces", traces) == 3
        assert not checkpoint.exists()
        resumed_summary = capsys.readouterr().out.splitlines()[0]
        assert search(PINGER) == 3
        assert capsys.readouterr().out.splitlines()[0] == resumed_summary
        manifest = json.loads((traces / "run.json").read_text())
        assert manifest["language"] == "python"
