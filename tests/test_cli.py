"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

OPEN_RC = """
extern proc env();

proc main() {
    var x;
    x = env();
    if (x % 2 == 0) { send(out, 'even'); } else { send(out, 'odd'); }
}
"""

DEADLOCK_RC = """
proc grab(first, second) {
    sem_p(first);
    sem_p(second);
    sem_v(second);
    sem_v(first);
}
"""


@pytest.fixture()
def open_file(tmp_path):
    path = tmp_path / "open.rc"
    path.write_text(OPEN_RC)
    return path


class TestClose:
    def test_close_to_stdout(self, open_file, capsys):
        assert main(["close", str(open_file)]) == 0
        out = capsys.readouterr().out
        assert "VS_toss(1)" in out
        assert "proc main()" in out

    def test_close_to_file(self, open_file, tmp_path, capsys):
        output = tmp_path / "closed.rc"
        assert main(["close", str(open_file), "-o", str(output)]) == 0
        assert "VS_toss" in output.read_text()

    def test_closed_output_reparses(self, open_file, tmp_path):
        from repro.lang.parser import parse_program

        output = tmp_path / "closed.rc"
        main(["close", str(open_file), "-o", str(output)])
        parse_program(output.read_text())

    def test_stats_flag(self, open_file, capsys):
        main(["close", str(open_file), "--stats"])
        err = capsys.readouterr().err
        assert "closed 1 procedure" in err

    def test_env_param_flag(self, tmp_path, capsys):
        path = tmp_path / "p.rc"
        path.write_text("proc main(x) { if (x > 0) { send(out, 1); } }")
        assert main(["close", str(path), "--env-param", "main:x"]) == 0
        out = capsys.readouterr().out
        assert "proc main()" in out  # parameter removed

    def test_bad_env_param_syntax(self, open_file):
        with pytest.raises(SystemExit):
            main(["close", str(open_file), "--env-param", "nonsense"])

    def test_missing_file(self, tmp_path, capsys):
        assert main(["close", str(tmp_path / "nope.rc")]) == 2

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.rc"
        path.write_text("proc main( {")
        assert main(["close", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_c_input(self, tmp_path, capsys):
        pytest.importorskip("pycparser")
        path = tmp_path / "open.c"
        path.write_text(
            "int env();\nvoid main() { int x = env(); if (x) { send(out, 1); } }"
        )
        assert main(["close", str(path)]) == 0
        assert "VS_toss" in capsys.readouterr().out


class TestAnalyzeAndGraph:
    def test_analyze_output(self, open_file, capsys):
        assert main(["analyze", str(open_file)]) == 0
        out = capsys.readouterr().out
        assert "proc main" in out
        assert "N_I" in out

    def test_graph_stdout(self, open_file, capsys):
        assert main(["graph", str(open_file)]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_graph_closed_to_dir(self, open_file, tmp_path, capsys):
        out_dir = tmp_path / "dots"
        assert (
            main(["graph", str(open_file), "--closed", "--out-dir", str(out_dir)]) == 0
        )
        assert (out_dir / "main.dot").exists()

    def test_graph_unknown_proc(self, open_file):
        with pytest.raises(SystemExit):
            main(["graph", str(open_file), "--proc", "nope"])


class TestSearchFrontEnd:
    def _write_system(self, tmp_path, program_text, description):
        program = tmp_path / "prog.rc"
        program.write_text(program_text)
        description = dict(description, program="prog.rc")
        system = tmp_path / "system.json"
        system.write_text(json.dumps(description))
        return system

    def test_search_clean_system(self, tmp_path, capsys):
        system = self._write_system(
            tmp_path,
            OPEN_RC,
            {
                "close": {},
                "objects": [{"kind": "sink", "name": "out"}],
                "processes": [{"name": "m", "proc": "main", "args": []}],
            },
        )
        assert main(["search", str(system)]) == 0
        assert "paths=2" in capsys.readouterr().out

    def test_search_finds_deadlock_exit_code(self, tmp_path, capsys):
        system = self._write_system(
            tmp_path,
            DEADLOCK_RC,
            {
                "objects": [
                    {"kind": "semaphore", "name": "s1", "initial": 1},
                    {"kind": "semaphore", "name": "s2", "initial": 1},
                ],
                "processes": [
                    {
                        "name": "a",
                        "proc": "grab",
                        "args": [{"object": "s1"}, {"object": "s2"}],
                    },
                    {
                        "name": "b",
                        "proc": "grab",
                        "args": [{"object": "s2"}, {"object": "s1"}],
                    },
                ],
            },
        )
        assert main(["search", str(system), "--max-depth", "20"]) == 3
        out = capsys.readouterr().out
        assert "deadlock" in out

    def test_random_strategy(self, tmp_path, capsys):
        system = self._write_system(
            tmp_path,
            OPEN_RC,
            {
                "close": {},
                "objects": [{"kind": "sink", "name": "out"}],
                "processes": [{"name": "m", "proc": "main", "args": []}],
            },
        )
        assert main(["search", str(system), "--strategy", "random", "--walks", "5"]) == 0
        assert "paths=5" in capsys.readouterr().out

    def test_bad_json_reports_schema(self, tmp_path):
        system = tmp_path / "system.json"
        system.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            main(["search", str(system)])
        assert "schema" in str(err.value)

    def test_unknown_object_reference(self, tmp_path):
        system = self._write_system(
            tmp_path,
            DEADLOCK_RC,
            {
                "objects": [],
                "processes": [
                    {"name": "a", "proc": "grab", "args": [{"object": "ghost"}, 1]}
                ],
            },
        )
        with pytest.raises(SystemExit):
            main(["search", str(system)])


DEADLOCK_DESCRIPTION = {
    "objects": [
        {"kind": "semaphore", "name": "s1", "initial": 1},
        {"kind": "semaphore", "name": "s2", "initial": 1},
    ],
    "processes": [
        {"name": "a", "proc": "grab", "args": [{"object": "s1"}, {"object": "s2"}]},
        {"name": "b", "proc": "grab", "args": [{"object": "s2"}, {"object": "s1"}]},
    ],
}


class TestCounterexampleCommands:
    """search --save-traces/--stats-json plus replay and shrink."""

    def _deadlock_system(self, tmp_path):
        program = tmp_path / "prog.rc"
        program.write_text(DEADLOCK_RC)
        description = dict(DEADLOCK_DESCRIPTION, program="prog.rc")
        system = tmp_path / "system.json"
        system.write_text(json.dumps(description))
        return system

    def test_search_exit_codes(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        assert main(["search", str(system), "--max-depth", "20"]) == 3
        out = capsys.readouterr().out
        assert "distinct group" in out

    def test_stats_json(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        stats = tmp_path / "stats.json"
        main(["search", str(system), "--max-depth", "20", "--stats-json", str(stats)])
        payload = json.loads(stats.read_text())
        assert payload["strategy"] == "dfs"
        assert payload["paths_explored"] >= 1
        assert "states_per_second" in payload

    def test_save_traces_writes_replayable_files(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        traces = tmp_path / "traces"
        assert (
            main(
                [
                    "search",
                    str(system),
                    "--max-depth",
                    "20",
                    "--save-traces",
                    str(traces),
                ]
            )
            == 3
        )
        files = sorted(traces.glob("*.json"))
        assert files
        doc = json.loads(files[0].read_text())
        assert doc["format"] == "repro-trace"
        # Traces embed the system: replay needs no extra arguments.
        capsys.readouterr()
        assert main(["replay", str(files[0])]) == 0
        assert "reproduced" in capsys.readouterr().out

    def _saved_trace(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        traces = tmp_path / "traces"
        main(["search", str(system), "--max-depth", "20", "--save-traces", str(traces)])
        capsys.readouterr()
        return sorted(traces.glob("*.json"))[0]

    def test_replay_with_explicit_system(self, tmp_path, capsys):
        trace = self._saved_trace(tmp_path, capsys)
        system = tmp_path / "system.json"
        assert main(["replay", str(trace), "--system", str(system)]) == 0

    def test_replay_show_trace(self, tmp_path, capsys):
        trace = self._saved_trace(tmp_path, capsys)
        assert main(["replay", str(trace), "--show-trace"]) == 0
        assert "sem_p" in capsys.readouterr().out

    def test_replay_not_reproduced_exits_1(self, tmp_path, capsys):
        trace = self._saved_trace(tmp_path, capsys)
        doc = json.loads(trace.read_text())
        # Fixed program: both processes take the locks in one order.
        doc["system"]["description"]["processes"][1]["args"] = [
            {"object": "s1"},
            {"object": "s2"},
        ]
        trace.write_text(json.dumps(doc))
        assert main(["replay", str(trace)]) == 1

    def test_replay_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other"}))
        assert main(["replay", str(bad)]) == 2

    def test_shrink_writes_minimal_trace(self, tmp_path, capsys):
        trace = self._saved_trace(tmp_path, capsys)
        out = tmp_path / "min.json"
        assert main(["shrink", str(trace), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["shrink"]["original_choices"] >= len(doc["choices"])
        capsys.readouterr()
        assert main(["replay", str(out)]) == 0

    def test_shrink_in_place_by_default(self, tmp_path, capsys):
        trace = self._saved_trace(tmp_path, capsys)
        assert main(["shrink", str(trace)]) == 0
        assert "shrink" in json.loads(trace.read_text())

    def test_replay_module_factory(self, tmp_path, capsys):
        # A factory that doesn't exist is a usage error...
        trace = self._saved_trace(tmp_path, capsys)
        with pytest.raises(SystemExit):
            main(["replay", str(trace), "--module", "repro.fiveess.app:nope"])
        with pytest.raises(SystemExit):
            main(["replay", str(trace), "--module", "no-colon"])


#: Programs the CFG builder or the closing refuses, with the located
#: message each must print.
REFUSED = {
    "break": (
        "proc main() { break; }",
        "1:15: main: 'break' outside of a loop",
    ),
    "env-object": (
        "extern proc get();\nproc main() { var i; i = get(); send(channel(i), 1); }",
        "2:33: main: node 5 performs send on an environment-dependent object",
    ),
}


class TestRefusedPrograms:
    """A program that the CFG builder or the closing refuses exits 2
    with one located ``error:`` line, not a traceback."""

    def _assert_one_line(self, capsys, message):
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err

    @pytest.mark.parametrize("name", list(REFUSED))
    def test_close(self, tmp_path, capsys, name):
        source, message = REFUSED[name]
        path = tmp_path / "prog.rc"
        path.write_text(source)
        assert main(["close", str(path)]) == 2
        self._assert_one_line(capsys, message)

    @pytest.mark.parametrize("name", list(REFUSED))
    def test_search(self, tmp_path, capsys, name):
        source, message = REFUSED[name]
        (tmp_path / "prog.rc").write_text(source)
        system = tmp_path / "system.json"
        system.write_text(
            json.dumps(
                {
                    "program": "prog.rc",
                    "close": {},
                    "objects": [],
                    "processes": [{"name": "m", "proc": "main", "args": []}],
                }
            )
        )
        assert main(["search", str(system)]) == 2
        self._assert_one_line(capsys, message)


class TestMisc:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])


class TestStateCacheFlags:
    """--state-cache / --cache-mode and the --jobs oversubscription
    warning."""

    def _deadlock_system(self, tmp_path):
        program = tmp_path / "prog.rc"
        program.write_text(DEADLOCK_RC)
        description = dict(DEADLOCK_DESCRIPTION, program="prog.rc")
        system = tmp_path / "system.json"
        system.write_text(json.dumps(description))
        return system

    def test_state_cache_exact_end_to_end(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        assert (
            main(["search", str(system), "--max-depth", "20", "--state-cache", "exact"])
            == 3
        )
        out = capsys.readouterr().out
        assert "cache=exact" in out
        assert "deadlock" in out

    def test_cache_stats_reach_the_json_dump(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        stats = tmp_path / "stats.json"
        main(
            [
                "search",
                str(system),
                "--max-depth",
                "20",
                "--state-cache",
                "hashcompact",
                "--stats-json",
                str(stats),
            ]
        )
        payload = json.loads(stats.read_text())
        assert payload["state_cache"] == "hashcompact"
        assert payload["cache_stored"] > 0
        assert payload["cache_bytes_per_state"] == 16.0

    def test_saved_trace_records_cache_options(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        traces = tmp_path / "traces"
        main(
            [
                "search",
                str(system),
                "--max-depth",
                "20",
                "--state-cache",
                "hashcompact",
                "--save-traces",
                str(traces),
            ]
        )
        doc = json.loads(sorted(traces.glob("*.json"))[0].read_text())
        options = doc["search"]["options"]
        assert options["state_cache"] == "hashcompact"
        assert options["cache_mode"] == "safe"

    def test_bad_cache_choice_rejected_by_argparse(self, tmp_path):
        system = self._deadlock_system(tmp_path)
        with pytest.raises(SystemExit):
            main(["search", str(system), "--state-cache", "lru"])

    def test_jobs_oversubscription_warns_once(self, tmp_path, capsys):
        import os

        system = self._deadlock_system(tmp_path)
        too_many = (os.cpu_count() or 1) + 7
        main(
            [
                "search",
                str(system),
                "--strategy",
                "parallel",
                "--jobs",
                str(too_many),
                "--max-depth",
                "20",
            ]
        )
        err = capsys.readouterr().err
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert f"--jobs {too_many} exceeds" in warnings[0]
        assert "CPU" in warnings[0]

    def test_jobs_within_cpu_count_stays_quiet(self, tmp_path, capsys):
        system = self._deadlock_system(tmp_path)
        main(
            [
                "search",
                str(system),
                "--strategy",
                "parallel",
                "--jobs",
                "1",
                "--max-depth",
                "20",
            ]
        )
        assert "warning:" not in capsys.readouterr().err
