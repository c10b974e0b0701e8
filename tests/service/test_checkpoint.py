"""Suspend and resume: the checks on resuming and ``repro search
--checkpoint``.

A frontier checkpoint is the whole state of an unfinished search.
Resuming it must give the report an uninterrupted search gives, and
resuming it into a different search must fail loudly.
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import SearchOptions, run_search
from repro.cli import main
from repro.fiveess.app import build_app
from repro.service import FrontierFormatError, SearchCheckpoint, load_frontier, work_stealing_search
from repro.sysdesc import system_from_description
from repro.verisoft import SearchStats

from .conftest import NON_PARITY_FIELDS, assert_report_parity, fig3_system

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"


def _steal_options(**kwargs):
    options = dict(strategy="parallel", scheduler="steal", jobs=1, count_states=True, max_depth=40)
    return SearchOptions(**{**options, **kwargs})


def _suspended_fig3() -> SearchCheckpoint:
    calls = [0]

    def stop_soon():
        calls[0] += 1
        return calls[0] >= 2

    report = work_stealing_search(fig3_system(), _steal_options(), should_suspend=stop_soon)
    assert report.checkpoint is not None and not report.checkpoint.done()
    return report.checkpoint


@pytest.fixture(scope="module")
def fig3_dfs():
    return run_search(fig3_system(), SearchOptions(count_states=True, max_depth=40))


class TestResumeChecks:
    @pytest.mark.parametrize(
        "change, recorded, asked",
        [({"max_depth": 5}, "max_depth=40", "max_depth=5"), ({"por": False}, "por=True", "por=False")],
        ids=["max_depth", "por"],
    )
    def test_a_changed_option_is_refused(self, change, recorded, asked):
        checkpoint = _suspended_fig3()
        with pytest.raises(FrontierFormatError) as err:
            work_stealing_search(fig3_system(), _steal_options(**change), initial=checkpoint)
        assert recorded in str(err.value) and asked in str(err.value)

    def test_how_the_rest_is_searched_may_change(self):
        base = run_search(
            fig3_system(), SearchOptions(count_states=True, max_depth=40, engine="compiled")
        )
        resumed = work_stealing_search(
            fig3_system(),
            _steal_options(
                engine="compiled",
                backtrack="replay",
                jobs=2,
                scheduler="static",
                time_budget=60.0,
                progress_interval=0.1,
                stall_timeout=None,
            ),
            initial=_suspended_fig3(),
        )
        assert_report_parity(resumed, base)

    @pytest.mark.parametrize("key, value", [("prefix_depth", 2), ("cache_bits", 24)])
    def test_a_retired_option_key_is_ignored(self, tmp_path, fig3_dfs, key, value):
        # Checkpoints written before an option was retired still carry it.
        doc = _suspended_fig3().to_json()
        doc["options"][key] = value
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(doc))
        resumed = work_stealing_search(fig3_system(), _steal_options(), initial=load_frontier(path))
        assert_report_parity(resumed, fig3_dfs)


def _search(*argv) -> int:
    return main(["search", *map(str, argv)])


def _parity_stats(path: pathlib.Path) -> dict:
    stats = json.loads(path.read_text())
    return {key: stats[key] for key in SearchStats().as_dict() if key not in NON_PARITY_FIELDS}


def _fiveess_description(directory: pathlib.Path) -> pathlib.Path:
    """Bounded 5ESS (two lines, one call each, no maintenance daemons)
    as a system description: the program file plus the objects and
    processes of the system the application builds."""
    app = build_app(n_lines=2, calls_per_line=1)
    system = app.make_system(with_maintenance=False)
    objects = []
    for spec in system._object_specs.values():
        params = dict(spec.params)
        if spec.kind == "env_sink":
            objects.append({"kind": "sink", "name": spec.name})
        else:
            objects.append({"kind": spec.kind, "name": spec.name, **params})
    processes = [
        {
            "name": name,
            "proc": proc,
            "args": [arg if isinstance(arg, int) else {"object": arg.name} for arg in args],
        }
        for name, proc, args in system.process_specs
    ]
    bindings = {
        f"{proc}.{param}": sorted(cells) for (proc, param), cells in app.spec.object_bindings.items()
    }
    description = {
        "program": "fiveess.rc",
        "close": {"object_bindings": bindings},
        "objects": objects,
        "processes": processes,
    }
    (directory / "fiveess.rc").write_text(app.source)
    path = directory / "fiveess.json"
    path.write_text(json.dumps(description, indent=2))
    assert system_from_description(description, directory).fingerprint() == system.fingerprint()
    return path


#: The bounded-5ESS search of the benchmark, with distinct states counted.
FIVEESS_FLAGS = [
    "--engine", "compiled", "--max-depth", "24", "--count-states", "--max-events", "50000",
]


@pytest.fixture(scope="module")
def fiveess(tmp_path_factory):
    """The description and the stdout of its uninterrupted DFS search."""
    directory = tmp_path_factory.mktemp("fiveess")
    description = _fiveess_description(directory)
    result = subprocess.run(
        [sys.executable, "-m", "repro", "search", str(description), *FIVEESS_FLAGS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 3, result.stderr
    summary = result.stdout.splitlines()[0]
    assert summary.startswith("paths=8960 states=45934 transitions=45302 distinct=7572 "), summary
    return description, result.stdout


class TestCheckpointFlag:
    def test_fig3_suspended_by_its_budget_resumes_to_the_dfs_report(self, tmp_path, capsys):
        fig3 = EXAMPLES / "fig3.json"
        checkpoint = tmp_path / "ck.json"
        assert _search(fig3, "--checkpoint", checkpoint, "--time-budget", "0", "-j", "2") == 0
        assert len(load_frontier(checkpoint).pending) == 1
        capsys.readouterr()
        resumed = tmp_path / "resumed.json"
        assert _search(fig3, "--checkpoint", checkpoint, "-j", "2", "--stats-json", resumed) == 3
        assert not checkpoint.exists()
        resumed_out = capsys.readouterr().out
        dfs = tmp_path / "dfs.json"
        assert _search(fig3, "--stats-json", dfs) == 3
        assert resumed_out == capsys.readouterr().out
        assert _parity_stats(resumed) == _parity_stats(dfs)

    def test_bounded_5ess_suspended_mid_search_resumes_to_the_dfs_report(
        self, fiveess, tmp_path, capsys
    ):
        description, dfs_out = fiveess
        checkpoint = tmp_path / "ck.json"
        argv = [description, "--checkpoint", checkpoint, *FIVEESS_FLAGS]
        assert _search(*argv, "-j", "1", "--time-budget", "0.5") in (0, 3)
        assert load_frontier(checkpoint).pending
        capsys.readouterr()
        assert _search(*argv, "-j", "2") == 3
        assert not checkpoint.exists()
        assert capsys.readouterr().out == dfs_out

    @pytest.mark.parametrize(
        "text", ['{"format": "repro-frontier"', '{"format": "repro-frontier", "version": 99}']
    )
    def test_a_malformed_checkpoint_exits_2_with_one_line(self, tmp_path, capsys, text):
        checkpoint = tmp_path / "ck.json"
        checkpoint.write_text(text)
        assert _search(EXAMPLES / "fig3.json", "--checkpoint", checkpoint) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {checkpoint}: "), err
        assert checkpoint.read_text() == text

    def test_a_checkpoint_of_another_system_exits_2_with_one_line(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        assert _search(EXAMPLES / "fig2.json", "--checkpoint", checkpoint, "--time-budget", "0") == 0
        capsys.readouterr()
        assert _search(EXAMPLES / "fig3.json", "--checkpoint", checkpoint) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "different system" in err[0], err

    def test_the_random_strategy_exits_2(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.json"
        argv = [EXAMPLES / "fig3.json", "--strategy", "random", "--checkpoint", checkpoint]
        assert _search(*argv) == 2
        assert "--checkpoint" in capsys.readouterr().err
        assert not checkpoint.exists()


def _interrupted(command: list[str]) -> tuple[int, str]:
    """Run ``command`` in its own session and send SIGINT to the whole
    group, as Ctrl-C does, once the first ticker line shows that the
    search runs.  Returns the exit status and stderr."""
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        start_new_session=True,
    )
    stderr: list[str] = []
    reader = threading.Thread(target=lambda: stderr.extend(process.stderr), daemon=True)
    reader.start()
    deadline = time.monotonic() + 60
    while not any("states=" in line for line in stderr) and time.monotonic() < deadline:
        assert process.poll() is None, "".join(stderr)
        time.sleep(0.02)
    os.killpg(process.pid, signal.SIGINT)
    process.stdout.read()
    process.wait(timeout=60)
    reader.join(timeout=10)
    return process.returncode, "".join(stderr)


@pytest.mark.slow
class TestCtrlC:
    def command(self, description, *flags):
        return [
            sys.executable, "-m", "repro", "search", str(description), "-j", "2", "--progress",
            *FIVEESS_FLAGS, *map(str, flags),
        ]

    def test_ctrl_c_suspends_and_the_resume_matches(self, fiveess, tmp_path):
        description, dfs_out = fiveess
        checkpoint = tmp_path / "ck.json"
        command = self.command(description, "--checkpoint", checkpoint)
        code, stderr = _interrupted(command)
        assert code in (0, 3) and "Traceback" not in stderr, stderr
        assert "suspended:" in stderr
        assert load_frontier(checkpoint).pending

        resumed = subprocess.run(
            command,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=120,
        )
        assert resumed.returncode == 3, resumed.stderr
        assert resumed.stdout == dfs_out
        assert not checkpoint.exists()

    def test_workers_leave_ctrl_c_to_the_coordinator(self, fiveess):
        # Without a checkpoint the coordinator stops on KeyboardInterrupt;
        # the workers must not each die with a traceback of their own.
        code, stderr = _interrupted(self.command(fiveess[0], "--strategy", "parallel"))
        assert code != 0
        assert "_worker_main" not in stderr and "Process-" not in stderr, stderr
