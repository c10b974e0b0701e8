"""A worker SIGKILLed while it sends a result must cost the search
nothing but the lease it held.

Each run pads the first lease result of a steal search with 16 MiB, far
more than a pipe buffers, and SIGKILLs the sending worker from a timer
thread.  The delays spread the kill from before the send starts, through
the send, to after the worker has gone idle.  Every run must finish with
the sequential report and re-queue at most the one lease the victim
held.  Each search runs in a fresh interpreter with a timeout, so a
driver that hangs fails the run instead of the whole suite.
"""

import os
import pathlib
import signal
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = """
import os, signal, sys, threading

from repro import SearchOptions, run_search
from repro.verisoft import parallel
from tests.service.conftest import assert_report_parity, toss_loop_system

delay, marker = float(sys.argv[1]), sys.argv[2]
explore = parallel.explore_lease


def padded(*args, **kwargs):
    report, residuals, fps = explore(*args, **kwargs)
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return report, residuals, fps
    report.padding = bytes(16 << 20)
    threading.Timer(delay, os.kill, (os.getpid(), signal.SIGKILL)).start()
    return report, residuals, fps


parallel.explore_lease = padded
base = run_search(toss_loop_system(rounds=9), strategy="dfs", count_states=True)
report = run_search(
    toss_loop_system(rounds=9),
    SearchOptions(strategy="parallel", scheduler="steal", jobs=2, count_states=True),
)
assert os.path.exists(marker), "no result was padded"
assert_report_parity(report, base)
assert report.stats.leases_requeued <= 1, report.stats.leases_requeued
print("requeued", report.stats.leases_requeued)
"""

DELAYS_MS = [0, 5, 10, 15, 20, 25, 30, 40, 60, 90, 120, 150]


@pytest.mark.slow
@pytest.mark.parametrize("delay_ms", DELAYS_MS, ids=[f"{d}ms" for d in DELAYS_MS])
def test_worker_killed_mid_send(delay_ms, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    run = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(delay_ms / 1000), str(tmp_path / "killed")],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = run.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        # Take the hung driver's workers down with it.
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        pytest.fail(f"the search hung after a kill {delay_ms} ms into the padded send")
    assert run.returncode == 0, stderr
    assert stdout.startswith("requeued "), stdout
