"""The benchmark's own tests: metric names and units, the pinned-answer
check, and the refusal to run without the program's sources.

Every run here uses ``--smoke`` bounds.  Run with
``python -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, layers, run  # noqa: E402
from perfbench import workloads as W  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv) -> dict:
    assert run.main(["--seed", "3", "--seconds", "0", "--smoke", *argv]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_json_mirrors_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == layers.LAYER_METRICS


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_end_to_end_metrics(capsys, workload):
    result = _run(capsys, "--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert _units(result) == run.END_TO_END
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_traced_layers(capsys, workload):
    result = _run(capsys, "--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {name: unit for name, (unit, _) in layers.LAYER_METRICS.items()}
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    setup_parts = [f"{layer}_s" for layer in layers.SETUP_LAYERS] + ["setup.other_s"]
    assert sum(values[k] for k in setup_parts) == pytest.approx(values["setup.wall_s"])
    assert values["lang.parse_s"] > 0 and values["runtime.compile_s"] > 0
    if workload in ("search-5ess", "audit-5ess"):
        search_parts = list(layers.PHASE_METRICS.values()) + ["verisoft.other_s"]
        assert sum(values[k] for k in search_parts) == pytest.approx(values["verisoft.wall_s"])
        assert values["runtime.engine_us_per_choice"] > 0
    if workload == "search-5ess":
        assert values["runtime.fingerprint_s"] == 0 and values["statespace.cache_s"] == 0
        assert values["parallel.fixed_s"] > 0 and values["service.leases"] > 0
    if workload == "audit-5ess":
        assert values["runtime.fingerprint_s"] > 0 and values["statespace.stored"] > 0
    if workload == "close-sized":
        assert values["closing.us_per_unit_growth"] > 0
    spans = json.loads((run.OUT_DIR / f"{workload}-traced.json").read_text())["spans"]
    assert spans and all(span["end"] >= span["start"] for span in spans)


@pytest.mark.parametrize("workload", ["search-5ess", "close-sized"])
def test_corrupted_answer_is_a_failure(capsys, monkeypatch, workload):
    pinned = copy.deepcopy(W.PINNED)
    if workload == "close-sized":
        pinned["close-sized"]["smoke"]["sizes"]["100"]["nodes_eliminated"] += 1
    else:
        pinned["search-5ess"]["smoke"]["states"] += 1
    monkeypatch.setattr(W, "PINNED", pinned)
    result = _run(capsys, "--workload", workload, "--trace", "0")
    assert not result["correct"] and result["failed"] >= 1


def test_correction_is_neutral_at_reference_speed():
    assert set(calibrate.EXPONENTS) == set(run.END_TO_END) - {"peak_rss_mb"}
    for metric in calibrate.EXPONENTS:
        assert calibrate.corrected(metric, 2.0, calibrate.REFERENCE_S) == pytest.approx(2.0)
        # A host that runs the kernel slower gets its times scaled down.
        assert calibrate.corrected(metric, 2.0, 2 * calibrate.REFERENCE_S) < 2.0
    assert calibrate.corrected("setup_s", 2.0, 2 * calibrate.REFERENCE_S) == pytest.approx(1.0)
    assert calibrate.calibrate(1000) == calibrate.calibrate(1000)


def test_mismatches_names_every_differing_key():
    pinned = {"states": 3, "cache": {"hits": 1, "stored": 2}}
    observed = {"states": 3, "cache": {"hits": 1, "stored": 5}, "extra": 0}
    assert W.mismatches(observed, pinned) == [
        "cache.stored: got 5, pinned 2",
        "extra: got 0, pinned None",
    ]


def test_search_pins_match_the_walking_engine_oracle():
    oracle = json.loads((ROOT / "BENCH_compile.json").read_text())["5ess"]["walk"]
    pinned = W.PINNED["search-5ess"]["full"]
    for key in ("states", "transitions", "toss_points", "paths"):
        assert pinned[key] == oracle[key]
    assert pinned["triage"] == oracle["triage_signatures"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-5ess",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
