"""The shared plumbing of the BENCH files.

A filtered benchmark run (``pytest benchmarks/bench_compile.py -k
phases``) regenerates one label of a ``BENCH_*.json`` file.
:func:`benchmarks.bench_lib.merge_bench_json` stamps that label with
the provenance of the run and leaves every other label's block alone,
so each row keeps naming the commit that measured it.  Rows that
compare two variants time them with
:func:`benchmarks.bench_lib.alternating_pairs`.
"""

import json

import pytest

from benchmarks import bench_lib


@pytest.fixture()
def bench_root(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_lib, "ROOT", tmp_path)
    monkeypatch.setattr(bench_lib, "RESULTS_DIR", tmp_path / "results")
    return tmp_path


def stamp(monkeypatch, commit):
    monkeypatch.setattr(
        bench_lib, "provenance_block", lambda: {"git_commit": commit, "dirty": False}
    )


def commits(path):
    data = json.loads(path.read_text())
    return {label: block["_provenance"]["git_commit"] for label, block in data.items()}


def test_regenerating_one_label_keeps_the_others_commits(bench_root, monkeypatch):
    stamp(monkeypatch, "aaaaaaa")
    bench_lib.merge_bench_json("demo", "fig2", {"states_per_second": 1.0})
    bench_lib.merge_bench_json("demo", "phases", {"wall_s": 2.0})
    stamp(monkeypatch, "bbbbbbb")
    path = bench_lib.merge_bench_json("demo", "phases", {"wall_s": 3.0})
    assert commits(path) == {"fig2": "aaaaaaa", "phases": "bbbbbbb"}
    data = json.loads(path.read_text())
    assert data["phases"]["wall_s"] == 3.0
    assert (bench_root / "results" / path.name).read_text() == path.read_text()
    # The stamp is no row: the throughput gate sees only the rate.
    assert list(bench_lib.iter_rates(data)) == [(("fig2",), 1.0)]


def test_a_file_wide_block_moves_into_the_labels_it_describes(bench_root, monkeypatch):
    path = bench_root / "BENCH_demo.json"
    path.write_text(
        json.dumps(
            {
                "fig2": {"states_per_second": 1.0},
                "fig3": {"states_per_second": 2.0},
                "_provenance": {"git_commit": "ccccccc", "dirty": False},
            }
        )
    )
    stamp(monkeypatch, "ddddddd")
    bench_lib.merge_bench_json("demo", "fig3", {"states_per_second": 4.0})
    assert commits(path) == {"fig2": "ccccccc", "fig3": "ddddddd"}


def test_alternating_pairs_swap_the_leader_every_pair():
    calls = []

    def timed(side):
        calls.append(side)
        return float(len(calls))

    first, second = bench_lib.alternating_pairs(3, timed, "a", "b")
    assert calls == ["a", "b", "b", "a", "a", "b"]
    assert first == [1.0, 4.0, 5.0] and second == [2.0, 3.0, 6.0]
    assert bench_lib.spread(first) == {
        "wall_time_s": 4.0,
        "wall_time_min_s": 1.0,
        "wall_time_max_s": 5.0,
    }
