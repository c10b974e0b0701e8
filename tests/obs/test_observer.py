"""The one observer protocol, across every search driver.

Over the closed Figures 2 and 3, both engines and both backtracking
modes, for the sequential DFS, the static parallel driver and the
work-stealing driver (``jobs=1``, so every explorer runs in-process):

* a recording observer sees exactly ``transitions_executed`` fresh
  steps and ``toss_points`` created tosses;
* ``profile=True`` and ``coverage=True`` together give the same profile
  and coverage counters as each alone;
* a direct ``Explorer(system, ...)`` reports what ``run_search`` does.
"""

import pathlib

import pytest

from repro import SearchOptions, run_search
from repro.obs import Observation, SearchObserver
from repro.obs.observer import Fanout
from repro.sysdesc import load_description, system_from_description
from repro.verisoft import Explorer

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

DRIVERS = {
    "dfs": {},
    # An explicit prefix depth: the auto-tuner's probe enumerations are
    # discarded, so they would be observed without being counted.
    "static": {"strategy": "parallel", "jobs": 1, "prefix_depth": 2},
    "steal": {"strategy": "parallel", "scheduler": "steal", "jobs": 1},
}

CASES = [
    (figure, engine, backtrack, driver)
    for figure in ("fig2", "fig3")
    for engine in ("walk", "compiled")
    for backtrack in ("restore", "replay")
    for driver in DRIVERS
]


def figure_system(figure):
    path = EXAMPLES / f"{figure}.json"
    return system_from_description(load_description(path), path.parent)


def options_for(engine, backtrack, driver, **fields):
    return SearchOptions(engine=engine, backtrack=backtrack, **DRIVERS[driver], **fields)


class Recorder(SearchObserver):
    """Counts what the protocol reports."""

    def __init__(self):
        self.fresh_steps = 0
        self.created_tosses = 0
        self.runs = 0
        self.finishes = 0

    def on_run_start(self, run, counted):
        self.runs += 1

    def on_step(self, process, request, depth, fanout, created, fresh_edge):
        assert fresh_edge or not created
        self.fresh_steps += fresh_edge

    def on_toss(self, process, request, value, depth, created, fresh_edge):
        self.created_tosses += created

    def on_finish(self, report):
        self.finishes += 1


@pytest.fixture
def recorder(monkeypatch):
    """A recorder attached to every search the drivers build in-process."""
    recorder = Recorder()
    build = Observation.__init__

    def observed(self, options, system, *, live_stats, span, extra=None):
        extra = recorder if extra is None else Fanout([extra, recorder])
        build(self, options, system, live_stats=live_stats, span=span, extra=extra)

    monkeypatch.setattr(Observation, "__init__", observed)
    return recorder


def profile_counters(report):
    profile = report.profile.as_dict()
    profile.pop("phases_s")
    return profile


def coverage_counters(report):
    coverage = report.coverage
    return (
        dict(coverage.nodes),
        dict(coverage.edges),
        dict(coverage.toss_values),
        {name: frozenset(nodes) for name, nodes in coverage.process_nodes.items()},
    )


def counters(report):
    return (
        report.states_visited,
        report.transitions_executed,
        report.toss_points,
        report.paths_explored,
        report.max_depth_reached,
        report.summary(),
    )


@pytest.mark.parametrize("figure,engine,backtrack,driver", CASES)
class TestProtocol:
    def test_recorder_sees_fresh_steps_and_created_tosses(
        self, recorder, figure, engine, backtrack, driver
    ):
        report = run_search(figure_system(figure), options_for(engine, backtrack, driver))
        assert report.transitions_executed > 0
        assert recorder.fresh_steps == report.transitions_executed
        assert recorder.created_tosses == report.toss_points > 0
        assert recorder.runs >= 1
        assert recorder.finishes >= 1

    def test_profile_and_coverage_compose(self, figure, engine, backtrack, driver):
        def search(**fields):
            options = options_for(engine, backtrack, driver, **fields)
            return run_search(figure_system(figure), options)

        both = search(profile=True, coverage=True)
        profiled = search(profile=True)
        covered = search(coverage=True)
        assert profile_counters(both) == profile_counters(profiled)
        assert coverage_counters(both) == coverage_counters(covered)
        assert both.profile.total_transitions == both.transitions_executed
        assert counters(both) == counters(profiled) == counters(covered)


@pytest.mark.parametrize(
    "figure,engine,backtrack",
    [case[:3] for case in CASES if case[3] == "dfs"],
)
def test_direct_explorer_matches_run_search(figure, engine, backtrack):
    direct = Explorer(figure_system(figure), engine=engine, backtrack=backtrack).run()
    via_api = run_search(figure_system(figure), engine=engine, backtrack=backtrack)
    assert counters(direct) == counters(via_api)
    assert direct.stats.backtrack == via_api.stats.backtrack == backtrack
    assert direct.stats.engine == via_api.stats.engine == engine


@pytest.mark.parametrize("figure", ["fig2", "fig3"])
def test_default_explorer_matches_default_run_search(figure):
    direct = Explorer(figure_system(figure)).run()
    via_api = run_search(figure_system(figure))
    assert counters(direct) == counters(via_api)
    assert direct.stats.backtrack == via_api.stats.backtrack
    assert direct.stats.engine == via_api.stats.engine


def test_unobserved_search_holds_no_observer():
    observation = Observation(
        SearchOptions(), figure_system("fig2"), live_stats=lambda: None, span=("path", "dfs")
    )
    assert observation.observer is None
