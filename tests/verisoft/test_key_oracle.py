"""The incremental state key against the full recomputation, at every
state a search keys.

The run marks the components a step or a toss answer changes stale, and
:class:`~repro.runtime.fingerprint.RunFingerprinter` re-encodes only
those (``repro.runtime.fingerprint``).  A missed mark leaves a part
describing an earlier state, and the exact cache then merges states
that differ.  Here every key the explorer asks for, in restore-mode DFS
with the exact cache and ``count_states``, must equal
``encode_canonical(run.state_fingerprint())``: on bounded 5ESS at depth
12 (10 processes, 17 objects) on both engines, and on Hypothesis-drawn
random systems.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchOptions, run_search
from repro.runtime.fingerprint import encode_canonical
from repro.runtime.system import Run
from tests.verisoft.test_fuzz_differential import random_system
from tests.verisoft.test_incremental_analysis import fiveess_system


@contextmanager
def checked_keys():
    """Check every ``Run.state_key`` call against the full encoding;
    yields the list of checked keys."""
    keys = []
    original = Run.state_key

    def state_key(run):
        key = original(run)
        assert run.fingerprinter is not None
        assert key == encode_canonical(run.state_fingerprint())
        keys.append(key)
        return key

    # Patched by hand, not through pytest's monkeypatch: Hypothesis runs
    # many examples within one test call.
    Run.state_key = state_key
    try:
        yield keys
    finally:
        Run.state_key = original


def keyed_search(system, engine, max_depth):
    return run_search(
        system,
        SearchOptions(
            backtrack="restore",
            engine=engine,
            state_cache="exact",
            count_states=True,
            max_depth=max_depth,
        ),
    )


@pytest.mark.parametrize("engine", ["walk", "compiled"])
def test_fiveess_keys_match_the_full_encoding(engine):
    system = fiveess_system()
    assert (len(system.process_names), len(system.object_names)) == (10, 17)
    with checked_keys() as keys:
        report = keyed_search(system, engine, 12)
    assert report.stats.backtrack == "restore" and report.stats.engine == engine
    assert report.stats.restores > 0
    assert len(keys) == report.states_visited
    assert len(set(keys)) == report.distinct_states


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    engine=st.sampled_from(["walk", "compiled"]),
)
def test_random_system_keys_match_the_full_encoding(seed, engine):
    with checked_keys() as keys:
        report = keyed_search(random_system(seed), engine, 14)
    assert report.stats.backtrack == "restore"
    assert len(keys) == report.states_visited
