"""The incremental state key against the full recomputation, at every
state a search keys.

The run marks the components a step or a toss answer changes stale, and
:class:`~repro.runtime.fingerprint.RunFingerprinter` re-encodes only
those (``repro.runtime.fingerprint``).  A missed mark leaves a part
describing an earlier state, and ``count_states`` then merges states
that differ.  A search keys a state by ``Run.state_parts`` alone.  Here
every key the explorer asks for, in restore-mode DFS with
``count_states``, with the exact cache and without a store, must come
from the incremental fingerprinter and join to
``encode_canonical(run.state_fingerprint())``: on bounded 5ESS at depth
12 (10 processes, 17 objects) on both engines, and on Hypothesis-drawn
random systems.  The joined bytes (``Run.state_key``) are never asked
for.
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
    """Check every ``Run.state_parts`` call against the full encoding
    and count the ``Run.state_key`` calls; yields ``(keys, joined)``."""
    keys: list[tuple] = []
    joined: list[bytes] = []
    original_parts = Run.state_parts
    original_key = Run.state_key

    def state_parts(run):
        parts = original_parts(run)
        assert run.fingerprinter is not None
        assert b"".join(parts) == encode_canonical(run.state_fingerprint())
        keys.append(parts)
        return parts

    def state_key(run):
        key = original_key(run)
        joined.append(key)
        return key

    # Patched by hand, not through pytest's monkeypatch: Hypothesis runs
    # many examples within one test call.
    Run.state_parts = state_parts
    Run.state_key = state_key
    try:
        yield keys, joined
    finally:
        Run.state_parts = original_parts
        Run.state_key = original_key


def keyed_search(system, engine, state_cache, max_depth):
    """A checked restore-mode search with ``count_states``: one key per
    visited state, and its distinct keys are its distinct states."""
    options = SearchOptions(
        backtrack="restore",
        engine=engine,
        state_cache=state_cache,
        count_states=True,
        max_depth=max_depth,
    )
    with checked_keys() as (keys, joined):
        report = run_search(system, options)
    assert report.stats.backtrack == "restore" and report.stats.engine == engine
    assert len(keys) == report.states_visited
    assert len(set(keys)) == report.distinct_states
    assert not joined
    return report


@pytest.mark.parametrize("engine", ["walk", "compiled"])
def test_fiveess_keys_match_the_full_encoding(engine):
    for state_cache in ("exact", "off"):
        system = fiveess_system()
        assert (len(system.process_names), len(system.object_names)) == (10, 17)
        report = keyed_search(system, engine, state_cache, 12)
        assert report.stats.restores > 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    engine=st.sampled_from(["walk", "compiled"]),
    state_cache=st.sampled_from(["exact", "off"]),
)
def test_random_system_keys_match_the_full_encoding(seed, engine, state_cache):
    keyed_search(random_system(seed), engine, state_cache, 14)
