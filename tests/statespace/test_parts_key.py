"""The exact store's part-tuple key against the canonical bytes.

The exact state store keeps each state as the tuple of its parts
(``Run.state_parts``): the outer tuple header, one canonical encoding
per process, the middle header, one per object.  The encoding is
prefix-free and each part encodes one whole component, so two part
tuples of one system are equal exactly when their joined bytes are.
Here, in restore-mode DFS with the exact cache, with and without
``count_states``:

* every ``Run.state_parts`` call returns 2 + processes + objects parts
  whose join is ``encode_canonical(run.state_fingerprint())``;
* a checking store runs the bytes-keyed exact store beside the parts
  store, and both give the same answer on every visit and the same
  hits, misses and stored counts;
* the search's answers stay the same when no component encoding is
  shared (an empty component cache with no room) and on a pointer
  program, whose keys come from the full recomputation.

On bounded 5ESS at depth 12 (10 processes, 17 objects) on both engines,
and on Hypothesis-drawn random systems.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SearchOptions, System, run_search
from repro.runtime import fingerprint
from repro.runtime.fingerprint import encode_canonical
from repro.runtime.system import Run
from repro.statespace import ExactStore
from tests.verisoft.test_fuzz_differential import random_system
from tests.verisoft.test_incremental_analysis import fiveess_system


class BytesKeyedStore:
    """The exact store keyed by the joined canonical bytes: the
    reference the parts store must agree with."""

    def __init__(self) -> None:
        self.table: dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0

    def visit(self, key: bytes, remaining: int) -> bool:
        prev = self.table.get(key)
        if prev is not None and prev >= remaining:
            self.hits += 1
            return False
        self.table[key] = remaining
        self.misses += 1
        return True


class CheckedStore(ExactStore):
    """The parts store, checked against :class:`BytesKeyedStore` on
    every visit."""

    def __init__(self) -> None:
        super().__init__()
        self.reference = BytesKeyedStore()

    def visit(self, key, remaining: int) -> bool:
        answer = super().visit(key, remaining)
        reference = self.reference
        assert answer == reference.visit(b"".join(key), remaining)
        assert (self.hits, self.misses, self.states_stored) == (
            reference.hits,
            reference.misses,
            len(reference.table),
        )
        return answer


@contextmanager
def checked():
    """Check every ``Run.state_parts`` call and run every exact store as
    a :class:`CheckedStore`; yields ``(parts calls, stores)``."""
    calls: list[tuple] = []
    stores: list[CheckedStore] = []
    original_parts = Run.state_parts
    original_store = SearchOptions.make_state_store

    def state_parts(run):
        parts = original_parts(run)
        assert len(parts) == 2 + len(run.processes) + len(run.objects)
        assert b"".join(parts) == encode_canonical(run.state_fingerprint())
        calls.append(parts)
        return parts

    def make_state_store(options):
        if options.state_cache != "exact":
            return original_store(options)
        store = CheckedStore()
        stores.append(store)
        return store

    # Patched by hand, not through pytest's monkeypatch: Hypothesis runs
    # many examples within one test call.
    Run.state_parts = state_parts
    SearchOptions.make_state_store = make_state_store
    try:
        yield calls, stores
    finally:
        Run.state_parts = original_parts
        SearchOptions.make_state_store = original_store


@contextmanager
def component_cache(limit: int):
    """Run with an empty component cache holding at most ``limit``
    encodings; the cache's entries and limit come back afterwards."""
    cache = fingerprint._COMPONENT_CACHE
    saved, saved_limit = dict(cache), fingerprint._COMPONENT_LIMIT
    cache.clear()
    fingerprint._COMPONENT_LIMIT = limit
    try:
        yield
    finally:
        cache.clear()
        cache.update(saved)
        fingerprint._COMPONENT_LIMIT = saved_limit


def answers(report) -> tuple:
    """What a search found and how much the store pruned."""
    stats = report.stats
    return (
        report.summary(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_stored,
        [event.trace.choices for event in report.all_events()],
    )


def checked_search(system, engine, max_depth, count_states):
    """A checked restore-mode search with the exact cache: its report
    and its store."""
    options = SearchOptions(
        backtrack="restore",
        engine=engine,
        state_cache="exact",
        count_states=count_states,
        max_depth=max_depth,
    )
    with checked() as (calls, stores):
        report = run_search(system, options)
    assert report.stats.backtrack == "restore" and report.stats.engine == engine
    assert len(stores) == 1
    # One parts key per state for the store; count_states asks for the
    # joined key as well.
    per_state = 2 if count_states else 1
    assert len(calls) == per_state * report.states_visited
    return report, stores[0]


def shared_parts(store) -> tuple[int, int]:
    """``(distinct part objects, distinct part values)`` in ``store``."""
    parts = [part for key in store._table for part in key]
    return len({id(part) for part in parts}), len(set(parts))


@pytest.mark.parametrize("count_states", [False, True], ids=["store", "count-states"])
@pytest.mark.parametrize("engine", ["walk", "compiled"])
def test_fiveess_parts_match_the_canonical_bytes(engine, count_states):
    system = fiveess_system()
    assert (len(system.process_names), len(system.object_names)) == (10, 17)
    report, _ = checked_search(system, engine, 12, count_states)
    assert report.stats.restores > 0
    assert report.stats.cache_hits > 0
    if count_states:
        assert report.distinct_states == report.stats.cache_stored


@pytest.mark.parametrize("engine", ["walk", "compiled"])
def test_fiveess_answers_without_shared_parts(engine):
    with component_cache(fingerprint._COMPONENT_LIMIT):
        shared, shared_store = checked_search(fiveess_system(), engine, 12, False)
    with component_cache(0):
        unshared, unshared_store = checked_search(fiveess_system(), engine, 12, False)
    assert answers(unshared) == answers(shared)
    # With room in the cache every equal part is one object; without,
    # each re-encoded component is a new one.
    objects, values = shared_parts(shared_store)
    assert objects == values
    objects, values = shared_parts(unshared_store)
    assert objects > values


#: A pointer program: it gets no incremental fingerprinter, so its
#: parts come from the full recomputation.
POINTER_WORKERS = """
proc worker(n) {
    var x = 0;
    var p;
    p = &x;
    while (x < n) {
        sem_p(lock);
        *p = x + 1;
        sem_v(lock);
    }
}
"""


def pointer_system():
    system = System(POINTER_WORKERS)
    system.add_semaphore("lock", initial=1)
    for name in ("w1", "w2", "w3"):
        system.add_process(name, "worker", [2])
    return system


@pytest.mark.parametrize("count_states", [False, True], ids=["store", "count-states"])
def test_pointer_program_takes_the_full_recomputation(count_states):
    system = pointer_system()
    assert system.uses_pointers()
    assert system.start().fingerprinter is None
    report, _ = checked_search(system, "walk", 20, count_states)
    assert report.stats.cache_hits > 0
    with component_cache(0):
        unshared, _ = checked_search(pointer_system(), "walk", 20, count_states)
    assert answers(unshared) == answers(report)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    engine=st.sampled_from(["walk", "compiled"]),
    count_states=st.booleans(),
)
def test_random_system_parts_match_the_canonical_bytes(seed, engine, count_states):
    report, _ = checked_search(random_system(seed), engine, 14, count_states)
    with component_cache(0):
        unshared, _ = checked_search(random_system(seed), engine, 14, count_states)
    assert answers(unshared) == answers(report)
