"""The store implementations, independent of any explorer.

Stores see only keys and depth budgets.  A key is a tuple of byte
parts (``Run.state_parts``: the canonical encodings of a state's
processes and objects between two tuple headers), so stores can be
tested exhaustively with synthetic part tuples; the search-level
behaviour lives in ``test_cached_search.py``.
"""

import sys

import pytest

from repro.statespace import (
    STORE_KINDS,
    ExactStore,
    HashCompactStore,
    make_store,
)
from repro.statespace.snapshot import digest64

S1 = (b"s", b"1")


class TestExactStore:
    def test_first_visit_expands_revisit_prunes(self):
        store = ExactStore()
        assert store.visit(S1, 10) is True
        assert store.visit(S1, 10) is False
        assert store.visit(S1, 5) is False  # smaller budget: still pruned
        assert (store.hits, store.misses) == (2, 1)
        assert store.states_stored == 1

    def test_larger_budget_forces_reexpansion(self):
        # A state first met near the depth bound has an under-explored
        # subtree; a shallower revisit must be expanded again or the
        # bound would silently eat coverage.
        store = ExactStore()
        assert store.visit(S1, 3) is True
        assert store.visit(S1, 8) is True
        assert store.visit(S1, 8) is False  # budget now remembered
        assert store.misses == 2

    def test_memory_charges_key_bytes(self):
        # Each key is charged at its tuple's size plus 8 bookkeeping
        # bytes, and each distinct part once: the two keys share
        # ``head``, which is charged once.
        store = ExactStore()
        head = b"h" * 10
        store.visit((head, b"x" * 100), 1)
        store.visit((head, b"y" * 50), 1)
        assert store.states_stored == 2
        pair = sys.getsizeof((head, head))
        expected = 2 * (pair + 8) + 10 + 100 + 50
        assert store.memory_bytes == expected
        # Re-expanding an existing key must not double-charge it.
        store.visit((head, b"x" * 100), 9)
        assert store.memory_bytes == expected

    def test_distinct_keys_never_collide(self):
        store = ExactStore()
        keys = [(bytes([i]), bytes([j])) for i in range(16) for j in range(16)]
        assert all(store.visit(k, 1) for k in keys)
        assert store.states_stored == len(keys)


class TestHashCompactStore:
    def test_visit_semantics_match_exact(self):
        store = HashCompactStore()
        assert store.visit(S1, 10) is True
        assert store.visit(S1, 10) is False
        assert store.visit(S1, 20) is True  # depth-aware, like exact
        assert store.states_stored == 1

    def test_sixteen_bytes_per_state_regardless_of_key_size(self):
        store = HashCompactStore()
        store.visit((b"k" * 10_000,), 1)
        store.visit((b"ti", b"ny"), 1)
        assert store.memory_bytes == 32
        assert store.memory_bytes / store.states_stored == 16.0

    def test_digests_the_joined_parts(self):
        # The digest is that of the canonical snapshot bytes, however
        # they are split into parts.
        store = HashCompactStore()
        store.visit(S1, 1)
        assert list(store._table) == [digest64(b"s1")]
        assert store.visit((b"s1",), 1) is False


class TestMakeStore:
    def test_off_means_no_store(self):
        assert make_store("off") is None

    @pytest.mark.parametrize(
        "kind, cls",
        [("exact", ExactStore), ("hashcompact", HashCompactStore)],
    )
    def test_dispatch(self, kind, cls):
        store = make_store(kind)
        assert isinstance(store, cls)
        assert store.kind == kind
        assert store.config()["store"] == kind

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown state store"):
            make_store("lru")

    def test_store_kinds_is_the_cli_vocabulary(self):
        assert STORE_KINDS == ("off", "exact", "hashcompact")

    def test_describe_mentions_counts(self):
        store = make_store("exact")
        store.visit((b"k",), 1)
        store.visit((b"k",), 1)
        text = store.describe()
        assert "1 states" in text and "1 hits" in text
