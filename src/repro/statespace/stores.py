"""Pluggable visited-state stores.

Every store answers one question — *"have I already expanded this
state, or must I explore it (again)?"* — through a single call,
:meth:`StateStore.visit`.  The two implementations trade memory for
soundness exactly like the SPIN family:

=========================  ===========================  ===========================
store                      memory per state             can wrongly prune?
=========================  ===========================  ===========================
:class:`ExactStore`        part tuple (~300 B on 5ESS)  never
:class:`HashCompactStore`  16 bytes                     on a 64-bit digest collision
=========================  ===========================  ===========================

A state's key is the tuple of its *parts*
(:meth:`~repro.runtime.system.Run.state_parts`): the canonical
encodings of its processes and objects between two tuple headers.
Equal parts are one shared ``bytes`` object, so the exact store keeps
each state as a vector of references to component encodings stored
once — SPIN's collapse compression, with the shared strings as the
index (Holzmann 1997).  The parts join into the canonical snapshot
bytes, which is what hash compaction digests.

Depth awareness: the explorer searches under a depth bound, so a state
first reached near the bound has a *shallower* explored subtree than
the bound allows from a shallower revisit.  Both stores therefore
remember the largest *remaining depth budget* a state was expanded
with and force re-expansion when a revisit arrives with more budget —
revisits never lose coverage to the depth bound.

Stores deliberately know nothing about the explorer; they see part
tuples and budgets.  Construction from CLI-level configuration goes
through :func:`make_store` so the search layer and the parallel workers
build identical stores from one picklable description.
"""

from __future__ import annotations

import sys

from .snapshot import digest64

#: The store kinds :func:`make_store` understands (``"off"`` → ``None``).
STORE_KINDS = ("off", "exact", "hashcompact")

#: Bookkeeping bytes per dict entry charged by the accounting model (the
#: stored remaining-depth integer); keys are charged at their real size.
_ENTRY_OVERHEAD = 8

#: A state key: the canonical encodings of the state's parts, in order.
Key = tuple[bytes, ...]


class StateStore:
    """Interface of a visited-state store.

    Counters (all monotone):

    * :attr:`misses` — visits that led to expansion: first visits, plus
      revisits re-expanded because they arrived with a larger remaining
      depth budget;
    * :attr:`hits` — revisits pruned;
    * :attr:`states_stored` — distinct states currently stored;
    * :attr:`memory_bytes` — the store's accounting-model footprint
      (documented per store; comparable across stores, not a measured
      RSS).
    """

    kind = "abstract"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def visit(self, key: Key, remaining: int) -> bool:
        """Record a visit to the state ``key`` with ``remaining`` depth
        budget below it; return ``True`` when the explorer must expand
        the state, ``False`` when the subtree can be pruned."""
        raise NotImplementedError

    @property
    def states_stored(self) -> int:
        raise NotImplementedError

    @property
    def memory_bytes(self) -> int:
        raise NotImplementedError

    def config(self) -> dict:
        """JSON-able store description (recorded on reports/traces)."""
        return {"store": self.kind}

    def describe(self) -> str:
        per_state = (
            self.memory_bytes / self.states_stored if self.states_stored else 0.0
        )
        return (
            f"{self.kind}: {self.states_stored} states, "
            f"{self.hits} hits / {self.misses} misses, "
            f"{self.memory_bytes} B ({per_state:.1f} B/state)"
        )


class ExactStore(StateStore):
    """Full-snapshot store: sound revisit detection, largest footprint.

    Maps each state's part tuple to the largest remaining depth budget
    it was expanded with.  Two part tuples of one system are equal
    exactly when their joined snapshots are, so the store is as exact
    as one keyed by the snapshot bytes.  Memory model: every stored key
    is charged at ``sys.getsizeof`` of its tuple (40 B + 8 B per part
    on 64-bit CPython 3.11) plus ``8`` bookkeeping bytes, and every
    distinct part once, at its byte length.  Equal parts are one shared
    object while the component cache has room; past its
    ``_COMPONENT_LIMIT`` (:mod:`repro.runtime.fingerprint`) repeats
    are separate objects, and the model undercounts them.
    """

    kind = "exact"

    def __init__(self) -> None:
        super().__init__()
        self._table: dict[Key, int] = {}

    def visit(self, key: Key, remaining: int) -> bool:
        prev = self._table.get(key)
        if prev is not None and prev >= remaining:
            self.hits += 1
            return False
        self._table[key] = remaining
        self.misses += 1
        return True

    @property
    def states_stored(self) -> int:
        return len(self._table)

    @property
    def memory_bytes(self) -> int:
        # Computed when asked, so a visit stays one lookup and one store.
        table = self._table
        return (
            sum(map(sys.getsizeof, table))
            + _ENTRY_OVERHEAD * len(table)
            + sum(map(len, set().union(*table)))
        )


class HashCompactStore(StateStore):
    """Hash-compaction store: 64-bit digests instead of snapshots.

    Wolper/Leroy hash compaction — 16 bytes per state (8 B digest +
    8 B remaining-depth budget) regardless of snapshot size.  A digest
    collision makes a genuinely new state look like a revisit and
    wrongly prunes it; with ``n`` states the probability of *any*
    collision is about ``n² / 2⁶⁵`` (≈ 5·10⁻¹⁰ at a million states).
    """

    kind = "hashcompact"

    def __init__(self) -> None:
        super().__init__()
        self._table: dict[int, int] = {}

    def visit(self, key: Key, remaining: int) -> bool:
        digest = digest64(b"".join(key))
        prev = self._table.get(digest)
        if prev is not None and prev >= remaining:
            self.hits += 1
            return False
        self._table[digest] = remaining
        self.misses += 1
        return True

    @property
    def states_stored(self) -> int:
        return len(self._table)

    @property
    def memory_bytes(self) -> int:
        return 16 * len(self._table)


def make_store(kind: str) -> StateStore | None:
    """Build a store from CLI-level configuration.

    ``kind`` is one of :data:`STORE_KINDS`; ``"off"`` returns ``None``
    (the explorer then runs pure stateless search).
    """
    if kind == "off":
        return None
    if kind == "exact":
        return ExactStore()
    if kind == "hashcompact":
        return HashCompactStore()
    raise ValueError(
        f"unknown state store {kind!r}; expected one of {', '.join(STORE_KINDS)}"
    )
