"""The undo journal: O(changes) state restoration for the runtime.

VeriSoft-style search backtracks by re-executing the whole path prefix
from the initial state — replay is exact because the runtime is
deterministic, but it spends the majority of deep searches executing
transitions the explorer has already seen.  The undo journal makes the
*inverse* operation cheap instead: every mutation of visible runtime
state (a memory cell write, a frame/record entry creation, a channel
enqueue/dequeue, a semaphore bump, a shared-variable write) appends one
entry recording how to undo it, and restoring to an earlier checkpoint
pops and applies the inverses in reverse order.

Design invariants (see ``docs/backtracking.md``):

* **Completeness** — every mutation reachable from a
  :class:`~repro.runtime.system.Run` after :meth:`mark` is journaled, so
  :meth:`rewind` reproduces the marked state *bit-identically*: the same
  ``state_fingerprint()``, the same object identities (cells, frames and
  activations are restored in place, never rebuilt, so live pointers
  stay valid).
* **Value/control split** — the journal records *value* mutations only.
  Control state (per-process call stacks, CFG positions, pending
  requests) changes on every invisible step and would swamp the journal;
  it is captured instead as a shallow per-checkpoint snapshot
  (:meth:`repro.runtime.process.Process.snapshot`), which costs O(stack
  depth) per checkpoint rather than O(1) per step.
* **Cost** — recording is one append per mutation; rewinding is
  O(entries since the mark), never O(path depth).

Entries are plain tuples tagged by kind, dispatched in :meth:`rewind`:

========== ============================ ===========================
tag        recorded                     inverse
========== ============================ ===========================
CELL       (cell, old value)            ``cell.value = old``
ATTR       (obj, attr name, old value)  ``setattr(obj, name, old)``
DICT_NEW   (mapping, new key)           ``del mapping[key]``
APPEND     (sequence,)                  ``sequence.pop()``
POPLEFT    (deque, popped value)        ``deque.appendleft(value)``
SLOT       (slot list, index)           ``slots[index] = None``
========== ============================ ===========================

``SLOT`` is the slot-frame counterpart of ``DICT_NEW``: the compiled
engine's :class:`~repro.runtime.compile.SlotFrame` packs a frame's cells
into a flat array, so declaring a variable fills a slot (undone by
clearing it) instead of inserting a dict key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# Entry tags (module-level ints: cheaper to build and dispatch than an
# Enum in the journal hot path).
_CELL = 0
_ATTR = 1
_DICT_NEW = 2
_APPEND = 3
_POPLEFT = 4
_SLOT = 5

#: Accounting-model cost of one journal entry (a small tuple plus its
#: references), used for the ``checkpoint_memory_bytes`` telemetry —
#: an estimate in the same spirit as the state stores'
#: ``memory_bytes`` accounting, not a measured allocation.
ENTRY_BYTES = 72


class UndoJournal:
    """An append-only log of inverse operations over runtime state."""

    __slots__ = (
        "_entries",
        "entries_recorded",
        "entries_undone",
        "restores",
        "peak_entries",
    )

    def __init__(self) -> None:
        self._entries: list[tuple] = []
        #: Total entries ever recorded (monotonic; telemetry).
        self.entries_recorded = 0
        #: Total entries popped-and-applied by :meth:`rewind`.
        self.entries_undone = 0
        #: Number of :meth:`rewind` calls.
        self.restores = 0
        #: High-water mark of the live entry count.
        self.peak_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- recording (the runtime's mutation hot path) -------------------------

    def record_cell(self, cell: Any) -> None:
        """The cell's value is about to be overwritten."""
        self._entries.append((_CELL, cell, cell.value))
        self.entries_recorded += 1

    def record_attr(self, obj: Any, name: str) -> None:
        """``obj.<name>`` is about to be overwritten."""
        self._entries.append((_ATTR, obj, name, getattr(obj, name)))
        self.entries_recorded += 1

    def record_new_key(self, mapping: dict, key: Any) -> None:
        """``key`` is about to be inserted into ``mapping`` (not present)."""
        self._entries.append((_DICT_NEW, mapping, key))
        self.entries_recorded += 1

    def record_append(self, sequence: Any) -> None:
        """A value is about to be appended to ``sequence`` (list/deque)."""
        self._entries.append((_APPEND, sequence))
        self.entries_recorded += 1

    def record_popleft(self, queue: Any, value: Any) -> None:
        """``value`` was just popped from the left of ``queue``."""
        self._entries.append((_POPLEFT, queue, value))
        self.entries_recorded += 1

    def record_slot(self, slots: list, index: int) -> None:
        """Slot ``index`` (currently empty) is about to be filled."""
        self._entries.append((_SLOT, slots, index))
        self.entries_recorded += 1

    # -- checkpoints ---------------------------------------------------------

    def mark(self) -> int:
        """The current journal position, to :meth:`rewind` to later."""
        length = len(self._entries)
        if length > self.peak_entries:
            self.peak_entries = length
        return length

    def rewind(self, mark: int) -> None:
        """Pop-and-apply inverses until the journal is back at ``mark``."""
        entries = self._entries
        length = len(entries)
        if length > self.peak_entries:
            self.peak_entries = length
        if mark > length:
            raise ValueError(
                f"cannot rewind forward: mark {mark} is past the journal "
                f"end ({length})"
            )
        self.restores += 1
        undone = length - mark
        while len(entries) > mark:
            entry = entries.pop()
            tag = entry[0]
            if tag == _CELL:
                entry[1].value = entry[2]
            elif tag == _ATTR:
                setattr(entry[1], entry[2], entry[3])
            elif tag == _DICT_NEW:
                del entry[1][entry[2]]
            elif tag == _APPEND:
                entry[1].pop()
            elif tag == _POPLEFT:
                entry[1].appendleft(entry[2])
            else:  # _SLOT
                entry[1][entry[2]] = None
        self.entries_undone += undone

    # -- telemetry -----------------------------------------------------------

    def peak_memory_bytes(self) -> int:
        """Accounting-model footprint of the journal at its high-water
        mark (see :data:`ENTRY_BYTES`)."""
        return self.peak_entries * ENTRY_BYTES


@dataclass(slots=True)
class RunCheckpoint:
    """A restorable point of a journaled :class:`~repro.runtime.system.Run`.

    Pairs a journal ``mark`` (covering every *value* mutation) with one
    opaque control-state snapshot per process (stack shape, CFG
    positions, pending request — see
    :meth:`~repro.runtime.process.Process.snapshot`).  Produced by
    :meth:`Run.checkpoint`, consumed by :meth:`Run.restore`; restoring
    twice from the same checkpoint is supported (snapshots are never
    mutated).  Immutable by contract: nothing writes a field after
    construction (the record is not frozen only because frozen
    dataclasses pay ``object.__setattr__`` per field on creation).
    """

    mark: int
    processes: tuple[Any, ...]
    #: Accounting-model footprint of this checkpoint (for telemetry).
    approx_bytes: int = 0
    #: Incremental-fingerprint parts and stale set captured with the
    #: checkpoint (:meth:`repro.runtime.fingerprint.RunFingerprinter.snapshot`),
    #: or ``None`` when the run has no fingerprinter or has not keyed a
    #: state yet.  The journal rewinds value state *underneath* the
    #: parts, so restore must reinstall those taken with the mark.
    fingerprints: tuple | None = None
