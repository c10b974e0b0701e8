"""Communication objects: shared variables, semaphores, FIFO channels.

These realise Section 2's communication objects ``O = (V, OP)``.  The
crucial invariant — enforced by construction here — is that
**enabledness is a function of the operation history only**: whether
``send``/``recv``/``sem_p`` may proceed depends on counts of past
operations (queue occupancy, semaphore value), never on transmitted
values.  The explorer relies on this when it proves that the closed
program preserves blocking behaviour (Theorem 6 / 7 of the paper).

:class:`EnvSink` models an output channel *to the most general
environment*: since the environment "can take any output at any time",
sends on it are always enabled and the payload is simply recorded as an
observable output event.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .errors import ObjectError
from .values import copy_value, fingerprint


class CommunicationObject:
    """Base class: a named object supporting visible operations.

    The contract a subclass keeps: its state changes only inside
    :meth:`perform`, and :meth:`state_fingerprint` reads only that
    state.  The run marks an object stale for the incremental state key
    (:class:`~repro.runtime.fingerprint.RunFingerprinter`) whenever it
    performs an operation on it, so a subclass has nothing to report.
    """

    kind = "object"
    #: Whether every mutation in :meth:`perform` records its inverse in
    #: :attr:`journal` — the contract restore-based backtracking needs.
    #: Subclasses (including user-defined ones) must opt in explicitly;
    #: the explorer falls back to replay when any object is unjournalable.
    journalable = False

    def __init__(self, name: str):
        self.name = name
        #: The :class:`~repro.runtime.journal.UndoJournal` mutations are
        #: recorded into (``None`` = journaling off; set by
        #: :meth:`System.start`).
        self.journal = None

    def enabled(self, op: str) -> bool:
        """Whether ``op`` may currently be executed (history-only)."""
        raise NotImplementedError

    def perform(self, op: str, args: tuple[Any, ...]) -> Any:
        """Execute ``op``; only called when :meth:`enabled` is true."""
        raise NotImplementedError

    def state_fingerprint(self) -> Any:
        """Hashable snapshot of the object state (for state counting)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FifoChannel(CommunicationObject):
    """A bounded FIFO message buffer.

    ``send`` enqueues (blocking when ``len(queue) == capacity``); ``recv``
    dequeues (blocking when empty); ``poll`` returns the current queue
    length without blocking.
    """

    kind = "channel"
    journalable = True

    def __init__(self, name: str, capacity: int = 1):
        super().__init__(name)
        if capacity < 1:
            raise ObjectError(f"channel {name!r}: capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.queue: deque[Any] = deque()

    def enabled(self, op: str) -> bool:
        if op == "send":
            return len(self.queue) < self.capacity
        if op == "recv":
            return len(self.queue) > 0
        if op == "poll":
            return True
        raise ObjectError(f"channel {self.name!r} does not support operation {op!r}")

    def perform(self, op: str, args: tuple[Any, ...]) -> Any:
        if op == "send":
            if self.journal is not None:
                self.journal.record_append(self.queue)
            self.queue.append(copy_value(args[0]))
            return None
        if op == "recv":
            value = self.queue.popleft()
            if self.journal is not None:
                self.journal.record_popleft(self.queue, value)
            return value
        if op == "poll":
            return len(self.queue)
        raise ObjectError(f"channel {self.name!r} does not support operation {op!r}")

    def state_fingerprint(self) -> Any:
        return ("channel", self.name, tuple(fingerprint(v) for v in self.queue))


class EnvSink(CommunicationObject):
    """An output channel into the most general environment.

    The most general environment accepts any output at any time, so
    ``send`` never blocks.  Sent values are appended to
    :attr:`outputs` — the *visible output trace* used by the behaviour-
    comparison tests and the Figure 2 / Figure 3 benchmarks.  ``recv``
    is deliberately unsupported: inputs from the environment are part of
    the open interface and must be declared as such (extern procedures
    or env channels), not read back from a sink.
    """

    kind = "channel"
    journalable = True

    def __init__(self, name: str, record_outputs: bool = True, visible_in_state: bool = False):
        super().__init__(name)
        self.record_outputs = record_outputs
        #: When true, the output history is part of the state fingerprint
        #: (useful for behaviour-set comparisons); when false, a sink
        #: send does not grow the state space.
        self.visible_in_state = visible_in_state
        self.outputs: list[Any] = []

    def enabled(self, op: str) -> bool:
        if op == "send":
            return True
        if op == "poll":
            return True
        raise ObjectError(
            f"environment sink {self.name!r} does not support operation {op!r}"
        )

    def perform(self, op: str, args: tuple[Any, ...]) -> Any:
        if op == "send":
            if self.record_outputs:
                if self.journal is not None:
                    self.journal.record_append(self.outputs)
                self.outputs.append(copy_value(args[0]))
            return None
        if op == "poll":
            return 0
        raise ObjectError(
            f"environment sink {self.name!r} does not support operation {op!r}"
        )

    def state_fingerprint(self) -> Any:
        if self.visible_in_state:
            return ("sink", self.name, tuple(fingerprint(v) for v in self.outputs))
        return ("sink", self.name)


class Semaphore(CommunicationObject):
    """A counting semaphore.  ``sem_p`` blocks when the count is zero."""

    kind = "semaphore"
    journalable = True

    def __init__(self, name: str, initial: int = 1):
        super().__init__(name)
        if initial < 0:
            raise ObjectError(f"semaphore {name!r}: initial count must be >= 0")
        self.count = initial

    def enabled(self, op: str) -> bool:
        if op == "sem_p":
            return self.count > 0
        if op == "sem_v":
            return True
        raise ObjectError(f"semaphore {self.name!r} does not support operation {op!r}")

    def perform(self, op: str, args: tuple[Any, ...]) -> Any:
        if op == "sem_p":
            if self.journal is not None:
                self.journal.record_attr(self, "count")
            self.count -= 1
            return None
        if op == "sem_v":
            if self.journal is not None:
                self.journal.record_attr(self, "count")
            self.count += 1
            return None
        raise ObjectError(f"semaphore {self.name!r} does not support operation {op!r}")

    def state_fingerprint(self) -> Any:
        return ("semaphore", self.name, self.count)


class SharedVar(CommunicationObject):
    """A shared variable with always-enabled atomic ``read``/``write``."""

    kind = "shared"
    journalable = True

    def __init__(self, name: str, initial: Any = 0):
        super().__init__(name)
        self.value = initial

    def enabled(self, op: str) -> bool:
        if op in ("read", "write"):
            return True
        raise ObjectError(f"shared variable {self.name!r} does not support operation {op!r}")

    def perform(self, op: str, args: tuple[Any, ...]) -> Any:
        if op == "read":
            return copy_value(self.value)
        if op == "write":
            if self.journal is not None:
                self.journal.record_attr(self, "value")
            self.value = copy_value(args[0])
            return None
        raise ObjectError(f"shared variable {self.name!r} does not support operation {op!r}")

    def state_fingerprint(self) -> Any:
        return ("shared", self.name, fingerprint(self.value))
