"""The :class:`Process` wrapper: one sequential program under scheduler
control.

A process owns an execution engine — any implementation of the
:class:`~repro.runtime.engine.ExecutionEngine` stepper contract, the
tree-walking :class:`~repro.runtime.interp.Interpreter` or the
:class:`~repro.runtime.compile.CompiledEngine` — and tracks where it
currently stands:

* ``AT_VISIBLE`` — stopped just before a visible operation (the paper's
  global-state condition is "the next operation of every process is
  visible");
* ``NEEDS_TOSS`` — stopped at a ``VS_toss`` choice point (an *invisible*
  nondeterministic operation inside a transition);
* ``TERMINATED`` — the top-level procedure returned/exited; per the
  paper, termination in the top level is permanently blocking;
* ``CRASHED`` — a :class:`RuntimeFault` occurred (unspecified behaviour);
* ``DIVERGED`` — the invisible-step budget was exhausted.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from .errors import DivergenceError, ProcessCrash, RuntimeFault
from .interp import Request, TossRequest, VisibleRequest

if TYPE_CHECKING:
    from .engine import ExecutionEngine


class ProcessStatus(enum.Enum):
    """Where a process currently stands (see the module docstring)."""
    AT_VISIBLE = "at-visible"
    NEEDS_TOSS = "needs-toss"
    TERMINATED = "terminated"
    CRASHED = "crashed"
    DIVERGED = "diverged"


# The statuses as module globals.  On CPython 3.11 every
# ``ProcessStatus.X`` read goes through the enum metaclass's
# ``__getattr__`` hook, about ten times the cost of reading a global,
# and the search tests a status at every step.
_AT_VISIBLE, _NEEDS_TOSS, _TERMINATED, _CRASHED, _DIVERGED = (
    ProcessStatus.AT_VISIBLE,
    ProcessStatus.NEEDS_TOSS,
    ProcessStatus.TERMINATED,
    ProcessStatus.CRASHED,
    ProcessStatus.DIVERGED,
)


class Process:
    """A running process: engine stepper + status + pending request."""

    def __init__(self, name: str, interpreter: "ExecutionEngine"):
        self.name = name
        self._interpreter = interpreter
        self.status: ProcessStatus | None = None  # None until start()
        self.pending: Request | None = None
        self.crash: Exception | None = None
        #: Memoised :meth:`snapshot` tuple — valid until the next step or
        #: restore, making repeated checkpoints of a parked process O(1).
        self._snap: tuple | None = None

    @property
    def engine(self) -> "ExecutionEngine":
        """The execution engine stepping this process."""
        return self._interpreter

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Run the initial invisible prefix up to the first request."""
        self._snap = None
        try:
            request = self._interpreter.start()
        except (DivergenceError, RuntimeFault) as err:
            self._fail(err)
            return
        self.pending = request
        if request is None:
            self.status = _TERMINATED
        elif request.__class__ is TossRequest:
            self.status = _NEEDS_TOSS
        else:
            self.status = _AT_VISIBLE

    def resume(self, value: Any = None) -> None:
        """Answer the pending request with ``value`` and run to the next one."""
        # The same steps as :meth:`start`, inlined: the search resumes a
        # process once per transition and per toss answer.
        status = self.status
        if status is not _AT_VISIBLE and status is not _NEEDS_TOSS:
            raise RuntimeError(f"cannot resume process {self.name!r} in status {status}")
        self._snap = None
        try:
            request = self._interpreter.resume(value)
        except (DivergenceError, RuntimeFault) as err:
            self._fail(err)
            return
        self.pending = request
        if request is None:
            self.status = _TERMINATED
        elif request.__class__ is TossRequest:
            self.status = _NEEDS_TOSS
        else:
            self.status = _AT_VISIBLE

    def _fail(self, err: Exception) -> None:
        """The engine raised: a divergence or a runtime fault."""
        self.pending = None
        if isinstance(err, DivergenceError):
            self.status = _DIVERGED
            self.crash = err
        else:
            self.status = _CRASHED
            self.crash = ProcessCrash(self.name, err)

    # -- checkpoint / restore -----------------------------------------------------

    def snapshot(self) -> tuple:
        """Control-state snapshot for restore-based backtracking.

        O(stack depth); pairs the scheduler-facing state (status, pending
        request, crash record) with the interpreter's own snapshot.  Value
        state is rewound separately by the undo journal.

        Memoised: a process that has not stepped since the last snapshot
        returns the same tuple (snapshots are immutable by contract), so
        checkpointing a mostly-parked system is O(moved processes).
        """
        snap = self._snap
        if snap is None:
            snap = (self.status, self.pending, self.crash, self._interpreter.snapshot())
            self._snap = snap
        return snap

    def restore(self, snap: tuple) -> None:
        """Rewind to a :meth:`snapshot` (repeatable; safe after crashes)."""
        self._snap = snap  # the state now *is* this snapshot — reseed the memo
        self.status, self.pending, self.crash, interp_snap = snap
        self._interpreter.restore(interp_snap)

    # -- queries -------------------------------------------------------------------

    @property
    def visible_request(self) -> VisibleRequest | None:
        if isinstance(self.pending, VisibleRequest):
            return self.pending
        return None

    @property
    def toss_request(self) -> TossRequest | None:
        if isinstance(self.pending, TossRequest):
            return self.pending
        return None

    def is_blocked_forever(self) -> bool:
        """Terminated, crashed and diverged processes never run again."""
        status = self.status
        return status is _TERMINATED or status is _CRASHED or status is _DIVERGED

    def enabled(self) -> bool:
        """Whether the pending visible operation may currently execute."""
        request = self.visible_request
        if request is None:
            return False
        if request.obj is None:  # VS_assert is always enabled
            return True
        return request.obj.enabled(request.op)

    def state_fingerprint(self) -> Any:
        base: tuple[Any, ...] = (self.name, self.status.value if self.status else "new")
        if self.status is _AT_VISIBLE or self.status is _NEEDS_TOSS:
            return base + (self._interpreter.state_fingerprint(),)
        return base

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {self.status and self.status.value}>"
