"""The :class:`ExecutionEngine` seam: one stepper contract, two engines.

A :class:`~repro.runtime.process.Process` drives its sequential program
through an *execution engine* — an explicit-state stepper that pauses at
every scheduling point and exposes checkpoint/restore over its control
state.  Two implementations satisfy the contract:

* ``"walk"`` — :class:`~repro.runtime.interp.Interpreter`, the
  tree-walking reference engine.  It executes CFG nodes one at a time
  and doubles as the differential-testing oracle for every other engine.
* ``"compiled"`` — :class:`~repro.runtime.compile.CompiledEngine`, which
  pre-translates each procedure's CFG into specialized Python closures
  (one op per CFG node, one divergence check per executed node, threaded
  dispatch, slot-indexed frames) and executes those instead.  Programs
  using constructs the compiler does not support (pointers) fall back
  to the walking engine transparently;
  :attr:`repro.runtime.system.Run.engine` records which engine actually
  runs.

The contract (structural; engines need not inherit anything):

``start()``
    Run the initial invisible prefix; return the first
    :class:`~repro.runtime.interp.Request` or ``None`` on termination.
``resume(value)``
    Answer the pending request; run to the next request or termination.
``snapshot()`` / ``restore(snap)``
    O(stack depth) control-state checkpointing.  The snapshot is a
    4-tuple ``(stack, node_ids, invisible_steps, pending)`` whose first
    element is sized (``len(snap[0])`` = activation-stack depth) — the
    checkpoint accounting in :meth:`~repro.runtime.system.Run.checkpoint`
    relies on that shape.  Value state is rewound separately by the
    :class:`~repro.runtime.journal.UndoJournal` the engine records its
    mutations into.
``state_fingerprint()``
    Hashable snapshot of the whole process state (stack + stores).
    Engines MUST produce byte-identical fingerprints for identical
    executions — state caching and counter parity depend on it.
``process_name`` / ``journal``
    For error reporting and the journal hooks.
``enable_trace()`` / ``take_trace()`` / ``control_nodes()``
    Coverage tracing: once enabled, every dispatched node is appended to
    a buffer as ``(proc_name, node_id)`` (recorded *before* execution,
    so a faulting node is included and its out-edge is not);
    ``take_trace`` drains the buffer, ``control_nodes`` reports the
    activation stack so :class:`repro.obs.coverage.CoverageCollector`
    can re-anchor after a checkpoint restore.  Traces are
    instruction-identical across engines.

Both engines are *exactly equivalent*: the same request sequence, the
same counters (invisible steps, journal entries), the same faults with
the same messages, the same fingerprints.  The differential tests in
``tests/verisoft/test_engine_parity.py`` enforce this.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from .interp import Request

#: The engine names :meth:`repro.runtime.system.System.start`,
#: :class:`repro.verisoft.search.SearchOptions` and ``repro search
#: --engine`` understand.
ENGINES = ("walk", "compiled")


@runtime_checkable
class ExecutionEngine(Protocol):
    """Structural protocol for process steppers (see module docstring)."""

    process_name: str
    journal: Any | None

    def start(self) -> Request | None: ...

    def resume(self, value: Any) -> Request | None: ...

    def snapshot(self) -> tuple: ...

    def restore(self, snap: tuple) -> None: ...

    def state_fingerprint(self) -> Any: ...

    def enable_trace(self) -> None: ...

    def take_trace(self) -> "list | tuple": ...

    def control_nodes(self) -> "list | tuple": ...


def validate_engine(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a known engine."""
    if name not in ENGINES:
        raise ValueError(
            f"unknown execution engine {name!r}; "
            f"expected one of {', '.join(ENGINES)}"
        )
