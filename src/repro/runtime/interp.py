"""The deterministic CFG interpreter — the *reference* execution engine.

Each process executes its control-flow graphs directly (the closing
transformation produces CFGs, and executing them natively avoids any
restructuring step).  Of the two implementations of the
:class:`~repro.runtime.engine.ExecutionEngine` contract this is the
walking one (``engine="walk"``): maximally direct, handling every
construct (including pointers), and serving as the differential-testing
oracle that the compiled engine (:mod:`repro.runtime.compile`,
``engine="compiled"``) is held equivalent to — same requests, same
counters, same faults, same fingerprints.  The interpreter is an
*explicit-state stepper* that pauses at every scheduling point:

* :class:`VisibleRequest` — the process attempts a visible operation
  (a communication-object operation or ``VS_assert``); the scheduler
  decides when/whether it proceeds and passes the operation result to
  :meth:`Interpreter.resume`;
* :class:`TossRequest` — the process executes ``VS_toss(n)``; the
  scheduler resumes with the chosen value in ``[0, n]``.

Everything between two pauses is *invisible* and deterministic, matching
the paper's definition of a process transition ("one visible operation
followed by a finite sequence of invisible operations ... ending just
before a visible operation").  An invisible-step budget turns runaway
invisible loops into :class:`DivergenceError` (the paper's footnote-1
divergence report).

The stepper keeps its whole continuation as plain data — the activation
stack, the per-activation CFG positions and a pending-resumption tag —
instead of a suspended Python generator frame.  That is what makes
processes *checkpointable*: :meth:`Interpreter.snapshot` /
:meth:`Interpreter.restore` rewind the control state in O(stack depth),
and the value state is rewound by the
:class:`~repro.runtime.journal.UndoJournal` the interpreter records its
mutations into (when the run was started with journaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..cfg.graph import ControlFlowGraph
from ..cfg.nodes import (
    AlwaysGuard,
    BoolGuard,
    CaseGuard,
    CfgNode,
    DefaultGuard,
    NodeKind,
    TossGuard,
)
from ..lang import ast
from .errors import DivergenceError, ObjectError, RuntimeFault, TossDomainError
from .objects import CommunicationObject
from .ops import BUILTIN_OPERATIONS, CHANNEL_OPS, SEMAPHORE_OPS, SHARED_VAR_OPS
from .store import Frame
from .values import (
    TOP,
    ArrayValue,
    Cell,
    ObjectRef,
    Pointer,
    RecordValue,
    values_equal,
)


@dataclass(frozen=True, slots=True)
class VisibleRequest:
    """The process is about to perform a visible operation."""

    op: str
    obj: CommunicationObject | None  # None for VS_assert
    args: tuple[Any, ...]
    node_id: int
    proc_name: str
    #: The request's interned transition signature, filled on first use
    #: by :func:`repro.verisoft.por.intern_signature`; no part of the
    #: request's value.
    sig: Any = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class TossRequest:
    """The process is executing ``VS_toss(bound)`` and needs a value."""

    bound: int
    node_id: int
    proc_name: str


Request = VisibleRequest | TossRequest

# The node kinds ``_advance`` dispatches on, as module globals: on
# CPython 3.11 a ``NodeKind.X`` read goes through the enum metaclass's
# ``__getattr__`` hook, about ten times the cost of a global.
_START, _ASSIGN, _COND, _TOSS, _CALL, _RETURN, _EXIT = (
    NodeKind.START,
    NodeKind.ASSIGN,
    NodeKind.COND,
    NodeKind.TOSS,
    NodeKind.CALL,
    NodeKind.RETURN,
    NodeKind.EXIT,
)

_ARITH_OPS = {"+", "-", "*", "/", "%"}
_ORDER_OPS = {"<", "<=", ">", ">="}

# Pending-resumption tags: what kind of request the interpreter paused
# on, i.e. how the scheduler's answer must be applied on resume.
_RESUME_TOSS_NODE = 0  # a NodeKind.TOSS node (closed-away toss branch)
_RESUME_TOSS_CALL = 1  # VS_toss as a call statement
_RESUME_VISIBLE = 2  # a visible operation


@dataclass(slots=True)
class _Activation:
    """One frame of the call stack."""

    cfg: ControlFlowGraph
    frame: Frame
    node_id: int
    # Where to store the callee's return value once this activation pops.
    result_cell: Cell | None


class Interpreter:
    """Executes one process over a family of CFGs.

    Parameters:
        cfgs: procedure name -> CFG for the whole program.
        top_proc: name of the process's top-level procedure.
        args: values bound to the top-level procedure's parameters.
        objects: the system's communication-object registry.
        divergence_budget: max invisible node executions between pauses.
        process_name: for error reporting.
        journal: an :class:`~repro.runtime.journal.UndoJournal` recording
            inverse operations for every store mutation (``None`` = no
            journaling; zero overhead beyond one ``is not None`` branch
            per mutation).
    """

    def __init__(
        self,
        cfgs: dict[str, ControlFlowGraph],
        top_proc: str,
        args: tuple[Any, ...],
        objects: dict[str, CommunicationObject],
        divergence_budget: int = 100_000,
        process_name: str = "<process>",
        max_call_depth: int = 512,
        journal: Any | None = None,
    ):
        if top_proc not in cfgs:
            raise RuntimeFault(f"unknown top-level procedure {top_proc!r}")
        top_cfg = cfgs[top_proc]
        if len(args) != len(top_cfg.params):
            raise RuntimeFault(
                f"process {process_name!r}: {top_proc} expects "
                f"{len(top_cfg.params)} arguments, got {len(args)}"
            )
        self._cfgs = cfgs
        self._objects = objects
        self._budget = divergence_budget
        self._max_call_depth = max_call_depth
        self.process_name = process_name
        self.journal = journal
        frame = Frame(top_proc, journal=journal)
        for param, value in zip(top_cfg.params, args):
            frame.declare(param, value)
        self._stack: list[_Activation] = [
            _Activation(cfg=top_cfg, frame=frame, node_id=top_cfg.start_id, result_cell=None)
        ]
        self._invisible_steps = 0
        #: The paused continuation: ``(tag, activation, node, spec)`` with
        #: ``tag`` one of the ``_RESUME_*`` constants, or ``None`` while
        #: running / after termination.  Plain data, so it snapshots.
        self._pending: tuple | None = None
        #: Node-trace buffer for coverage collection (``None`` = off).
        #: ``_advance`` appends ``(proc_name, node_id)`` for every node it
        #: dispatches; drained by :meth:`take_trace`.
        self._trace: list | None = None

    # -- public API ------------------------------------------------------------

    def start(self) -> Request | None:
        """Run the initial invisible prefix up to the first request.

        Returns the request the process paused on, or ``None`` when the
        process ran to termination without one — per the paper, a
        terminated process is permanently blocking.
        """
        return self._advance()

    def resume(self, value: Any) -> Request | None:
        """Answer the pending request with ``value`` and run on to the
        next request (or to termination, returning ``None``)."""
        tag, activation, node, spec = self._pending
        self._pending = None
        if tag == _RESUME_VISIBLE:
            self._invisible_steps = 0
            if spec.returns_value:
                self._store_result(activation, node, value)
            activation.node_id = self._follow_always(activation, node)
        elif tag == _RESUME_TOSS_NODE:
            # VS_toss is invisible: it does NOT reset the divergence
            # budget (a toss-only loop never reaches a visible op and
            # must be reported as a divergence, like in VeriSoft).
            self._invisible_steps += 1
            activation.node_id = self._branch_toss(activation, node, value)
        else:  # _RESUME_TOSS_CALL
            self._invisible_steps += 1
            self._store_result(activation, node, value)
            activation.node_id = self._follow_always(activation, node)
        if self._invisible_steps > self._budget:
            raise DivergenceError(self.process_name, self._budget)
        return self._advance()

    def _advance(self) -> Request | None:
        """Execute invisible nodes until the next pause point.

        Returns the request paused on, or ``None`` on termination.  The
        divergence-budget check runs once per executed node, exactly as
        the historical generator implementation did (entering a
        procedure defers the check by one node via ``continue``).
        """
        stack = self._stack
        trace = self._trace
        while True:
            activation = stack[-1]
            node = activation.cfg.nodes[activation.node_id]
            if trace is not None:
                # Record before executing: a faulting/diverging node is
                # still logged as visited, its out-edge is not.
                trace.append((activation.cfg.proc_name, activation.node_id))
            kind = node.kind

            if kind is _START:
                activation.node_id = self._follow_always(activation, node)

            elif kind is _ASSIGN:
                self._exec_assign(activation, node)
                activation.node_id = self._follow_always(activation, node)
                self._invisible_steps += 1

            elif kind is _COND:
                subject = self._eval(activation, node.expr)
                activation.node_id = self._branch(activation, node, subject)
                self._invisible_steps += 1

            elif kind is _TOSS:
                self._pending = (_RESUME_TOSS_NODE, activation, node, None)
                return TossRequest(node.bound, node.id, activation.cfg.proc_name)

            elif kind is _CALL:
                spec = BUILTIN_OPERATIONS.get(node.callee)
                if spec is None:
                    self._enter_procedure(activation, node)
                    self._invisible_steps += 1
                    continue
                if spec.nondeterministic:  # VS_toss as a call statement
                    bound = self._toss_bound(activation, node)
                    self._pending = (_RESUME_TOSS_CALL, activation, node, spec)
                    return TossRequest(bound, node.id, activation.cfg.proc_name)
                if spec.visible:
                    request = self._visible_request(activation, node, spec)
                    self._pending = (_RESUME_VISIBLE, activation, node, spec)
                    return request
                self._exec_invisible_builtin(activation, node)
                self._invisible_steps += 1
                activation.node_id = self._follow_always(activation, node)

            elif kind is _RETURN:
                value = None
                if node.value is not None:
                    value = self._eval(activation, node.value)
                stack.pop()
                if not stack:
                    return None  # top-level return: the process terminates.
                caller = stack[-1]
                if activation.result_cell is not None:
                    # A value-less return feeding `x = f()` leaves x abstract:
                    # the closing transformation drops environment-dependent
                    # return values, and TOP makes any lingering use fault
                    # loudly instead of silently computing with garbage.
                    cell = activation.result_cell
                    if self.journal is not None:
                        self.journal.record_cell(cell)
                    cell.value = value if value is not None else TOP
                call_node = caller.cfg.nodes[caller.node_id]
                caller.node_id = self._follow_always(caller, call_node)
                self._invisible_steps += 1

            elif kind is _EXIT:
                return None  # the process terminates wherever exit appears.

            else:
                raise RuntimeFault(f"unknown node kind {kind}")

            if self._invisible_steps > self._budget:
                raise DivergenceError(self.process_name, self._budget)

    # -- checkpoint / restore ----------------------------------------------------

    def snapshot(self) -> tuple:
        """Shallow control-state snapshot: the activation stack (by
        reference — activations are restored in place), the CFG position
        of every activation, the invisible-step count and the pending
        continuation.  Value state (frame cells, records, arrays) is
        *not* copied: it is rewound by the undo journal.  O(stack depth).
        """
        stack = tuple(self._stack)
        return (
            stack,
            tuple(act.node_id for act in stack),
            self._invisible_steps,
            self._pending,
        )

    def restore(self, snap: tuple) -> None:
        """Rewind control state to a :meth:`snapshot`.

        Safe to apply repeatedly from the same snapshot (nothing in the
        snapshot is mutated), and safe after a crash/divergence that
        left ``_advance`` mid-node: the stack shape, CFG positions and
        pending continuation are all overwritten wholesale.
        """
        stack, node_ids, invisible_steps, pending = snap
        self._stack[:] = stack
        for activation, node_id in zip(stack, node_ids):
            activation.node_id = node_id
        self._invisible_steps = invisible_steps
        self._pending = pending

    def state_fingerprint(self) -> Any:
        """Hashable snapshot of the whole process state (stack + stores)."""
        return tuple(
            (act.cfg.proc_name, act.node_id, act.frame.state_fingerprint())
            for act in self._stack
        )

    # -- coverage tracing ---------------------------------------------------------

    def enable_trace(self) -> None:
        """Start recording every dispatched node into the trace buffer."""
        if self._trace is None:
            self._trace = []

    def take_trace(self) -> list | tuple:
        """Drain and return the recorded ``(proc_name, node_id)`` entries.

        The buffer is handed over and replaced with a fresh list (no
        copy).  Safe because ``_advance`` re-reads ``self._trace`` on
        every entry and the engine is suspended whenever this is called.
        """
        trace = self._trace
        if not trace:
            return ()
        self._trace = []
        return trace

    def control_nodes(self) -> list:
        """The activation stack as ``(proc_name, node_id)``, outermost
        first — the coverage collector re-anchors its parser from this
        after a checkpoint restore.  Called once per process per restore,
        so it stays a single list comprehension."""
        return [(act.cfg.proc_name, act.node_id) for act in self._stack]

    # -- control flow -----------------------------------------------------------

    def _follow_always(self, activation: _Activation, node: CfgNode) -> int:
        arcs = activation.cfg.successors(node.id)
        if len(arcs) != 1 or not isinstance(arcs[0].guard, AlwaysGuard):
            raise RuntimeFault(
                f"{activation.cfg.proc_name}: node {node.id} should have a single "
                "unconditional successor"
            )
        return arcs[0].dst

    def _branch(self, activation: _Activation, node: CfgNode, subject: Any) -> int:
        arcs = activation.cfg.successors(node.id)
        if arcs and isinstance(arcs[0].guard, BoolGuard):
            taken = self._truthy(subject, node)
            for arc in arcs:
                if arc.guard.expected is taken:  # type: ignore[union-attr]
                    return arc.dst
            raise RuntimeFault(f"{activation.cfg.proc_name}: COND node {node.id} missing branch")
        # switch-style guards
        if subject is TOP:
            raise RuntimeFault(
                f"{activation.cfg.proc_name}: switch on an abstract "
                "(environment-erased) value — the program is not closed"
            )
        default = None
        for arc in arcs:
            if isinstance(arc.guard, CaseGuard):
                if values_equal(subject, arc.guard.value):
                    return arc.dst
            elif isinstance(arc.guard, DefaultGuard):
                default = arc.dst
        if default is None:
            raise RuntimeFault(f"{activation.cfg.proc_name}: switch node {node.id} has no default")
        return default

    def _branch_toss(self, activation: _Activation, node: CfgNode, value: Any) -> int:
        if not isinstance(value, int) or not (0 <= value <= node.bound):
            raise TossDomainError(
                f"scheduler sent toss value {value!r}, expected 0..{node.bound}"
            )
        for arc in activation.cfg.successors(node.id):
            if isinstance(arc.guard, TossGuard) and arc.guard.value == value:
                return arc.dst
        raise RuntimeFault(
            f"{activation.cfg.proc_name}: TOSS node {node.id} missing branch for {value}"
        )

    def _enter_procedure(self, activation: _Activation, node: CfgNode) -> None:
        callee_cfg = self._cfgs.get(node.callee)
        if callee_cfg is None:
            raise RuntimeFault(
                f"{activation.cfg.proc_name}: call to unknown procedure {node.callee!r} "
                "(environment calls must be closed away before execution)"
            )
        if len(node.args) != len(callee_cfg.params):
            raise RuntimeFault(
                f"{activation.cfg.proc_name}: {node.callee} expects "
                f"{len(callee_cfg.params)} arguments, got {len(node.args)}"
            )
        if len(self._stack) >= self._max_call_depth:
            raise RuntimeFault(
                f"{activation.cfg.proc_name}: call depth exceeded "
                f"{self._max_call_depth} (unbounded recursion?)"
            )
        frame = Frame(node.callee, journal=self.journal)
        for param, arg in zip(callee_cfg.params, node.args):
            frame.declare(param, self._eval(activation, arg))
        result_cell = None
        if node.result is not None:
            result_cell = self._lvalue_cell(activation, node.result, create=True)
        self._stack.append(
            _Activation(
                cfg=callee_cfg,
                frame=frame,
                node_id=callee_cfg.start_id,
                result_cell=result_cell,
            )
        )

    # -- builtin execution --------------------------------------------------------

    def _toss_bound(self, activation: _Activation, node: CfgNode) -> int:
        if len(node.args) != 1:
            raise TossDomainError("VS_toss takes exactly one argument")
        bound = self._eval(activation, node.args[0])
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise TossDomainError(f"VS_toss argument must be a non-negative int, got {bound!r}")
        return bound

    def _visible_request(
        self, activation: _Activation, node: CfgNode, spec
    ) -> VisibleRequest:
        values = tuple(self._eval(activation, arg) for arg in node.args)
        if len(values) != spec.arity:
            raise RuntimeFault(
                f"{activation.cfg.proc_name}: {spec.name} takes {spec.arity} "
                f"arguments, got {len(values)}"
            )
        obj = None
        args = values
        if spec.object_arg is not None:
            ref = values[spec.object_arg]
            obj = self._resolve_object(ref, spec.name)
            args = tuple(
                v for index, v in enumerate(values) if index != spec.object_arg
            )
        return VisibleRequest(spec.name, obj, args, node.id, activation.cfg.proc_name)

    def _resolve_object(self, ref: Any, op: str) -> CommunicationObject:
        if isinstance(ref, str):
            # Accept bare names for convenience: send('out', v).
            obj = self._objects.get(ref)
            if obj is None:
                raise ObjectError(f"unknown communication object {ref!r}")
            return self._check_kind(obj, op)
        if isinstance(ref, ObjectRef):
            obj = self._objects.get(ref.name)
            if obj is None:
                raise ObjectError(f"unknown communication object {ref.name!r}")
            return self._check_kind(obj, op)
        raise ObjectError(
            f"operation {op!r} needs a communication object, got {type(ref).__name__}"
        )

    @staticmethod
    def _check_kind(obj: CommunicationObject, op: str) -> CommunicationObject:
        if op in CHANNEL_OPS and obj.kind != "channel":
            raise ObjectError(f"{op} requires a channel, got {obj.kind} {obj.name!r}")
        if op in SEMAPHORE_OPS and obj.kind != "semaphore":
            raise ObjectError(f"{op} requires a semaphore, got {obj.kind} {obj.name!r}")
        if op in SHARED_VAR_OPS and obj.kind != "shared":
            raise ObjectError(f"{op} requires a shared variable, got {obj.kind} {obj.name!r}")
        return obj

    def _exec_invisible_builtin(self, activation: _Activation, node: CfgNode) -> None:
        name = node.callee
        if name in ("channel", "semaphore", "shared"):
            target_kind = {"channel": "channel", "semaphore": "semaphore", "shared": "shared"}[name]
            arg = self._eval(activation, node.args[0])
            if not isinstance(arg, str):
                raise ObjectError(f"{name}() takes an object name string, got {arg!r}")
            obj = self._objects.get(arg)
            if obj is None:
                raise ObjectError(f"unknown communication object {arg!r}")
            if obj.kind != target_kind:
                raise ObjectError(
                    f"{name}({arg!r}): object is a {obj.kind}, not a {target_kind}"
                )
            self._store_result(activation, node, ObjectRef(obj.kind, arg))
        elif name == "record":
            self._store_result(activation, node, RecordValue())
        else:
            raise RuntimeFault(f"unknown invisible builtin {name!r}")

    def _store_result(self, activation: _Activation, node: CfgNode, value: Any) -> None:
        if node.result is None:
            return
        cell = self._lvalue_cell(activation, node.result, create=True)
        if self.journal is not None:
            self.journal.record_cell(cell)
        cell.value = value

    # -- assignment / lvalues -----------------------------------------------------

    def _exec_assign(self, activation: _Activation, node: CfgNode) -> None:
        if node.array_size is not None:
            if not isinstance(node.target, ast.Name):
                raise RuntimeFault("array declaration target must be a simple name")
            activation.frame.declare_array(node.target.ident, node.array_size)
            return
        if isinstance(node.target, ast.Name):
            # Declarations and simple assignments create/overwrite the cell.
            value = self._eval(activation, node.value)
            activation.frame.declare(node.target.ident, value)
            return
        value = self._eval(activation, node.value)
        cell = self._lvalue_cell(activation, node.target, create=True)
        if self.journal is not None:
            self.journal.record_cell(cell)
        cell.value = value

    def _lvalue_cell(self, activation: _Activation, expr: ast.Expr, create: bool) -> Cell:
        if isinstance(expr, ast.Name):
            if create and expr.ident not in activation.frame.cells:
                return activation.frame.declare(expr.ident)
            return activation.frame.cell(expr.ident)
        if isinstance(expr, ast.Index):
            base = self._eval(activation, expr.base)
            if not isinstance(base, ArrayValue):
                raise RuntimeFault("indexing a non-array value")
            index = self._eval(activation, expr.index)
            if index is TOP:
                raise RuntimeFault("indexing with an abstract (environment-erased) value")
            if not isinstance(index, int) or isinstance(index, bool):
                raise RuntimeFault(f"array index must be an int, got {index!r}")
            if not (0 <= index < len(base)):
                raise RuntimeFault(
                    f"array index {index} out of bounds for array of length {len(base)}"
                )
            return base.cells[index]
        if isinstance(expr, ast.Field):
            base = self._eval(activation, expr.base)
            if not isinstance(base, RecordValue):
                raise RuntimeFault("field access on a non-record value")
            cell = base.cell(expr.field, create=create, journal=self.journal)
            if cell is None:
                raise RuntimeFault(f"record has no field {expr.field!r}")
            return cell
        if isinstance(expr, ast.Unary) and expr.op == "*":
            pointer = self._eval(activation, expr.operand)
            if not isinstance(pointer, Pointer):
                raise RuntimeFault("dereference of a non-pointer value")
            return pointer.cell
        raise RuntimeFault(f"invalid lvalue {type(expr).__name__}")

    # -- expression evaluation -------------------------------------------------------

    def _truthy(self, value: Any, node: CfgNode) -> bool:
        if value is TOP:
            raise RuntimeFault(
                "branching on an abstract (environment-erased) value — "
                "the program is not closed"
            )
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        raise RuntimeFault(f"cannot branch on value {value!r}")

    def _eval(self, activation: _Activation, expr: ast.Expr) -> Any:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.AbstractLit):
            return TOP
        if isinstance(expr, ast.Name):
            return activation.frame.cell(expr.ident).value
        if isinstance(expr, ast.Unary):
            return self._eval_unary(activation, expr)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(activation, expr)
        if isinstance(expr, ast.Index):
            return self._lvalue_cell(activation, expr, create=False).value
        if isinstance(expr, ast.Field):
            return self._lvalue_cell(activation, expr, create=False).value
        raise RuntimeFault(f"cannot evaluate expression {type(expr).__name__}")

    def _eval_unary(self, activation: _Activation, expr: ast.Unary) -> Any:
        if expr.op == "&":
            return Pointer(self._lvalue_cell(activation, expr.operand, create=False))
        if expr.op == "*":
            pointer = self._eval(activation, expr.operand)
            if pointer is TOP:
                return TOP
            if not isinstance(pointer, Pointer):
                raise RuntimeFault("dereference of a non-pointer value")
            return pointer.cell.value
        value = self._eval(activation, expr.operand)
        if value is TOP:
            return TOP
        if expr.op == "-":
            if isinstance(value, bool) or not isinstance(value, int):
                raise RuntimeFault(f"unary '-' on non-int value {value!r}")
            return -value
        if expr.op == "!":
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value == 0
            raise RuntimeFault(f"unary '!' on value {value!r}")
        raise RuntimeFault(f"unknown unary operator {expr.op!r}")

    def _eval_binary(self, activation: _Activation, expr: ast.Binary) -> Any:
        op = expr.op
        if op in ("&&", "||"):
            left = self._eval(activation, expr.left)
            if left is TOP:
                # Abstract short-circuit: the result may depend on the
                # environment either way.
                self._eval(activation, expr.right)
                return TOP
            taken = self._truthy_value(left)
            if op == "&&" and not taken:
                return False
            if op == "||" and taken:
                return True
            right = self._eval(activation, expr.right)
            if right is TOP:
                return TOP
            return self._truthy_value(right)

        left = self._eval(activation, expr.left)
        right = self._eval(activation, expr.right)
        if op == "==":
            if left is TOP or right is TOP:
                return TOP
            return values_equal(left, right)
        if op == "!=":
            if left is TOP or right is TOP:
                return TOP
            return not values_equal(left, right)
        if left is TOP or right is TOP:
            return TOP
        if op in _ARITH_OPS:
            if not self._is_int(left) or not self._is_int(right):
                raise RuntimeFault(f"arithmetic {op!r} on non-int values {left!r}, {right!r}")
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if right == 0:
                raise RuntimeFault(f"division by zero in {op!r}")
            if op == "/":
                # C-style truncation toward zero.
                quotient = abs(left) // abs(right)
                return quotient if (left >= 0) == (right >= 0) else -quotient
            remainder = abs(left) % abs(right)
            return remainder if left >= 0 else -remainder
        if op in _ORDER_OPS:
            if not self._is_int(left) or not self._is_int(right):
                raise RuntimeFault(f"comparison {op!r} on non-int values {left!r}, {right!r}")
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        raise RuntimeFault(f"unknown binary operator {op!r}")

    @staticmethod
    def _is_int(value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def _truthy_value(self, value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return value != 0
        raise RuntimeFault(f"cannot use value {value!r} as a boolean")
