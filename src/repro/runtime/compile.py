"""The compiled execution engine: CFGs translated to Python closures.

The walking interpreter (:mod:`repro.runtime.interp`) re-inspects every
CFG node on every execution: isinstance-dispatch over the expression
AST, guard scans over successor arcs, dict-keyed frame lookups.  This
module pays those costs *once per program* instead of once per step:
:func:`compile_program` translates each procedure's CFG into specialized
Python closures —

* **one op per CFG node, one divergence check** — each node compiles to
  a single closure that does the node's work, moves its activation to
  the successor (resolved at compile time, never by scanning arcs) and
  counts its invisible step; dispatch threads through a precomputed
  ``node id -> op`` table, and :meth:`CompiledEngine._advance` checks
  the divergence budget once per executed node, as the walking engine's
  loop does;
* **specialized expression closures** — each AST operator compiles to a
  dedicated closure over its operand closures, with literals interned as
  captured constants and peephole fast paths for int arithmetic;
* **slot-indexed frames** — every variable of a procedure is assigned a
  static slot, so a :class:`SlotFrame` is a flat list of
  :class:`~repro.runtime.values.Cell` objects indexed by integers
  (name resolution happens at compile time) and the undo journal records
  slot writes (:meth:`~repro.runtime.journal.UndoJournal.record_slot`)
  instead of dict-key insertions.

:class:`CompiledEngine` implements the
:class:`~repro.runtime.engine.ExecutionEngine` contract *exactly* like
the walking interpreter: the same request sequence, the same
invisible-step accounting (including the one-node deferral when
entering a procedure), the same journal entry counts, the same faults
with the same messages, and byte-identical ``state_fingerprint()``
output.  The differential tests in
``tests/verisoft/test_engine_parity.py`` hold the two engines to that.

Programs the compiler cannot translate — anything using pointers
(``&x``, ``*p``), plus structurally degenerate CFGs — raise
:class:`CompileUnsupported` at compile time, and
:meth:`repro.runtime.system.System.start` falls back to the walking
engine transparently (pointer aliasing defeats the static slot layout;
the reference engine handles it bit-for-bit identically either way).
"""

from __future__ import annotations

from functools import partial
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
from ..gcpause import collector_paused
from ..lang import ast
from .errors import DivergenceError, ObjectError, RuntimeFault, TossDomainError
from .interp import (
    _RESUME_TOSS_CALL,
    _RESUME_TOSS_NODE,
    _RESUME_VISIBLE,
    Request,
    TossRequest,
    VisibleRequest,
)
from .ops import BUILTIN_OPERATIONS, CHANNEL_OPS, SEMAPHORE_OPS, SHARED_VAR_OPS
from .values import (
    TOP,
    ArrayValue,
    Cell,
    ObjectRef,
    RecordValue,
    fingerprint,
    values_equal,
)

# The node kinds as module globals: on CPython 3.11 a ``NodeKind.X``
# read goes through the enum metaclass's ``__getattr__`` hook, about
# ten times the cost of reading a global.
_START, _ASSIGN, _COND, _TOSS, _CALL, _RETURN, _EXIT = (
    NodeKind.START,
    NodeKind.ASSIGN,
    NodeKind.COND,
    NodeKind.TOSS,
    NodeKind.CALL,
    NodeKind.RETURN,
    NodeKind.EXIT,
)


class CompileUnsupported(Exception):
    """The program uses a construct the compiled engine does not
    support; the caller should fall back to the walking engine."""


# An op ``op(engine, act)`` returns ``None`` to run on (``_advance``
# then checks the divergence budget), ``_CALLED`` after entering a
# procedure, ``_DONE`` when the process terminates, or the request the
# process pauses on.

#: Returned by an op when the process terminated (RETURN from the top
#: level, or EXIT).
_DONE = object()

#: Returned by a CALL op: the call node skips the budget check, so
#: entering a procedure defers it by one node, like the walking
#: engine's ``continue``.
_CALLED = object()


# ---------------------------------------------------------------------------
# Slot frames
# ---------------------------------------------------------------------------


class _SlotLayout:
    """Static frame layout of one procedure: name -> slot index."""

    __slots__ = ("proc_name", "index_of", "nslots", "fp_order")

    def __init__(self, proc_name: str, names: list[str]):
        self.proc_name = proc_name
        self.index_of = {name: index for index, name in enumerate(names)}
        self.nslots = len(names)
        #: Fingerprint iteration order: sorted by name, as the dict-based
        #: :meth:`repro.runtime.store.Frame.state_fingerprint` sorts.
        self.fp_order = sorted(self.index_of.items())


class SlotFrame:
    """A procedure activation's store as a flat slot array.

    Drop-in replacement for :class:`repro.runtime.store.Frame` with the
    name resolution done at compile time: ``slots[i]`` is the cell of
    the variable assigned slot ``i`` (``None`` while undeclared).
    Produces fingerprints identical to the dict-based frame.
    """

    __slots__ = ("proc_name", "slots", "journal", "_fp_order")

    def __init__(self, layout: _SlotLayout, journal: Any | None = None):
        self.proc_name = layout.proc_name
        self.slots: list[Cell | None] = [None] * layout.nslots
        self.journal = journal
        self._fp_order = layout.fp_order

    def declare_idx(self, index: int, value: Any = 0) -> Cell:
        """Create (or re-initialize in place) the cell at ``index``."""
        slots = self.slots
        cell = slots[index]
        if cell is None:
            if self.journal is not None:
                self.journal.record_slot(slots, index)
            cell = Cell(value)
            slots[index] = cell
        else:
            if self.journal is not None:
                self.journal.record_cell(cell)
            cell.value = value
        return cell

    def state_fingerprint(self) -> Any:
        slots = self.slots
        return (
            self.proc_name,
            tuple(
                (name, fingerprint(slots[index].value))
                for name, index in self._fp_order
                if slots[index] is not None
            ),
        )

    def __repr__(self) -> str:
        inner = {
            name: slots[index].value
            for name, index in self._fp_order
            if (slots := self.slots)[index] is not None
        }
        return f"SlotFrame({self.proc_name!r}, {inner!r})"


class _Activation:
    """One frame of the compiled call stack."""

    __slots__ = ("proc", "frame", "node_id", "result_cell")

    def __init__(
        self,
        proc: "CompiledProc",
        frame: SlotFrame,
        node_id: int,
        result_cell: Cell | None,
    ):
        self.proc = proc
        self.frame = frame
        self.node_id = node_id
        self.result_cell = result_cell


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------
#
# An expression compiles to a closure ``ev(frame) -> value``; an lvalue
# compiles to ``lv(frame) -> Cell``.  Every fault path reproduces the
# walking interpreter's message verbatim.


def _collect_names(expr: ast.Expr | None, names: set[str]) -> None:
    if expr is None:
        return
    if isinstance(expr, ast.Name):
        names.add(expr.ident)
    elif isinstance(expr, ast.Unary):
        _collect_names(expr.operand, names)
    elif isinstance(expr, ast.Binary):
        _collect_names(expr.left, names)
        _collect_names(expr.right, names)
    elif isinstance(expr, ast.Index):
        _collect_names(expr.base, names)
        _collect_names(expr.index, names)
    elif isinstance(expr, ast.Field):
        _collect_names(expr.base, names)


def _compile_expr(expr: ast.Expr, layout: _SlotLayout):
    if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.StrLit)):
        value = expr.value

        def ev(frame, _v=value):
            return _v

        return ev
    if isinstance(expr, ast.AbstractLit):

        def ev_top(frame):
            return TOP

        return ev_top
    if isinstance(expr, ast.Name):
        index = layout.index_of[expr.ident]

        def ev_name(frame, _i=index, _n=expr.ident):
            cell = frame.slots[_i]
            if cell is None:
                raise RuntimeFault(
                    f"{frame.proc_name}: variable {_n!r} used before declaration"
                )
            return cell.value

        return ev_name
    if isinstance(expr, ast.Unary):
        return _compile_unary(expr, layout)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr, layout)
    if isinstance(expr, (ast.Index, ast.Field)):
        lv = _compile_lvalue(expr, layout, create=False)

        def ev_read(frame, _lv=lv):
            return _lv(frame).value

        return ev_read
    raise CompileUnsupported(f"cannot compile expression {type(expr).__name__}")


def _compile_unary(expr: ast.Unary, layout: _SlotLayout):
    if expr.op in ("&", "*"):
        raise CompileUnsupported("pointer operations use the walking engine")
    operand = _compile_expr(expr.operand, layout)
    if expr.op == "-":

        def ev_neg(frame, _ev=operand):
            value = _ev(frame)
            if type(value) is int:
                return -value
            if value is TOP:
                return TOP
            raise RuntimeFault(f"unary '-' on non-int value {value!r}")

        return ev_neg
    if expr.op == "!":

        def ev_not(frame, _ev=operand):
            value = _ev(frame)
            if value is TOP:
                return TOP
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value == 0
            raise RuntimeFault(f"unary '!' on value {value!r}")

        return ev_not
    raise CompileUnsupported(f"unknown unary operator {expr.op!r}")


def _truthy_value(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value != 0
    raise RuntimeFault(f"cannot use value {value!r} as a boolean")


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: The int operators with a fast path: the word their fault messages
#: use, and the operation.
_INT_OPS = {
    "+": ("arithmetic", lambda a, b: a + b),
    "-": ("arithmetic", lambda a, b: a - b),
    "*": ("arithmetic", lambda a, b: a * b),
    "<": ("comparison", lambda a, b: a < b),
    "<=": ("comparison", lambda a, b: a <= b),
    ">": ("comparison", lambda a, b: a > b),
    ">=": ("comparison", lambda a, b: a >= b),
}


def _int_slow(word: str, op: str, fn, lhs: Any, rhs: Any):
    """Non-fast-path completion of an int operator: TOP propagation and
    the walking engine's exact fault messages."""
    if lhs is TOP or rhs is TOP:
        return TOP
    if not _is_int(lhs) or not _is_int(rhs):
        raise RuntimeFault(f"{word} {op!r} on non-int values {lhs!r}, {rhs!r}")
    return fn(lhs, rhs)


def _compile_binary_fast(expr: ast.Binary, layout: _SlotLayout):
    """Operand-specialized closures for the hot int operators.

    A Name operand's slot load and an int-literal operand are inlined
    into the operator closure itself, collapsing the two operand calls
    of the generic path — the dominant cost of loop-body arithmetic
    like ``i = i + 1`` or ``acc * 31``.  Fault and TOP semantics are
    delegated to :func:`_int_slow`, as in the generic closure.
    """
    op = expr.op
    if op not in _INT_OPS:
        return None
    word, fn = _INT_OPS[op]
    slow = partial(_int_slow, word)
    left, right = expr.left, expr.right

    if isinstance(left, ast.Name) and isinstance(right, ast.IntLit):
        li, name = layout.index_of[left.ident], left.ident
        const = right.value

        def ev_name_const(frame, _i=li, _n=name, _c=const, _fn=fn, _op=op, _slow=slow):
            cell = frame.slots[_i]
            if cell is None:
                raise RuntimeFault(
                    f"{frame.proc_name}: variable {_n!r} used before declaration"
                )
            a = cell.value
            if type(a) is int:
                return _fn(a, _c)
            return _slow(_op, _fn, a, _c)

        return ev_name_const

    if isinstance(left, ast.Name) and isinstance(right, ast.Name):
        li, lname = layout.index_of[left.ident], left.ident
        ri, rname = layout.index_of[right.ident], right.ident

        def ev_name_name(
            frame, _li=li, _ln=lname, _ri=ri, _rn=rname, _fn=fn, _op=op, _slow=slow
        ):
            slots = frame.slots
            lcell = slots[_li]
            if lcell is None:
                raise RuntimeFault(
                    f"{frame.proc_name}: variable {_ln!r} used before declaration"
                )
            rcell = slots[_ri]
            if rcell is None:
                raise RuntimeFault(
                    f"{frame.proc_name}: variable {_rn!r} used before declaration"
                )
            a, b = lcell.value, rcell.value
            if type(a) is int and type(b) is int:
                return _fn(a, b)
            return _slow(_op, _fn, a, b)

        return ev_name_name

    return None


def _compile_binary(expr: ast.Binary, layout: _SlotLayout):
    op = expr.op
    fast = _compile_binary_fast(expr, layout)
    if fast is not None:
        return fast
    left = _compile_expr(expr.left, layout)
    right = _compile_expr(expr.right, layout)

    if op == "&&":

        def ev_and(frame, _l=left, _r=right):
            lhs = _l(frame)
            if lhs is TOP:
                # Abstract short-circuit: the result may depend on the
                # environment either way.
                _r(frame)
                return TOP
            if not _truthy_value(lhs):
                return False
            rhs = _r(frame)
            if rhs is TOP:
                return TOP
            return _truthy_value(rhs)

        return ev_and
    if op == "||":

        def ev_or(frame, _l=left, _r=right):
            lhs = _l(frame)
            if lhs is TOP:
                _r(frame)
                return TOP
            if _truthy_value(lhs):
                return True
            rhs = _r(frame)
            if rhs is TOP:
                return TOP
            return _truthy_value(rhs)

        return ev_or
    if op == "==":

        def ev_eq(frame, _l=left, _r=right):
            lhs = _l(frame)
            rhs = _r(frame)
            if lhs is TOP or rhs is TOP:
                return TOP
            return values_equal(lhs, rhs)

        return ev_eq
    if op == "!=":

        def ev_ne(frame, _l=left, _r=right):
            lhs = _l(frame)
            rhs = _r(frame)
            if lhs is TOP or rhs is TOP:
                return TOP
            return not values_equal(lhs, rhs)

        return ev_ne
    if op in _INT_OPS:
        word, fn = _INT_OPS[op]

        def ev_int(frame, _l=left, _r=right, _fn=fn, _op=op, _w=word):
            lhs = _l(frame)
            rhs = _r(frame)
            if type(lhs) is int and type(rhs) is int:
                return _fn(lhs, rhs)
            return _int_slow(_w, _op, _fn, lhs, rhs)

        return ev_int
    if op in ("/", "%"):

        def ev_divmod(frame, _l=left, _r=right, _op=op):
            lhs = _l(frame)
            rhs = _r(frame)
            if lhs is TOP or rhs is TOP:
                return TOP
            if not _is_int(lhs) or not _is_int(rhs):
                raise RuntimeFault(
                    f"arithmetic {_op!r} on non-int values {lhs!r}, {rhs!r}"
                )
            if rhs == 0:
                raise RuntimeFault(f"division by zero in {_op!r}")
            if _op == "/":
                # C-style truncation toward zero.
                quotient = abs(lhs) // abs(rhs)
                return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
            remainder = abs(lhs) % abs(rhs)
            return remainder if lhs >= 0 else -remainder

        return ev_divmod
    raise CompileUnsupported(f"unknown binary operator {op!r}")


def _compile_lvalue(expr: ast.Expr, layout: _SlotLayout, create: bool):
    if isinstance(expr, ast.Name):
        index = layout.index_of[expr.ident]
        if create:

            def lv_create(frame, _i=index):
                cell = frame.slots[_i]
                if cell is None:
                    return frame.declare_idx(_i)
                return cell

            return lv_create

        def lv_name(frame, _i=index, _n=expr.ident):
            cell = frame.slots[_i]
            if cell is None:
                raise RuntimeFault(
                    f"{frame.proc_name}: variable {_n!r} used before declaration"
                )
            return cell

        return lv_name
    if isinstance(expr, ast.Index):
        base_ev = _compile_expr(expr.base, layout)
        index_ev = _compile_expr(expr.index, layout)

        def lv_index(frame, _b=base_ev, _i=index_ev):
            base = _b(frame)
            if not isinstance(base, ArrayValue):
                raise RuntimeFault("indexing a non-array value")
            index = _i(frame)
            if index is TOP:
                raise RuntimeFault(
                    "indexing with an abstract (environment-erased) value"
                )
            if not isinstance(index, int) or isinstance(index, bool):
                raise RuntimeFault(f"array index must be an int, got {index!r}")
            if not (0 <= index < len(base)):
                raise RuntimeFault(
                    f"array index {index} out of bounds for array of length {len(base)}"
                )
            return base.cells[index]

        return lv_index
    if isinstance(expr, ast.Field):
        base_ev = _compile_expr(expr.base, layout)
        field = expr.field

        def lv_field(frame, _b=base_ev, _f=field, _create=create):
            base = _b(frame)
            if not isinstance(base, RecordValue):
                raise RuntimeFault("field access on a non-record value")
            cell = base.cell(_f, create=_create, journal=frame.journal)
            if cell is None:
                raise RuntimeFault(f"record has no field {_f!r}")
            return cell

        return lv_field
    if isinstance(expr, ast.Unary) and expr.op == "*":
        raise CompileUnsupported("pointer operations use the walking engine")
    raise CompileUnsupported(f"invalid lvalue {type(expr).__name__}")


def _make_store(lv):
    """``store(engine, act, value)`` writing through an lvalue, journaled."""

    def store(engine, act, value, _lv=lv):
        cell = _lv(act.frame)
        journal = engine.journal
        if journal is not None:
            journal.record_cell(cell)
        cell.value = value

    return store


# ---------------------------------------------------------------------------
# Communication-object resolution (per-run; mirrors the interpreter)
# ---------------------------------------------------------------------------


def _resolve_object(objects: dict, ref: Any, op: str):
    if isinstance(ref, str):
        obj = objects.get(ref)
        if obj is None:
            raise ObjectError(f"unknown communication object {ref!r}")
    elif isinstance(ref, ObjectRef):
        obj = objects.get(ref.name)
        if obj is None:
            raise ObjectError(f"unknown communication object {ref.name!r}")
    else:
        raise ObjectError(
            f"operation {op!r} needs a communication object, got {type(ref).__name__}"
        )
    if op in CHANNEL_OPS and obj.kind != "channel":
        raise ObjectError(f"{op} requires a channel, got {obj.kind} {obj.name!r}")
    if op in SEMAPHORE_OPS and obj.kind != "semaphore":
        raise ObjectError(f"{op} requires a semaphore, got {obj.kind} {obj.name!r}")
    if op in SHARED_VAR_OPS and obj.kind != "shared":
        raise ObjectError(f"{op} requires a shared variable, got {obj.kind} {obj.name!r}")
    return obj


# ---------------------------------------------------------------------------
# Procedure compilation
# ---------------------------------------------------------------------------


class CompiledProc:
    """One procedure: slot layout + ``node id -> callable`` table."""

    __slots__ = ("name", "params", "param_slots", "start_id", "ops", "next_of", "layout")

    def __init__(self, name: str, params: tuple[str, ...], layout: _SlotLayout):
        self.name = name
        self.params = params
        self.param_slots = [layout.index_of[param] for param in params]
        self.layout = layout
        self.start_id = -1
        #: node id -> ``op(engine, act)`` callable; built as a dict,
        #: then swapped for a flat list when node ids are dense.
        self.ops: Any = {}
        #: node id -> successor id, for every single-Always-successor node.
        self.next_of: dict[int, int] = {}


class CompiledProgram:
    """The compiled form of a whole program (one entry per procedure)."""

    __slots__ = ("procs",)

    def __init__(self, procs: dict[str, CompiledProc]):
        self.procs = procs


@collector_paused
def compile_program(cfgs: dict[str, ControlFlowGraph]) -> CompiledProgram:
    """Translate every procedure's CFG into closures.

    Raises :class:`CompileUnsupported` when the program uses pointers or
    a structurally degenerate CFG; callers fall back to the walking
    engine (which reproduces even the degenerate behaviours exactly).

    Runs with the cyclic garbage collector paused (see
    :mod:`repro.gcpause`): every closure built here lives as long as
    the program, so collector passes during the call would free
    nothing.
    """
    procs: dict[str, CompiledProc] = {}
    program = CompiledProgram(procs)
    for name, cfg in cfgs.items():
        procs[name] = _compile_proc(cfg, procs)
    return program


def _proc_names(cfg: ControlFlowGraph) -> list[str]:
    names: set[str] = set(cfg.params)
    for node in cfg.nodes.values():
        _collect_names(node.target, names)
        _collect_names(node.value, names)
        _collect_names(node.expr, names)
        _collect_names(node.result, names)
        for arg in node.args:
            _collect_names(arg, names)
    return sorted(names)


def _single_always_dst(cfg: ControlFlowGraph, node_id: int) -> int:
    arcs = cfg.successors(node_id)
    if len(arcs) != 1 or not isinstance(arcs[0].guard, AlwaysGuard):
        raise CompileUnsupported(
            f"{cfg.proc_name}: node {node_id} lacks a single unconditional successor"
        )
    return arcs[0].dst


def _compile_proc(cfg: ControlFlowGraph, procs: dict[str, CompiledProc]) -> CompiledProc:
    if cfg.start_id == -1:
        raise CompileUnsupported(f"{cfg.proc_name}: graph has no START node")
    layout = _SlotLayout(cfg.proc_name, _proc_names(cfg))
    proc = CompiledProc(cfg.proc_name, cfg.params, layout)
    proc.start_id = cfg.start_id

    # Successor table for every straight-line node (needed before op
    # compilation: RETURN resolves its caller's CALL successor here).
    for node in cfg.nodes.values():
        if node.kind in (_START, _ASSIGN, _CALL):
            proc.next_of[node.id] = _single_always_dst(cfg, node.id)

    for node in cfg.nodes.values():
        proc.ops[node.id] = _compile_node(cfg, node, proc, layout, procs)

    # Dense node ids (the normal case): swap the dispatch dict for a
    # flat list — ``ops[node_id]`` stays valid, list indexing is faster.
    max_id = max(proc.ops)
    if max_id < 2 * len(proc.ops) + 16:
        table: list[Any] = [None] * (max_id + 1)
        for node_id, op in proc.ops.items():
            table[node_id] = op
        proc.ops = table
    return proc


def _compile_node(
    cfg: ControlFlowGraph,
    node: CfgNode,
    proc: CompiledProc,
    layout: _SlotLayout,
    procs: dict[str, CompiledProc],
):
    kind = node.kind
    if kind is _START:
        next_id = proc.next_of[node.id]

        def op_start(engine, act, _next=next_id):
            act.node_id = _next

        return op_start

    if kind is _ASSIGN:
        return _compile_assign(node, layout, proc.next_of[node.id])

    if kind is _COND:
        return _compile_cond(cfg, node, layout)

    if kind is _TOSS:
        return _compile_toss_node(cfg, node)

    if kind is _CALL:
        return _compile_call(cfg, node, proc, layout, procs)

    if kind is _RETURN:
        value_ev = None
        if node.value is not None:
            value_ev = _compile_expr(node.value, layout)

        def op_return(engine, act, _ev=value_ev):
            value = _ev(act.frame) if _ev is not None else None
            stack = engine._stack
            stack.pop()
            if not stack:
                return _DONE  # top-level return: the process terminates.
            caller = stack[-1]
            cell = act.result_cell
            if cell is not None:
                # A value-less return feeding `x = f()` leaves x abstract:
                # the closing transformation drops environment-dependent
                # return values, and TOP makes any lingering use fault
                # loudly instead of silently computing with garbage.
                journal = engine.journal
                if journal is not None:
                    journal.record_cell(cell)
                cell.value = value if value is not None else TOP
            caller.node_id = caller.proc.next_of[caller.node_id]
            engine._invisible_steps += 1
            return None

        return op_return

    if kind is _EXIT:

        def op_exit(engine, act):
            return _DONE  # the process terminates wherever exit appears.

        return op_exit

    raise CompileUnsupported(f"unknown node kind {kind}")


def _compile_assign(node: CfgNode, layout: _SlotLayout, next_id: int):
    if node.array_size is not None:
        if not isinstance(node.target, ast.Name):
            raise CompileUnsupported("array declaration target must be a simple name")
        index = layout.index_of[node.target.ident]

        def op_declare_array(
            engine, act, _i=index, _size=node.array_size, _next=next_id
        ):
            act.frame.declare_idx(_i, ArrayValue(size=_size))
            act.node_id = _next
            engine._invisible_steps += 1

        return op_declare_array
    value_ev = _compile_expr(node.value, layout)
    if isinstance(node.target, ast.Name):
        # Declarations and simple assignments create/overwrite the cell.
        index = layout.index_of[node.target.ident]

        def op_assign(engine, act, _i=index, _ev=value_ev, _next=next_id):
            frame = act.frame
            frame.declare_idx(_i, _ev(frame))
            act.node_id = _next
            engine._invisible_steps += 1

        return op_assign
    store = _make_store(_compile_lvalue(node.target, layout, create=True))

    def op_store(engine, act, _ev=value_ev, _store=store, _next=next_id):
        _store(engine, act, _ev(act.frame))
        act.node_id = _next
        engine._invisible_steps += 1

    return op_store


def _compile_cond(cfg: ControlFlowGraph, node: CfgNode, layout: _SlotLayout):
    subject_ev = _compile_expr(node.expr, layout)
    arcs = cfg.successors(node.id)
    if not arcs:
        raise CompileUnsupported(f"{cfg.proc_name}: COND node {node.id} has no out-arcs")

    if all(isinstance(arc.guard, BoolGuard) for arc in arcs):
        true_dst = false_dst = -1
        for arc in arcs:
            if arc.guard.expected:
                true_dst = arc.dst
            else:
                false_dst = arc.dst
        if true_dst < 0 or false_dst < 0:
            raise CompileUnsupported(
                f"{cfg.proc_name}: COND node {node.id} missing a branch"
            )

        def op_cond(engine, act, _ev=subject_ev, _t=true_dst, _f=false_dst):
            subject = _ev(act.frame)
            if subject is True:
                act.node_id = _t
            elif subject is False:
                act.node_id = _f
            elif subject is TOP:
                raise RuntimeFault(
                    "branching on an abstract (environment-erased) value — "
                    "the program is not closed"
                )
            elif isinstance(subject, int):
                act.node_id = _t if subject != 0 else _f
            else:
                raise RuntimeFault(f"cannot branch on value {subject!r}")
            engine._invisible_steps += 1

        return op_cond

    if all(isinstance(arc.guard, (CaseGuard, DefaultGuard)) for arc in arcs):
        table: dict[Any, int] = {}
        default_dst = -1
        for arc in arcs:
            if isinstance(arc.guard, CaseGuard):
                table.setdefault(arc.guard.value, arc.dst)
            else:
                default_dst = arc.dst
        proc_name = cfg.proc_name
        node_id = node.id

        def op_switch(
            engine,
            act,
            _ev=subject_ev,
            _table=table,
            _default=default_dst,
            _proc=proc_name,
            _nid=node_id,
        ):
            subject = _ev(act.frame)
            if subject is TOP:
                raise RuntimeFault(
                    f"{_proc}: switch on an abstract "
                    "(environment-erased) value — the program is not closed"
                )
            # bool/int/str hashing agrees with values_equal on case
            # labels (True matches case 1, like the reference engine);
            # non-primitive subjects miss and take the default.
            try:
                dst = _table.get(subject, _default)
            except TypeError:
                dst = _default
            if dst < 0:
                raise RuntimeFault(f"{_proc}: switch node {_nid} has no default")
            act.node_id = dst
            engine._invisible_steps += 1

        return op_switch

    raise CompileUnsupported(
        f"{cfg.proc_name}: COND node {node.id} has inconsistent guards"
    )


def _compile_toss_node(cfg: ControlFlowGraph, node: CfgNode):
    table: dict[int, int] = {}
    for arc in cfg.successors(node.id):
        if not isinstance(arc.guard, TossGuard):
            raise CompileUnsupported(
                f"{cfg.proc_name}: TOSS node {node.id} has a non-toss guard"
            )
        table.setdefault(arc.guard.value, arc.dst)
    # The request is fully static: intern one instance per node.
    request = TossRequest(node.bound, node.id, cfg.proc_name)
    payload = (table, node.bound)

    def op_toss(engine, act, _req=request, _payload=payload):
        engine._pending = (_RESUME_TOSS_NODE, act, _payload)
        return _req

    return op_toss


def _compile_call(
    cfg: ControlFlowGraph,
    node: CfgNode,
    proc: CompiledProc,
    layout: _SlotLayout,
    procs: dict[str, CompiledProc],
):
    spec = BUILTIN_OPERATIONS.get(node.callee)
    if spec is None:
        return _compile_proc_call(cfg, node, proc, layout, procs)
    if spec.nondeterministic:  # VS_toss as a call statement
        return _compile_toss_call(cfg, node, proc, layout)
    if spec.visible:
        return _compile_visible(cfg, node, proc, layout, spec)
    return _compile_invisible_builtin(cfg, node, proc, layout)


def _compile_proc_call(
    cfg: ControlFlowGraph,
    node: CfgNode,
    proc: CompiledProc,
    layout: _SlotLayout,
    procs: dict[str, CompiledProc],
):
    callee = node.callee
    arg_evals = [_compile_expr(arg, layout) for arg in node.args]
    result_lv = None
    if node.result is not None:
        result_lv = _compile_lvalue(node.result, layout, create=True)
    proc_name = cfg.proc_name

    def op_call(
        engine,
        act,
        _callee=callee,
        _procs=procs,
        _args=arg_evals,
        _result=result_lv,
        _proc=proc_name,
    ):
        target = _procs.get(_callee)
        if target is None:
            raise RuntimeFault(
                f"{_proc}: call to unknown procedure {_callee!r} "
                "(environment calls must be closed away before execution)"
            )
        if len(_args) != len(target.params):
            raise RuntimeFault(
                f"{_proc}: {_callee} expects "
                f"{len(target.params)} arguments, got {len(_args)}"
            )
        stack = engine._stack
        if len(stack) >= engine._max_call_depth:
            raise RuntimeFault(
                f"{_proc}: call depth exceeded "
                f"{engine._max_call_depth} (unbounded recursion?)"
            )
        frame = act.frame
        new_frame = SlotFrame(target.layout, engine.journal)
        for slot, ev in zip(target.param_slots, _args):
            new_frame.declare_idx(slot, ev(frame))
        result_cell = _result(frame) if _result is not None else None
        stack.append(_Activation(target, new_frame, target.start_id, result_cell))
        engine._invisible_steps += 1
        return _CALLED

    return op_call


def _compile_toss_call(
    cfg: ControlFlowGraph, node: CfgNode, proc: CompiledProc, layout: _SlotLayout
):
    node_id = node.id
    proc_name = cfg.proc_name
    next_id = proc.next_of[node.id]
    store = None
    if node.result is not None:
        store = _make_store(_compile_lvalue(node.result, layout, create=True))
    payload = (store, next_id)

    if len(node.args) != 1:

        def op_bad_toss(engine, act):
            raise TossDomainError("VS_toss takes exactly one argument")

        return op_bad_toss

    bound_ev = _compile_expr(node.args[0], layout)

    def op_toss_call(
        engine, act, _ev=bound_ev, _payload=payload, _nid=node_id, _proc=proc_name
    ):
        bound = _ev(act.frame)
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
            raise TossDomainError(
                f"VS_toss argument must be a non-negative int, got {bound!r}"
            )
        engine._pending = (_RESUME_TOSS_CALL, act, _payload)
        return TossRequest(bound, _nid, _proc)

    return op_toss_call


def _static_value(expr: ast.Expr):
    """The literal value of ``expr``, or the _NOT_STATIC sentinel."""
    if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.StrLit)):
        return expr.value
    return _NOT_STATIC


_NOT_STATIC = object()


def _compile_visible(
    cfg: ControlFlowGraph, node: CfgNode, proc: CompiledProc, layout: _SlotLayout, spec
):
    arg_evals = [_compile_expr(arg, layout) for arg in node.args]
    node_id = node.id
    proc_name = cfg.proc_name
    next_id = proc.next_of[node.id]
    op_name = spec.name

    if len(node.args) != spec.arity:
        message = (
            f"{proc_name}: {spec.name} takes {spec.arity} "
            f"arguments, got {len(node.args)}"
        )

        def op_bad_arity(engine, act, _evs=arg_evals, _msg=message):
            # Arguments evaluate first (their faults win), as in the
            # walking engine.
            frame = act.frame
            for ev in _evs:
                ev(frame)
            raise RuntimeFault(_msg)

        return op_bad_arity

    store = None
    if spec.returns_value and node.result is not None:
        store = _make_store(_compile_lvalue(node.result, layout, create=True))
    payload = (store, next_id)

    if spec.object_arg is None:

        def op_local(
            engine, act, _evs=arg_evals, _payload=payload, _op=op_name,
            _nid=node_id, _proc=proc_name,
        ):
            frame = act.frame
            args = tuple(ev(frame) for ev in _evs)
            engine._pending = (_RESUME_VISIBLE, act, _payload)
            return VisibleRequest(_op, None, args, _nid, _proc)

        return op_local

    object_arg = spec.object_arg
    rest = tuple(i for i in range(spec.arity) if i != object_arg)
    static_args = [_static_value(arg) for arg in node.args]

    if static_args[object_arg] is not _NOT_STATIC:
        # The object operand is a literal (the normalizer lowers bare
        # object names to string atoms), so resolution is a per-engine
        # constant — but ``engine._objects`` differs per run, so the
        # resolved request is cached on the *engine*.
        # Requests are frozen, making the sharing observationally
        # invisible; resolution failures stay lazy and uncached, so the
        # fault surfaces at the same execution point as the walking
        # engine's.
        obj_name = static_args[object_arg]

        # Node ids repeat across procedures, so the per-engine cache is
        # keyed by a sentinel unique to this compiled node.
        cache_key = object()

        if _NOT_STATIC not in static_args:
            args = tuple(static_args[i] for i in rest)

            def op_visible_static(
                engine, act, _payload=payload, _op=op_name, _ref=obj_name,
                _args=args, _nid=node_id, _proc=proc_name, _key=cache_key,
            ):
                request = engine._request_cache.get(_key)
                if request is None:
                    obj = _resolve_object(engine._objects, _ref, _op)
                    request = VisibleRequest(_op, obj, _args, _nid, _proc)
                    engine._request_cache[_key] = request
                engine._pending = (_RESUME_VISIBLE, act, _payload)
                return request

            return op_visible_static

        value_evals = [arg_evals[i] for i in rest]

        def op_visible_static_obj(
            engine, act, _evs=value_evals, _payload=payload, _op=op_name,
            _ref=obj_name, _nid=node_id, _proc=proc_name, _key=cache_key,
        ):
            obj = engine._request_cache.get(_key)
            if obj is None:
                obj = _resolve_object(engine._objects, _ref, _op)
                engine._request_cache[_key] = obj
            frame = act.frame
            args = tuple(ev(frame) for ev in _evs)
            engine._pending = (_RESUME_VISIBLE, act, _payload)
            return VisibleRequest(_op, obj, args, _nid, _proc)

        return op_visible_static_obj

    def op_visible(
        engine, act, _evs=arg_evals, _payload=payload, _op=op_name,
        _obj_arg=object_arg, _rest=rest, _nid=node_id, _proc=proc_name,
    ):
        frame = act.frame
        values = [ev(frame) for ev in _evs]
        obj = _resolve_object(engine._objects, values[_obj_arg], _op)
        args = tuple(values[i] for i in _rest)
        engine._pending = (_RESUME_VISIBLE, act, _payload)
        return VisibleRequest(_op, obj, args, _nid, _proc)

    return op_visible


_LOOKUP_KINDS = {"channel": "channel", "semaphore": "semaphore", "shared": "shared"}


def _compile_invisible_builtin(
    cfg: ControlFlowGraph, node: CfgNode, proc: CompiledProc, layout: _SlotLayout
):
    name = node.callee
    next_id = proc.next_of[node.id]
    store = None
    if node.result is not None:
        store = _make_store(_compile_lvalue(node.result, layout, create=True))

    if name == "record":

        def op_record(engine, act, _store=store, _next=next_id):
            if _store is not None:
                _store(engine, act, RecordValue())
            act.node_id = _next
            engine._invisible_steps += 1

        return op_record

    target_kind = _LOOKUP_KINDS.get(name)
    if target_kind is None:
        raise CompileUnsupported(f"unknown invisible builtin {name!r}")
    if len(node.args) != 1:
        raise CompileUnsupported(f"{name}() must take exactly one argument")
    arg_ev = _compile_expr(node.args[0], layout)

    def op_lookup(
        engine, act, _ev=arg_ev, _name=name, _kind=target_kind,
        _store=store, _next=next_id,
    ):
        arg = _ev(act.frame)
        if not isinstance(arg, str):
            raise ObjectError(f"{_name}() takes an object name string, got {arg!r}")
        obj = engine._objects.get(arg)
        if obj is None:
            raise ObjectError(f"unknown communication object {arg!r}")
        if obj.kind != _kind:
            raise ObjectError(
                f"{_name}({arg!r}): object is a {obj.kind}, not a {_kind}"
            )
        if _store is not None:
            _store(engine, act, ObjectRef(obj.kind, arg))
        act.node_id = _next
        engine._invisible_steps += 1

    return op_lookup


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class CompiledEngine:
    """Executes one process over a compiled program.

    Same constructor contract and stepper semantics as
    :class:`~repro.runtime.interp.Interpreter`, with the CFGs replaced
    by a :class:`CompiledProgram` (compile once per
    :class:`~repro.runtime.system.System`, share across runs and
    processes — compiled procedures are immutable).
    """

    def __init__(
        self,
        program: CompiledProgram,
        top_proc: str,
        args: tuple[Any, ...],
        objects: dict[str, Any],
        divergence_budget: int = 100_000,
        process_name: str = "<process>",
        max_call_depth: int = 512,
        journal: Any | None = None,
    ):
        proc = program.procs.get(top_proc)
        if proc is None:
            raise RuntimeFault(f"unknown top-level procedure {top_proc!r}")
        if len(args) != len(proc.params):
            raise RuntimeFault(
                f"process {process_name!r}: {top_proc} expects "
                f"{len(proc.params)} arguments, got {len(args)}"
            )
        self._program = program
        self._objects = objects
        self._budget = divergence_budget
        self._max_call_depth = max_call_depth
        self.process_name = process_name
        self.journal = journal
        frame = SlotFrame(proc.layout, journal=journal)
        for slot, value in zip(proc.param_slots, args):
            frame.declare_idx(slot, value)
        self._stack: list[_Activation] = [
            _Activation(proc, frame, proc.start_id, None)
        ]
        self._invisible_steps = 0
        #: ``(tag, activation, payload)`` with ``tag`` one of the
        #: interpreter's ``_RESUME_*`` constants; ``None`` while running.
        self._pending: tuple | None = None
        #: Per-engine cache of interned :class:`VisibleRequest` objects
        #: (and resolved communication objects) for operations whose
        #: operands are compile-time literals — keyed by a per-node
        #: sentinel, filled lazily because object resolution is per-run.
        self._request_cache: dict[Any, Any] = {}
        #: Node-trace buffer for coverage collection (``None`` = off).
        #: ``_advance`` records every dispatched node, so the sequence is
        #: instruction-identical to the walking engine's.
        self._trace: list | None = None

    # -- public API ------------------------------------------------------------

    def start(self) -> Request | None:
        """Run the initial invisible prefix up to the first request."""
        return self._advance()

    def resume(self, value: Any) -> Request | None:
        """Answer the pending request with ``value`` and run on."""
        tag, act, payload = self._pending
        self._pending = None
        if tag == _RESUME_VISIBLE:
            self._invisible_steps = 0
            store, next_id = payload
            if store is not None:
                store(self, act, value)
            act.node_id = next_id
        elif tag == _RESUME_TOSS_NODE:
            # VS_toss is invisible: it does NOT reset the divergence
            # budget (a toss-only loop must still be reported).
            self._invisible_steps += 1
            table, bound = payload
            if not isinstance(value, int) or not (0 <= value <= bound):
                raise TossDomainError(
                    f"scheduler sent toss value {value!r}, expected 0..{bound}"
                )
            dst = table.get(value, -1)
            if dst < 0:
                raise RuntimeFault(
                    f"{act.proc.name}: TOSS node {act.node_id} missing branch for {value}"
                )
            act.node_id = dst
        else:  # _RESUME_TOSS_CALL
            self._invisible_steps += 1
            store, next_id = payload
            if store is not None:
                store(self, act, value)
            act.node_id = next_id
        if self._invisible_steps > self._budget:
            raise DivergenceError(self.process_name, self._budget)
        return self._advance()

    def _advance(self) -> Request | None:
        """Threaded dispatch: look up and invoke node ops until a request
        (returned) or termination (``None``).

        The divergence-budget check runs once per executed node, as in
        the walking engine; a CALL op's ``_CALLED`` skips it for the call
        node, deferring the check by one node.
        """
        stack = self._stack
        trace = self._trace
        budget = self._budget
        while True:
            act = stack[-1]
            if trace is not None:
                # Record before executing: a faulting or diverging node
                # is logged as visited, its out-edge is not.
                trace.append((act.proc.name, act.node_id))
            result = act.proc.ops[act.node_id](self, act)
            if result is None:
                if self._invisible_steps > budget:
                    raise DivergenceError(self.process_name, budget)
            elif result is not _CALLED:
                return None if result is _DONE else result

    # -- checkpoint / restore ----------------------------------------------------

    def snapshot(self) -> tuple:
        """Same 4-tuple layout as the walking engine (see
        :meth:`repro.runtime.interp.Interpreter.snapshot`)."""
        stack = tuple(self._stack)
        return (
            stack,
            tuple(act.node_id for act in stack),
            self._invisible_steps,
            self._pending,
        )

    def restore(self, snap: tuple) -> None:
        stack, node_ids, invisible_steps, pending = snap
        self._stack[:] = stack
        for act, node_id in zip(stack, node_ids):
            act.node_id = node_id
        self._invisible_steps = invisible_steps
        self._pending = pending

    def state_fingerprint(self) -> Any:
        """Byte-identical to the walking engine's fingerprint."""
        return tuple(
            (act.proc.name, act.node_id, act.frame.state_fingerprint())
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
        copy); ``_advance`` re-reads ``self._trace`` on every entry, and
        the engine is suspended whenever this is called.
        """
        trace = self._trace
        if not trace:
            return ()
        self._trace = []
        return trace

    def control_nodes(self) -> list:
        """The activation stack as ``(proc_name, node_id)``, outermost
        first (see :meth:`repro.runtime.interp.Interpreter.control_nodes`)."""
        return [(act.proc.name, act.node_id) for act in self._stack]
