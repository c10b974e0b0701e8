"""Partial-order reduction: persistent sets and sleep sets.

VeriSoft's state-space search is tractable *because* of partial-order
methods [God96]; this module provides the two reductions it uses:

**Persistent sets.**  At a global state only a *persistent* subset of
the enabled transitions needs exploring.  A set ``T`` of transitions is
persistent in ``s`` if nothing the other processes can do from ``s``
(without executing a member of ``T``) is dependent with any member of
``T``.  We compute persistent sets from (a) the *dynamic* next visible
operation of every process and (b) a *static over-approximation* of the
set of communication objects each process may still touch (its
*footprint*, a CFG/call-graph reachability computed once per process at
launch).  Starting from one enabled process, we close the candidate set
under "some outside process's footprint intersects the objects of the
candidates' next operations", and take the smallest closure over all
enabled seeds.

Purely local transitions — ``VS_assert`` and sends to an
:class:`~repro.runtime.objects.EnvSink` (the most general environment
accepts anything, and no process can observe a sink) — conflict with
nothing, so a process whose next operation is local forms a singleton
persistent set: the classic best case.

**Sleep sets.**  Orthogonally, a sleep set carries already-explored
sibling transitions into a successor state and prunes them there if they
are independent with the transition taken.  Dependency is judged by the
object touched: operations on distinct objects are independent;
``VS_assert``/sink operations are independent with everything.  The
explorer keeps a sleep set as an int bitmask over interned signatures
(:func:`dependent_bits`); :func:`independent`, :func:`filter_sleep` and
:func:`augment_sleep` are the set-based reference the tests compare it
with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..cfg.graph import ControlFlowGraph
from ..cfg.nodes import NodeKind
from ..dataflow.alias import PointsToResult
from ..lang import ast
from ..runtime.objects import EnvSink
from ..runtime.ops import BUILTIN_OPERATIONS
from ..runtime.process import Process, ProcessStatus
from ..runtime.system import Run
from ..runtime.values import ObjectRef

#: Sentinel meaning "may touch any object".
ANY_OBJECT = "<any>"

# A module global: ``ProcessStatus.AT_VISIBLE`` costs an enum
# ``__getattr__`` per read on CPython 3.11.
_AT_VISIBLE = ProcessStatus.AT_VISIBLE


# ---------------------------------------------------------------------------
# Static object footprints
# ---------------------------------------------------------------------------


def _object_arg_names(
    proc: str,
    node,
    launch_env: dict[str, set[str]],
    points_to: "PointsToResult | None",
) -> set[str]:
    """Which objects might the visible operation at ``node`` touch?

    Resolves string atoms directly, top-level parameters through the
    launch environment, and other variables through the may-alias
    analysis (``c = channel('ctl'); send(c, v)``); anything unresolvable
    degrades to :data:`ANY_OBJECT`.
    """
    spec = BUILTIN_OPERATIONS.get(node.callee)
    if spec is None or spec.object_arg is None:
        return set()
    arg = node.args[spec.object_arg] if spec.object_arg < len(node.args) else None
    if isinstance(arg, ast.StrLit):
        return {arg.value}
    if isinstance(arg, ast.Name):
        if arg.ident in launch_env:
            return set(launch_env[arg.ident])
        if points_to is not None:
            resolved = points_to.objects_of(proc, arg)
            if resolved is not None:
                return resolved
    return {ANY_OBJECT}


def process_footprint(
    cfgs: dict[str, ControlFlowGraph],
    top_proc: str,
    launch_args: dict[str, object],
    points_to: "PointsToResult | None" = None,
) -> set[str]:
    """Objects a process may ever touch, over-approximated statically.

    ``launch_args`` maps the top-level procedure's parameters to their
    actual launch values, so channels passed at process creation are
    resolved exactly; object references flowing through other variables
    resolve through ``points_to`` (the program-wide may-alias result)
    when supplied.  Anything still unresolved falls back to
    :data:`ANY_OBJECT`.
    """
    launch_env: dict[str, set[str]] = {}
    for param, value in launch_args.items():
        if isinstance(value, ObjectRef):
            launch_env[param] = {value.name}
    footprint: set[str] = set()
    visited_procs: set[str] = set()
    worklist = [top_proc]
    top = True
    while worklist:
        proc = worklist.pop()
        if proc in visited_procs:
            continue
        visited_procs.add(proc)
        cfg = cfgs.get(proc)
        if cfg is None:
            continue
        env = launch_env if top else {}
        top = False
        for node in cfg:
            if node.kind is not NodeKind.CALL:
                continue
            if node.callee in BUILTIN_OPERATIONS:
                footprint |= _object_arg_names(proc, node, env, points_to)
            elif node.callee in cfgs:
                worklist.append(node.callee)
    return footprint


# ---------------------------------------------------------------------------
# Transition signatures and independence
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TransitionSig:
    """Identity of a process's pending transition, for sleep sets.

    A signature interned by this module's table also carries its dense
    ``id`` and its sleep-set ``bit`` (``1 << id``).  Neither takes part
    in equality, hashing or repr, and both are valid only in the
    process that interned the signature: a signature that arrives from
    elsewhere (a pickled prefix, a frontier file) is re-interned by its
    fields (:func:`reintern`) before its bit is used.
    """

    process: str
    node_id: int
    op: str
    obj: str | None
    local: bool  # VS_assert / env-sink op: conflicts with nothing
    id: int = field(default=-1, compare=False, repr=False, kw_only=True)
    bit: int = field(default=0, compare=False, repr=False, kw_only=True)


class _SignatureTable:
    """The intern table of transition signatures and the sleep-set
    masks over their bits.

    Interning maps equal fields to one signature with a dense id, so a
    sleep set is an int whose bits are the ids of its members, and
    ``sleep & sig.bit`` answers ``sig in sleep``.  Beside the
    signatures the table keeps, per process name, the bits of all its
    signatures and, per object name, the bits of its non-local
    signatures: together they are :func:`dependent_bits`.  The masks only
    grow, and a sleep mask holds only bits interned before it was
    built, so a mask taken later still covers every member.
    """

    __slots__ = ("by_fields", "by_id", "process_bits", "object_bits")

    def __init__(self) -> None:
        #: Plain-tuple field key -> interned signature.  The search hot
        #: loop keys its persistent-set memo on tuples of the dense ids
        #: (an int-tuple hash instead of re-hashing dataclasses every
        #: state), and the tuple key keeps this lookup at C speed.
        self.by_fields: dict[tuple, TransitionSig] = {}
        self.by_id: list[TransitionSig] = []
        self.process_bits: dict[str, int] = {}
        self.object_bits: dict[str | None, int] = {}

    def intern(self, fields: tuple) -> TransitionSig:
        """The one signature with these ``(process, node_id, op, obj,
        local)`` fields."""
        sig = self.by_fields.get(fields)
        if sig is None:
            ident = len(self.by_id)
            sig = TransitionSig(*fields, id=ident, bit=1 << ident)
            self.by_fields[fields] = sig
            self.by_id.append(sig)
            process, _, _, obj, local = fields
            self.process_bits[process] = self.process_bits.get(process, 0) | sig.bit
            if not local:
                self.object_bits[obj] = self.object_bits.get(obj, 0) | sig.bit
        return sig


_SIGNATURES = _SignatureTable()


def intern_signature(process: Process, request) -> TransitionSig:
    """Build and intern the signature of ``process``'s pending visible
    ``request``, and carry it on the request's ``sig`` slot.

    A request belongs to one process's engine and is immutable, so the
    slot stays valid for the request's life, across restores too (they
    reinstall the *same* request object).
    """
    if request.obj is None:
        fields = (process.name, request.node_id, request.op, None, True)
    else:
        local = isinstance(request.obj, EnvSink) and not request.obj.visible_in_state
        fields = (process.name, request.node_id, request.op, request.obj.name, local)
    sig = _SIGNATURES.intern(fields)
    object.__setattr__(request, "sig", sig)
    return sig


def signature_of(process: Process) -> TransitionSig | None:
    """The pending transition's signature, or None if none is pending."""
    if process.status is not _AT_VISIBLE:
        return None
    request = process.pending
    sig = request.sig
    return sig if sig is not None else intern_signature(process, request)


def reintern(sig: TransitionSig | None) -> TransitionSig | None:
    """``sig`` interned in this process's table (by its fields)."""
    if sig is None:
        return None
    return _SIGNATURES.intern((sig.process, sig.node_id, sig.op, sig.obj, sig.local))


def sleep_mask(sigs: Iterable[TransitionSig]) -> int:
    """The sleep mask of a set of signatures (re-interned by fields)."""
    mask = 0
    for sig in sigs:
        mask |= reintern(sig).bit
    return mask


def sleep_signatures(mask: int) -> frozenset[TransitionSig]:
    """The signatures whose bits make up the sleep ``mask``."""
    by_id = _SIGNATURES.by_id
    members = []
    while mask:
        low = mask & -mask
        mask ^= low
        members.append(by_id[low.bit_length() - 1])
    return frozenset(members)


def dependent_bits(taken: TransitionSig) -> int:
    """The bits of every interned signature that :func:`independent`
    calls dependent with the interned ``taken``: the same process, or a
    non-local operation on the object of a non-local ``taken``.  A
    sleep set carried past ``taken`` is ``sleep & ~dependent_bits(taken)``."""
    bits = _SIGNATURES.process_bits[taken.process]
    if not taken.local:
        bits |= _SIGNATURES.object_bits[taken.obj]
    return bits


def independent(a: TransitionSig, b: TransitionSig) -> bool:
    """Conservative independence: distinct objects commute; local
    transitions commute with everything; same object conflicts."""
    if a.process == b.process:
        return False
    if a.local or b.local:
        return True
    return a.obj != b.obj


# ---------------------------------------------------------------------------
# Persistent-set computation
# ---------------------------------------------------------------------------


class PersistentSetComputer:
    """Computes persistent subsets of the enabled processes of a run.

    The closure runs over int bitmasks: the constructor numbers the
    objects that appear in some footprint and turns each footprint into
    an object mask plus an "any object" flag.  An object in no
    footprint gets no bit, which is exact: no footprint can overlap it.
    """

    def __init__(self, footprints: dict[str, set[str]]):
        # ``footprints``: process name -> static object footprint (from
        # its launch point).
        named = sorted({obj for fp in footprints.values() for obj in fp} - {ANY_OBJECT})
        #: object name -> its bit in the footprint and conflict masks.
        self._object_bits = {obj: 1 << index for index, obj in enumerate(named)}
        bits = self._object_bits
        #: process name -> (footprint object mask, footprint holds ANY_OBJECT).
        self._footprint_masks = {
            name: (sum(bits[obj] for obj in fp if obj in bits), ANY_OBJECT in fp)
            for name, fp in footprints.items()
        }

    def persistent_choices(
        self, run: Run, enabled: list[Process] | None = None
    ) -> list[Process]:
        """A persistent subset of ``run``'s enabled processes.

        Returns the full enabled set when no reduction applies.  The
        caller may pass the enabled set (already computed by the search
        hot loop) to avoid re-scanning the processes.  Each seed's
        candidates come in discovery order: the seed, then the others
        in the order the closure's passes add them.
        """
        if enabled is None:
            enabled = run.enabled_processes()
        if len(enabled) <= 1:
            return enabled

        # Best case: a purely local transition is persistent on its own.
        for process in enabled:
            sig = signature_of(process)
            if sig is not None and sig.local:
                return [process]

        # Per live process, once for every seed's closure: its index
        # bit, footprint mask, "any object" flag and the bit of the
        # object its pending operation touches.
        bits = self._object_bits
        masks = self._footprint_masks
        # id of each enabled process -> (its bit, the bit it touches).
        seeds: dict[int, tuple[int, int] | None] = dict.fromkeys(map(id, enabled))
        enabled_mask = 0
        live = []
        for index, process in enumerate(run.processes):
            if process.status is not _AT_VISIBLE:
                continue
            bit = 1 << index
            sig = signature_of(process)
            touched = 0
            if sig is not None and sig.obj is not None and not sig.local:
                touched = bits.get(sig.obj, 0)
            if id(process) in seeds:
                enabled_mask |= bit
                seeds[id(process)] = (bit, touched)
            footprint, anything = masks.get(process.name, (0, True))
            live.append((bit, process, footprint, anything, touched))

        best = enabled
        for seed in enabled:
            seed_bit, conflict = seeds[id(seed)]
            members = seed_bit
            order = [seed]
            changed = True
            while changed:
                changed = False
                for bit, process, footprint, anything, touched in live:
                    if members & bit:
                        continue
                    if anything or footprint & conflict:
                        members |= bit
                        order.append(process)
                        conflict |= touched
                        changed = True
            if (members & enabled_mask).bit_count() < len(best):
                best = [p for p in order if id(p) in seeds]
                if len(best) == 1:
                    break
        return best


# ---------------------------------------------------------------------------
# Sleep sets
# ---------------------------------------------------------------------------


def filter_sleep(
    sleep: frozenset[TransitionSig], taken: TransitionSig
) -> frozenset[TransitionSig]:
    """The sleep set carried into the successor after executing ``taken``."""
    return frozenset(sig for sig in sleep if independent(sig, taken))


def augment_sleep(
    sleep: frozenset[TransitionSig], explored_siblings: Iterable[TransitionSig], taken: TransitionSig
) -> frozenset[TransitionSig]:
    """Sleep set for ``taken``'s subtree: inherited members plus the
    already-explored siblings, keeping only those independent with
    ``taken``."""
    merged = set(sleep) | set(explored_siblings)
    return frozenset(sig for sig in merged if independent(sig, taken))
