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
``VS_assert``/sink operations are independent with everything.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Identity of a process's pending transition, for sleep sets."""

    process: str
    node_id: int
    op: str
    obj: str | None
    local: bool  # VS_assert / env-sink op: conflicts with nothing


#: Interned signatures: plain-tuple field key → ``(sig, dense id)``.
#: The search hot loop keys its persistent-set memo on tuples of the
#: dense ids — an int-tuple hash instead of re-hashing dataclasses
#: every state — and the tuple key keeps the lookup itself at C speed
#: (no dataclass construction or ``__hash__`` on the hit path).
_SIG_IDS: dict[tuple, tuple] = {}


def intern_signature(process: Process, request) -> tuple:
    """Build, intern and cache the signature entry for a pending request.

    Returns ``(request, sig, sig_id)`` and stores it on the process;
    requests are immutable and compared by identity, so the cache stays
    valid until the process actually moves (including across restores,
    which reinstall the *same* request object).
    """
    if request.obj is None:
        fields = (process.name, request.node_id, request.op, None, True)
    else:
        local = isinstance(request.obj, EnvSink) and not request.obj.visible_in_state
        fields = (process.name, request.node_id, request.op, request.obj.name, local)
    interned = _SIG_IDS.get(fields)
    if interned is None:
        interned = (TransitionSig(*fields), len(_SIG_IDS))
        _SIG_IDS[fields] = interned
    entry = (request, interned[0], interned[1])
    process._sig_entry = entry
    return entry


def signature_of(process: Process) -> TransitionSig | None:
    """The pending transition's signature, or None if none is pending."""
    request = process.visible_request
    if request is None:
        return None
    entry = process._sig_entry
    if entry is not None and entry[0] is request:
        return entry[1]
    return intern_signature(process, request)[1]


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
            if process.status is not ProcessStatus.AT_VISIBLE:
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
