"""Canonical global-state snapshots.

A global state of a run is already captured structurally by
:meth:`repro.runtime.system.Run.state_fingerprint`: a nested tuple of
per-process control locations and local stores (built from
:func:`repro.runtime.values.fingerprint`) plus per-object states.  That
structure is *hashable* — good enough for an in-process ``set`` — but
its Python hash is salted per interpreter and its repr is not a stable
wire format.

:func:`encode_canonical` serializes the structure into a **canonical
byte string**: type-tagged, length-prefixed, with no dependence on hash
seeds, dict ordering (the fingerprint layer already sorts record fields
and frame variables) or interpreter build.  Two runs are in the same
global state iff their snapshots are byte-for-byte equal, and the same
state always encodes to the same bytes — in this process, in a parallel
worker, or in a later session.

:func:`digest64` folds a snapshot to a 64-bit integer (keyed BLAKE2b),
the unit of storage of the compacting stores.
"""

from __future__ import annotations

import hashlib

from ..runtime.fingerprint import (  # noqa: F401  (re-exported API)
    decode_canonical,
    encode_canonical,
)
from ..runtime.system import Run


def snapshot(run: Run) -> bytes:
    """The canonical byte-string snapshot of ``run``'s global state.

    Covers exactly what :meth:`Run.state_fingerprint` covers: every
    process's control location and local store (call stack of
    ``(procedure, node, frame)``) and every communication object's
    state (queue contents, semaphore counts, shared values; environment
    sinks only when ``visible_in_state``).

    Always a full recomputation — the differential oracle against
    :meth:`Run.state_key`, the joined parts of the incremental key
    (:meth:`Run.state_parts`).
    """
    return encode_canonical(run.state_fingerprint())


def digest64(key: bytes) -> int:
    """Fold a snapshot to an unsigned 64-bit digest (BLAKE2b-64).

    The compacting stores keep this instead of the full snapshot:
    8 bytes per state, with a 2^-64 per-pair collision probability
    (a collision makes :class:`~repro.statespace.stores.HashCompactStore`
    prune a genuinely new state — the documented trade-off).
    """
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")
