"""State-space caching: canonical snapshots and pluggable visited-state
stores for revisit pruning.

The VeriSoft-style search (:mod:`repro.verisoft`) is deliberately
*stateless*: it stores no global states and pays for that by fully
re-exploring every state it reaches along more than one path.  This
package is the complement — the classic SPIN-lineage state-space cache:

* :mod:`repro.statespace.snapshot` turns a live
  :class:`~repro.runtime.system.Run` into a **canonical byte string**
  (per-process control location + local stores + shared objects,
  serialized deterministically through the
  :func:`repro.runtime.values.fingerprint` machinery);
* :mod:`repro.statespace.stores` keeps the set of snapshots seen so far
  behind one :class:`StateStore` interface, with two space/soundness
  trade-offs — :class:`ExactStore` (full snapshots, sound) and
  :class:`HashCompactStore` (64-bit digests, near-sound).

The explorer consults the store at every freshly reached global state
and prunes the subtree when the state was already expanded; see
``docs/state_caching.md`` for the soundness discussion (depth bounds,
sleep sets, hash collisions).
"""

from .snapshot import decode_canonical, digest64, encode_canonical, snapshot
from .stores import (
    STORE_KINDS,
    ExactStore,
    HashCompactStore,
    StateStore,
    make_store,
)

__all__ = [
    "ExactStore",
    "HashCompactStore",
    "STORE_KINDS",
    "StateStore",
    "decode_canonical",
    "digest64",
    "encode_canonical",
    "make_store",
    "snapshot",
]
