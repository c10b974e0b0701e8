"""Canonical state encoding + incremental per-component fingerprints.

This module owns the **canonical byte encoding** of state-fingerprint
structures (historically in :mod:`repro.statespace.snapshot`, which now
re-exports it) and builds the *incremental* layer on top of it:

* :func:`encode_canonical` — structure → canonical bytes.  Type-tagged
  and length-prefixed, so the encoding is **prefix-free**: every valid
  byte string decodes to exactly one structure.
* :func:`decode_canonical` — the exact inverse.  The frontier codec
  uses it to keep checkpoint fingerprints format-compatible with the
  structural ``repr`` wire format of earlier versions.
* :class:`RunFingerprinter` — the incremental combiner.  Each process
  and communication object carries an ``fp_version`` dirty counter
  (bumped by :meth:`Process._resume`, :meth:`Process.restore` and every
  mutating ``perform`` branch of the built-in objects); the combiner
  caches the encoded bytes of each component and re-encodes **only the
  components whose version moved** since the last key.  Because a tuple
  encodes as ``tag + length + concatenated item encodings``, the cached
  component bytes concatenate — with two fixed headers — into *exactly*
  ``encode_canonical(run.state_fingerprint())``.  State keys therefore
  cost O(changes), not O(state), while staying bit-identical to the
  full recomputation (and to every previously persisted snapshot,
  frontier checkpoint and store digest).

Restore safety: the undo journal rewinds value state *without* touching
``fp_version`` counters, so a rewind alone would leave the cache
claiming bytes for a state that no longer exists.  The combiner
therefore snapshots its ``(version, bytes)`` memo into every
:class:`~repro.runtime.journal.RunCheckpoint` and reinstalls it — memo
*and* the components' ``fp_version`` counters, atomically — on
:meth:`restore`.  Within one restore epoch versions only move forward
on mutation, so ``version == memoised version`` implies the component
is untouched; across restores the memo is reset together with the
counters, so stale pairs can never survive a rewind.

The incremental path is **disabled** (``Run.state_key`` falls back to
full recomputation, still computed once per state) when the program
creates pointers: ``copy_value`` transmits pointers by reference, so a
``*p = v`` in one process can silently change *another* process's
fingerprint without bumping its version.  Pointer-free programs — which
includes everything the compiled engine accepts — have no cross-process
aliasing, making per-component dirty tracking sound.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from .objects import CommunicationObject
    from .process import Process

#: Type tags of the canonical encoding.  One byte each; every composite
#: is length-prefixed, so the encoding is prefix-free and unambiguous.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_STR = b"s"
_TAG_TUPLE = b"("

_LEN = struct.Struct(">I")
_pack_len = _LEN.pack
_unpack_len_from = _LEN.unpack_from

# Interning caches: fingerprint structures repeat the same atoms
# (process names, status strings, procedure names, small counters) in
# nearly every state, so their encodings are kept as stable bytes and
# reused across states.  Bounded so pathological value streams cannot
# grow them without limit.
_STR_CACHE: dict[str, bytes] = {}
_INT_CACHE: dict[int, bytes] = {}
_CACHE_LIMIT = 16384


def _encode_str(value: str) -> bytes:
    enc = _STR_CACHE.get(value)
    if enc is None:
        payload = value.encode("utf-8")
        enc = _TAG_STR + _pack_len(len(payload)) + payload
        if len(_STR_CACHE) < _CACHE_LIMIT:
            _STR_CACHE[value] = enc
    return enc


def _encode_int(value: int) -> bytes:
    enc = _INT_CACHE.get(value)
    if enc is None:
        payload = b"%d" % value
        enc = _TAG_INT + _pack_len(len(payload)) + payload
        if len(_INT_CACHE) < _CACHE_LIMIT:
            _INT_CACHE[value] = enc
    return enc


# Whole-component interning: processes and objects cycle through a
# bounded set of local states during a search, so the (structure →
# canonical bytes) mapping — a pure function, never invalidated — turns
# most dirty-component re-encodes into one tuple hash + dict hit
# instead of a recursive serialization.
_COMPONENT_CACHE: dict[Any, bytes] = {}
_COMPONENT_LIMIT = 65536


def _component_bytes(fp: Any) -> bytes:
    enc = _COMPONENT_CACHE.get(fp)
    if enc is None:
        enc = encode_canonical(fp)
        if len(_COMPONENT_CACHE) < _COMPONENT_LIMIT:
            _COMPONENT_CACHE[fp] = enc
    return enc


def _encode_into(value: Any, out: list[bytes]) -> None:
    # bool must be tested before int (bool is an int subclass) so that
    # True and 1 — distinct runtime values — stay distinct states.
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif type(value) is int:
        out.append(_encode_int(value))
    elif type(value) is str:
        out.append(_encode_str(value))
    elif type(value) is tuple:
        out.append(_TAG_TUPLE)
        out.append(_pack_len(len(value)))
        for item in value:
            _encode_into(item, out)
    # Exact-type dispatch above covers every value the fingerprint layer
    # produces; subclasses of int/str/tuple funnel through here so the
    # historic semantics (and error message) are preserved.
    elif isinstance(value, bool):
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif isinstance(value, int):
        payload = b"%d" % value
        out.append(_TAG_INT)
        out.append(_pack_len(len(payload)))
        out.append(payload)
    elif isinstance(value, str):
        payload = value.encode("utf-8")
        out.append(_TAG_STR)
        out.append(_pack_len(len(payload)))
        out.append(payload)
    elif isinstance(value, tuple):
        out.append(_TAG_TUPLE)
        out.append(_pack_len(len(value)))
        for item in value:
            _encode_into(item, out)
    else:
        raise TypeError(
            f"cannot canonically encode value of type {type(value).__name__}; "
            "state fingerprints are built from None/bool/int/str/tuple only"
        )


def encode_canonical(value: Any) -> bytes:
    """Serialize a state-fingerprint structure to canonical bytes.

    Injective over the fingerprint value domain (``None``, ``bool``,
    ``int``, ``str`` and nested tuples thereof): distinct structures
    always yield distinct byte strings, equal structures always yield
    equal byte strings.
    """
    out: list[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


#: Tuples nested deeper than this do not decode; the recursive encoder
#: and decoder stay far from Python's recursion limit.
_MAX_DEPTH = 256


def _malformed(problem: str, offset: int) -> ValueError:
    return ValueError(f"invalid canonical encoding: {problem} at offset {offset}")


def _decode_from(data: bytes, pos: int, depth: int = 0) -> tuple[Any, int]:
    tag = data[pos : pos + 1]
    if tag == _TAG_NONE:
        return None, pos + 1
    if tag == _TAG_TRUE:
        return True, pos + 1
    if tag == _TAG_FALSE:
        return False, pos + 1
    if not tag:
        raise _malformed("unexpected end", pos)
    if tag not in (_TAG_INT, _TAG_STR, _TAG_TUPLE):
        raise _malformed(f"unknown tag {tag!r}", pos)
    start = pos + 5
    if start > len(data):
        raise _malformed("length field cut short", pos + 1)
    length = _unpack_len_from(data, pos + 1)[0]
    if tag == _TAG_TUPLE:
        if depth == _MAX_DEPTH:
            raise _malformed(f"tuples nested deeper than {_MAX_DEPTH}", pos)
        items = []
        for _ in range(length):
            item, start = _decode_from(data, start, depth + 1)
            items.append(item)
        return tuple(items), start
    end = start + length
    if end > len(data):
        raise _malformed(f"{length}-byte payload runs past the end", start)
    payload = data[start:end]
    if tag == _TAG_STR:
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError:
            raise _malformed("string payload is not UTF-8", start) from None
    # int() also reads "1_0", " 7", "+7" and "007"; only the encoder's
    # own spelling of the value is canonical.
    try:
        value = int(payload)
    except ValueError:
        value = None
    if value is None or b"%d" % value != payload:
        raise _malformed(f"int payload {payload!r} is not canonical", start)
    return value, end


def decode_canonical(data: bytes) -> Any:
    """Decode canonical bytes back into the fingerprint structure.

    Exact inverse of :func:`encode_canonical` (the encoding is
    prefix-free): ``decode_canonical(encode_canonical(v)) == v`` for
    every fingerprint value, and a byte string that decodes to ``v`` is
    ``encode_canonical(v)``.  Raises :class:`ValueError`, naming the
    offset, on malformed or trailing bytes and on tuples nested deeper
    than 256.
    """
    value, end = _decode_from(data, 0)
    if end != len(data):
        raise _malformed(f"{len(data) - end} trailing bytes", end)
    return value


class RunFingerprinter:
    """Incremental canonical state keys for one run.

    Attached by :meth:`System.start` when the program is pointer-free
    (see the module docstring for why).  :meth:`key` returns bytes
    bit-identical to ``encode_canonical(run.state_fingerprint())``; the
    memo participates in checkpoint/restore via :meth:`snapshot` /
    :meth:`restore`.
    """

    __slots__ = (
        "_procs", "_objs", "_head", "_mid",
        "_pver", "_pbytes", "_over", "_obytes", "_active",
    )

    def __init__(self, processes: list["Process"], objects: list["CommunicationObject"]):
        self._procs = list(processes)
        self._objs = list(objects)
        # encode_canonical((proc_fps, obj_fps)) == outer 2-tuple header,
        # then the process-tuple header + component encodings, then the
        # object-tuple header + component encodings.
        self._head = _TAG_TUPLE + _pack_len(2) + _TAG_TUPLE + _pack_len(len(self._procs))
        self._mid = _TAG_TUPLE + _pack_len(len(self._objs))
        self._pver: list[int] = [-1] * len(self._procs)
        self._pbytes: list[bytes | None] = [None] * len(self._procs)
        self._over: list[int] = [-1] * len(self._objs)
        self._obytes: list[bytes | None] = [None] * len(self._objs)
        #: Whether :meth:`key` has ever run.  Until then the memo holds
        #: nothing worth checkpointing, so :meth:`snapshot` is free.
        self._active = False

    def key(self) -> bytes:
        """The canonical global-state key, re-encoding dirty components only."""
        self._active = True
        parts = [self._head]
        pver, pbytes = self._pver, self._pbytes
        for index, process in enumerate(self._procs):
            version = process.fp_version
            encoded = pbytes[index]
            if encoded is None or version != pver[index]:
                encoded = _component_bytes(process.state_fingerprint())
                pbytes[index] = encoded
                pver[index] = version
            parts.append(encoded)
        parts.append(self._mid)
        over, obytes = self._over, self._obytes
        for index, obj in enumerate(self._objs):
            version = obj.fp_version
            encoded = obytes[index]
            if encoded is None or version != over[index]:
                encoded = _component_bytes(obj.state_fingerprint())
                obytes[index] = encoded
                over[index] = version
            parts.append(encoded)
        return b"".join(parts)

    def invalidate(self) -> None:
        """Drop every cached component (next :meth:`key` re-encodes all)."""
        if not self._active:
            return  # nothing was ever cached
        self._pbytes = [None] * len(self._procs)
        self._obytes = [None] * len(self._objs)

    # -- checkpoint / restore -----------------------------------------------------

    def snapshot(self) -> tuple | None:
        """The memo state, captured into a :class:`RunCheckpoint`.

        Captures each component's **live** version (so restore can pin
        the counters to the state being checkpointed) and keeps a memo
        entry only when it is current — a memo older than the component
        it describes must not survive into the restored epoch, or the
        restore would revalidate bytes of a different state.

        Until the first :meth:`key` call the memo is empty and there is
        nothing to pin: ``None`` is returned (and accepted back by
        :meth:`Run.restore` as "drop any cached bytes"), keeping
        checkpoints free for searches that never ask for state keys.
        """
        if not self._active:
            return None
        pver = tuple(process.fp_version for process in self._procs)
        over = tuple(obj.fp_version for obj in self._objs)
        mem_pver, mem_pbytes = self._pver, self._pbytes
        mem_over, mem_obytes = self._over, self._obytes
        return (
            pver,
            tuple(
                mem_pbytes[i] if mem_pver[i] == pver[i] else None
                for i in range(len(pver))
            ),
            over,
            tuple(
                mem_obytes[i] if mem_over[i] == over[i] else None
                for i in range(len(over))
            ),
        )

    def restore(self, snap: tuple) -> None:
        """Reinstall a memo snapshot after a journal rewind.

        Must run *after* the journal rewind and process restores of
        :meth:`Run.restore`: resets every component's ``fp_version`` to
        the version it had when the checkpoint was taken and reinstalls
        the memo captured at the same instant, atomically, so cached
        bytes and live state agree again.  Components whose bytes were
        not current at checkpoint time carry a ``None`` memo and simply
        re-encode on demand.
        """
        pver, pbytes, over, obytes = snap
        self._pver = list(pver)
        self._pbytes = list(pbytes)
        self._over = list(over)
        self._obytes = list(obytes)
        for process, version in zip(self._procs, pver):
            process.fp_version = version
        for obj, version in zip(self._objs, over):
            obj.fp_version = version
