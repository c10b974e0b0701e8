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
* :class:`RunFingerprinter` — the incremental combiner.  It holds the
  key as its byte parts, one per process and one per communication
  object between fixed headers, and a set of **stale** components:
  :meth:`Run.execute_visible` marks the stepped process and the object
  it operated on, :meth:`Run.answer_toss` the tossing process, from the
  run's first key on (before it every component is stale, so a search
  that keys no state marks nothing).  A key re-encodes only the stale
  components.  Because a tuple encodes as
  ``tag + length + concatenated item encodings``, the parts concatenate
  into *exactly* ``encode_canonical(run.state_fingerprint())``.  State
  keys therefore cost O(changes), not O(state), while staying
  bit-identical to the full recomputation (and to every previously
  persisted snapshot, frontier checkpoint and store digest).

The parts are also a key in their own right (:meth:`Run.state_parts`,
what the exact state store keeps).  The encoding is prefix-free and
each part is the complete encoding of one component (or one of the two
interned tuple headers), so two part tuples of one system are equal
exactly when their concatenations are.  Equal parts are one shared
``bytes`` object — the headers through :func:`_header`, the components
through :data:`_COMPONENT_CACHE` — so a stored part tuple costs a
pointer per component, not the component's bytes.  Past
``_COMPONENT_LIMIT`` cached encodings, new component encodings are no
longer shared: the keys stay exact but grow towards the size of the
joined bytes.

Restore safety: the undo journal rewinds value state underneath the
parts, so a rewind alone would leave them describing a state that no
longer exists.  The combiner therefore snapshots its parts and stale
set into every :class:`~repro.runtime.journal.RunCheckpoint` and
reinstalls both on :meth:`restore`: the rewind brings back the
checkpointed state, which is exactly what those parts (less the stale
ones) encode.

The incremental path is **disabled** (``Run.state_parts`` falls back
to full recomputation, still split into the same parts) when the program
creates pointers: ``copy_value`` transmits pointers by reference, so a
``*p = v`` in one process can silently change *another* process's
fingerprint, which the step does not mark stale.  Pointer-free
programs — which includes everything the compiled engine accepts —
have no cross-process aliasing, so a step changes only the stepped
process and the object it operated on.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _header(*lengths: int) -> bytes:
    """The encoding of nested tuple headers of the given lengths,
    interned so that the keys of every run of a system share it."""
    return b"".join(_TAG_TUPLE + _pack_len(length) for length in lengths)


def key_parts(state_fp: tuple) -> tuple[bytes, ...]:
    """The parts of ``encode_canonical(state_fp)`` for a global-state
    fingerprint ``(process fingerprints, object fingerprints)``: the
    outer header, one part per process, the middle header, one part per
    object.  The full recomputation behind :meth:`Run.state_parts` for
    programs without an incremental fingerprinter."""
    process_fps, object_fps = state_fp
    return (
        _header(2, len(process_fps)),
        *map(_component_bytes, process_fps),
        _header(len(object_fps)),
        *map(_component_bytes, object_fps),
    )


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
    (see the module docstring for why).  The key is held as its byte
    parts — the outer header, one part per process, the middle header,
    one part per object — plus :attr:`stale`, the components whose
    part is out of date.  The run adds to :attr:`stale` whatever a step
    or a toss answer changed; :meth:`parts` re-encodes only those and
    returns parts that join into bytes bit-identical to
    ``encode_canonical(run.state_fingerprint())``.  The parts and the
    stale set participate in checkpoint/restore via :meth:`snapshot` /
    :meth:`restore`.
    """

    __slots__ = ("_components", "_slot", "_parts", "stale", "_active")

    def __init__(self, processes: list["Process"], objects: list["CommunicationObject"]):
        # encode_canonical((proc_fps, obj_fps)) == outer 2-tuple header,
        # then the process-tuple header + component encodings, then the
        # object-tuple header + component encodings.
        head = _header(2, len(processes))
        mid = _header(len(objects))
        self._components = (*processes, *objects)
        #: Component -> index of its part in :attr:`_parts`.
        self._slot = {process: 1 + i for i, process in enumerate(processes)}
        self._slot.update(
            (obj, 2 + len(processes) + i) for i, obj in enumerate(objects)
        )
        self._parts = [head, *(b"" for _ in processes), mid, *(b"" for _ in objects)]
        #: Components whose part no longer encodes their state; every
        #: one of them until the first :meth:`parts`.
        self.stale: set = set(self._components)
        #: Whether :meth:`parts` has ever run.  Until then every part is
        #: stale and nothing is worth checkpointing, so :meth:`snapshot`
        #: is free.
        self._active = False

    def parts(self) -> tuple[bytes, ...]:
        """The key's parts, re-encoding stale components only."""
        self._active = True
        parts = self._parts
        stale = self.stale
        if stale:
            slot = self._slot
            for component in stale:
                parts[slot[component]] = _component_bytes(component.state_fingerprint())
            stale.clear()
        return tuple(parts)

    def invalidate(self) -> None:
        """Mark every component stale (the next :meth:`parts` re-encodes all)."""
        self.stale.update(self._components)

    # -- checkpoint / restore -----------------------------------------------------

    def snapshot(self) -> tuple | None:
        """The parts and the stale set, captured into a
        :class:`RunCheckpoint`.

        A part changed since the last :meth:`parts` is in the stale set, so
        the snapshot never claims its old bytes for the checkpointed
        state.  Until the first :meth:`parts` every part is stale: ``None``
        is returned (and accepted back by :meth:`Run.restore` as "mark
        everything stale"), keeping checkpoints free for searches that
        never ask for state keys.
        """
        if not self._active:
            return None
        return tuple(self._parts), tuple(self.stale)

    def restore(self, snap: tuple) -> None:
        """Reinstall a :meth:`snapshot` after a journal rewind.

        The rewind brings back the checkpointed state, so the parts and
        the stale set captured with it describe the live state again,
        whatever moved in between.
        """
        parts, stale = snap
        self._parts[:] = parts
        self.stale.clear()
        self.stale.update(stale)
