"""The versioned on-disk frontier-checkpoint format.

A parallel search (:mod:`repro.verisoft.parallel`) decomposes its
remaining work into **subtree leases** — fully pinned
:class:`~repro.verisoft.parallel.ChoicePrefix` snapshots carrying the
choice stack, the pinned decisions and the partial-order-reduction
context (sleep sets, explored-sibling signatures).  A
:class:`SearchCheckpoint` is the suspended search in one JSON document:

* the **pending leases** — the prefixes of every subtree not yet
  explored, in sequential DFS order;
* the **completed blocks** — one partial
  :class:`~repro.verisoft.results.ExplorationReport` per finished
  lease, keyed by the lease's DFS position
  (:func:`~repro.verisoft.parallel.prefix_key`), kept *unmerged* so the
  final merge reproduces sequential event order exactly no matter how
  many suspend/resume cycles the search went through;
* the **state fingerprints** seen so far (``count_states`` searches),
  canonicalized to strings so the distinct-state union survives JSON;
* the **search options** snapshot and the **system fingerprint**
  (:meth:`repro.runtime.system.System.fingerprint`), so resuming
  against a changed program or changed knobs (any but
  :data:`FREE_OPTIONS`) fails loudly instead of producing a report that
  is half one search and half another.

Because the sleep-set context travels inside the pinned points and the
runtime is deterministic, a checkpoint written by a ``walk``-engine
search resumes bit-identically on the ``compiled`` engine and vice
versa — the engine is a throughput lever, not part of the format.

Version policy (same contract as :mod:`repro.counterex.traceio`):
``version`` is a single integer, bumped on any change that older
readers would misinterpret.  Readers accept exactly the versions they
know; unknown versions raise :class:`FrontierFormatError` instead of
guessing.  New *optional* keys may be added without a bump — readers
must ignore unknown keys.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Any

from ..counterex.traceio import (
    _NULL,
    TraceFormatError,
    _check,
    _field,
    _items,
    _row,
    choices_from_json,
    choices_to_json,
    steps_from_json,
    steps_to_json,
    violation_from_json,
    violation_to_json,
)
from ..runtime.fingerprint import decode_canonical
from ..verisoft.parallel import ChoicePrefix, PrefixPoint, prefix_key
from ..verisoft.por import TransitionSig
from ..verisoft.results import ExplorationReport, Trace
from ..verisoft.stats import SearchStats

#: Magic format tag of every frontier-checkpoint file.
FRONTIER_FORMAT = "repro-frontier"
#: Current (and only) frontier-format version this build reads and writes.
FRONTIER_VERSION = 1

#: The options a resumed search may change: they pick how the remaining
#: subtrees are searched and watched, not which subtrees or what the
#: report counts.
FREE_OPTIONS = frozenset(
    {
        "engine",
        "backtrack",
        "jobs",
        "scheduler",
        "time_budget",
        "progress_interval",
        "stall_timeout",
    }
)

__all__ = [
    "FRONTIER_FORMAT",
    "FRONTIER_VERSION",
    "FrontierFormatError",
    "SearchCheckpoint",
    "load_frontier",
    "prefix_from_json",
    "prefix_to_json",
    "report_from_json",
    "report_to_json",
    "save_frontier",
]


class FrontierFormatError(ValueError):
    """A frontier checkpoint is malformed or of an unsupported version."""


def _frontier_errors(decode):
    """``decode`` with the shared JSON checks' :class:`TraceFormatError`
    re-raised as a :class:`FrontierFormatError` (same path, same text)."""

    @functools.wraps(decode)
    def checked(*args, **kwargs):
        try:
            return decode(*args, **kwargs)
        except TraceFormatError as err:
            raise FrontierFormatError(str(err)) from err

    return checked


# ---------------------------------------------------------------------------
# Prefix (de)serialization
# ---------------------------------------------------------------------------


#: ``[process, node_id, op, obj, local]``.
_SIG_ROW = ((str,), (int,), (str,), (str, _NULL), (bool,))


def _sig_to_json(sig: TransitionSig) -> list:
    return [sig.process, sig.node_id, sig.op, sig.obj, sig.local]


def _sig_from_json(payload: Any, path: str) -> TransitionSig:
    return TransitionSig(*_row(payload, _SIG_ROW, path))


def prefix_to_json(prefix: ChoicePrefix) -> list:
    """A :class:`~repro.verisoft.parallel.ChoicePrefix` as JSON: one
    object per pinned point, POR context (sleep set, sibling
    signatures) included.  Sleep sets are emitted sorted so equal
    prefixes serialize byte-identically."""
    out: list = []
    for point in prefix.points:
        # Alternatives are plain scalars: process names for schedule
        # points, toss values (ints) for toss points — JSON-native.
        out.append(
            {
                "kind": point.kind,
                "alternatives": list(point.alternatives),
                "index": point.index,
                "sleep": sorted(
                    (_sig_to_json(sig) for sig in point.sleep),
                    key=lambda entry: [str(part) for part in entry],
                ),
                "sigs": [_sig_to_json(sig) for sig in point.sigs],
            }
        )
    return out


#: The JSON type of a point's alternatives, by point kind.
_ALTERNATIVE = {"schedule": (str,), "toss": (int,)}


@_frontier_errors
def prefix_from_json(payload: Any, path: str = "$") -> ChoicePrefix:
    """Inverse of :func:`prefix_to_json`.  A malformed entry raises
    :class:`FrontierFormatError` naming its JSON ``path``."""
    points = []
    for i, entry in enumerate(_check(payload, (list,), path)):
        at = f"{path}[{i}]"
        _check(entry, (dict,), at)
        kind = _field(entry, "kind", (str,), at)
        if kind not in _ALTERNATIVE:
            raise FrontierFormatError(f"{at}.kind: unknown choice-point kind {kind!r}")
        alternatives = _items(
            _field(entry, "alternatives", (list,), at), _ALTERNATIVE[kind], f"{at}.alternatives"
        )
        index = _field(entry, "index", (int,), at)
        if not 0 <= index < len(alternatives):
            raise FrontierFormatError(
                f"{at}.index: {index} is out of range for {len(alternatives)} alternatives"
            )
        sleep = _field(entry, "sleep", (list,), at, [])
        sigs = tuple(
            _sig_from_json(sig, f"{at}.sigs[{j}]")
            for j, sig in enumerate(_field(entry, "sigs", (list,), at, []))
        )
        if kind == "schedule" and len(sigs) != len(alternatives):
            # The explorer's sleep sets and path record read the
            # signature of every alternative of a schedule point.
            raise FrontierFormatError(
                f"{at}.sigs: expected {len(alternatives)} signatures, one per "
                f"alternative, got {len(sigs)}"
            )
        points.append(
            PrefixPoint(
                kind=kind,
                alternatives=tuple(alternatives),
                index=index,
                sleep=frozenset(
                    _sig_from_json(sig, f"{at}.sleep[{j}]") for j, sig in enumerate(sleep)
                ),
                sigs=sigs,
            )
        )
    return ChoicePrefix(tuple(points))


# ---------------------------------------------------------------------------
# Report-block (de)serialization
# ---------------------------------------------------------------------------

_EVENT_LISTS = ("deadlocks", "violations", "crashes", "divergences")


def _event_to_json(event: Any) -> dict:
    return {
        "violation": violation_to_json(event),
        "choices": choices_to_json(event.trace.choices),
        "steps": steps_to_json(event.trace.steps),
    }


def _event_from_json(payload: Any, path: str) -> Any:
    _check(payload, (dict,), path)
    trace = Trace(
        choices_from_json(_field(payload, "choices", (list,), path), f"{path}.choices"),
        steps_from_json(_field(payload, "steps", (list,), path, []), f"{path}.steps"),
    )
    violation = _field(payload, "violation", (dict,), path)
    return violation_from_json(violation, trace, f"{path}.violation")


def report_to_json(report: ExplorationReport) -> dict:
    """One lease's partial report as JSON: the counters, the recorded
    events (reusing the counterexample trace codecs of
    :mod:`repro.counterex.traceio`) and the full
    :class:`~repro.verisoft.stats.SearchStats` snapshot."""
    doc: dict[str, Any] = {
        "states_visited": report.states_visited,
        "transitions_executed": report.transitions_executed,
        "toss_points": report.toss_points,
        "paths_explored": report.paths_explored,
        "max_depth_reached": report.max_depth_reached,
        "truncated": report.truncated,
        "incomplete": report.incomplete,
    }
    for name in _EVENT_LISTS:
        doc[name] = [_event_to_json(event) for event in getattr(report, name)]
    if report.stats is not None:
        doc["stats"] = report.stats.as_dict()
    return doc


_REPORT_COUNTERS = (
    "states_visited", "transitions_executed", "toss_points", "paths_explored", "max_depth_reached",
)
#: The JSON type of each :class:`SearchStats` field (a float takes an int).
_STATS_KINDS = {
    f.name: (int, float) if type(f.default) is float else (type(f.default),)
    for f in fields(SearchStats)
}


@_frontier_errors
def report_from_json(payload: Any, path: str = "$") -> ExplorationReport:
    """Inverse of :func:`report_to_json`.  A malformed entry raises
    :class:`FrontierFormatError` naming its JSON ``path``."""
    _check(payload, (dict,), path)
    report = ExplorationReport(
        **{name: _field(payload, name, (int,), path, 0) for name in _REPORT_COUNTERS},
        truncated=_field(payload, "truncated", (bool,), path, False),
        incomplete=_field(payload, "incomplete", (bool,), path, False),
    )
    for name in _EVENT_LISTS:
        events = _field(payload, name, (list,), path, [])
        getattr(report, name).extend(
            _event_from_json(entry, f"{path}.{name}[{i}]") for i, entry in enumerate(events)
        )
    if "stats" in payload:
        stats = _field(payload, "stats", (dict,), path)
        report.stats = SearchStats(
            **{
                name: _check(value, _STATS_KINDS[name], f"{path}.stats.{name}")
                for name, value in stats.items()
                if name in _STATS_KINDS
            }
        )
    return report


def _block_from_json(
    entry: Any, path: str
) -> tuple[tuple[int, ...], ExplorationReport]:
    """One completed block: ``{"key": [...], "report": {...}}``."""
    _check(entry, (dict,), path)
    key = _items(_field(entry, "key", (list,), path), (int,), f"{path}.key")
    return tuple(key), report_from_json(_field(entry, "report", (dict,), path), f"{path}.report")


# ---------------------------------------------------------------------------
# The checkpoint
# ---------------------------------------------------------------------------


def canonical_fingerprint(value: Any) -> str:
    """The canonical string form of a state fingerprint.

    State fingerprints are nested tuples of primitives — hashable but
    not JSON-stable (tuples come back as lists).  ``repr`` is injective
    on them, so unioning canonical strings counts distinct states
    exactly as unioning the raw values would; the scheduler
    canonicalizes every fingerprint at lease-commit time so suspend/
    resume cycles never mix representations.

    The explorer now collects fingerprints as canonical *bytes*
    (:meth:`~repro.runtime.system.Run.state_key`); those decode back to
    the structural tuple first, so the wire form — and therefore every
    frontier checkpoint written before the incremental-fingerprint
    change — stays bit-identical (``FRONTIER_VERSION`` unchanged)."""
    if isinstance(value, bytes):
        value = decode_canonical(value)
    return repr(value)


@dataclass
class SearchCheckpoint:
    """A suspended parallel search, losslessly.

    Invariant: ``pending`` and ``completed`` partition the search's
    choice tree — every subtree is either below exactly one pending
    lease or accounted in exactly one completed block.  Resuming the
    checkpoint (feeding it back to
    :func:`~repro.verisoft.parallel.parallel_search`) therefore
    completes the search with a final report identical to an
    uninterrupted run.
    """

    #: System fingerprint at suspension time; resuming against a system
    #: with a different fingerprint raises :class:`FrontierFormatError`.
    fingerprint: str | None = None
    #: :meth:`~repro.verisoft.search.SearchOptions.as_dict` snapshot of
    #: the suspended search's options.
    options: dict = field(default_factory=dict)
    #: Unexplored subtree leases, each a fully pinned
    #: :class:`~repro.verisoft.parallel.ChoicePrefix` (``None`` is the
    #: whole-tree root lease of a search suspended before any work).
    pending: list[ChoicePrefix | None] = field(default_factory=list)
    #: Completed per-lease report blocks as ``(key, report)`` pairs,
    #: where ``key`` is the lease's
    #: :func:`~repro.verisoft.parallel.prefix_key` (``()`` for the root
    #: lease).  Kept unmerged — see the module docstring.
    completed: list[tuple[tuple[int, ...], ExplorationReport]] = field(
        default_factory=list
    )
    #: Canonicalized state fingerprints seen so far (``count_states``
    #: searches only; see :func:`canonical_fingerprint`).
    fingerprints: set[str] = field(default_factory=set)
    #: Lifetime work-stealing counters, carried across resume cycles.
    leases: int = 0
    steals: int = 0
    leases_requeued: int = 0
    version: int = FRONTIER_VERSION

    def done(self) -> bool:
        """No pending leases: the checkpoint is a finished search."""
        return not self.pending

    def to_json(self) -> dict:
        """The complete JSON document (dict form)."""
        return {
            "format": FRONTIER_FORMAT,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "options": self.options,
            "pending": [
                None if prefix is None else prefix_to_json(prefix)
                for prefix in self.pending
            ],
            "completed": [
                {"key": list(key), "report": report_to_json(report)}
                for key, report in self.completed
            ],
            "fingerprints": sorted(self.fingerprints),
            "leases": self.leases,
            "steals": self.steals,
            "leases_requeued": self.leases_requeued,
        }

    @classmethod
    @_frontier_errors
    def from_json(cls, doc: Any) -> "SearchCheckpoint":
        """Parse and validate a JSON document.  Anything malformed
        raises :class:`FrontierFormatError` naming the JSON path of the
        bad entry (``$.pending[2][0].index``)."""
        if not isinstance(doc, dict) or doc.get("format") != FRONTIER_FORMAT:
            raise FrontierFormatError(
                f"$.format: not a {FRONTIER_FORMAT} file (format tag: {doc.get('format')!r})"
                if isinstance(doc, dict)
                else "$: not a frontier checkpoint: top level must be a JSON object"
            )
        version = doc.get("version")
        if type(version) is not int or version != FRONTIER_VERSION:
            raise FrontierFormatError(
                f"$.version: unsupported frontier format version {version!r} "
                f"(this build reads version {FRONTIER_VERSION})"
            )
        pending = _field(doc, "pending", (list,), "$")
        completed = _field(doc, "completed", (list,), "$")
        fingerprints = _field(doc, "fingerprints", (list,), "$", [])
        _items(fingerprints, (str,), "$.fingerprints")
        return cls(
            fingerprint=_field(doc, "fingerprint", (str, _NULL), "$", None),
            options=_field(doc, "options", (dict,), "$", {}),
            pending=[
                None if entry is None else prefix_from_json(entry, f"$.pending[{i}]")
                for i, entry in enumerate(pending)
            ],
            completed=[
                _block_from_json(entry, f"$.completed[{i}]") for i, entry in enumerate(completed)
            ],
            fingerprints=set(fingerprints),
            leases=_field(doc, "leases", (int,), "$", 0),
            steals=_field(doc, "steals", (int,), "$", 0),
            leases_requeued=_field(doc, "leases_requeued", (int,), "$", 0),
            version=version,
        )

    def check_system(self, system) -> None:
        """Raise unless ``system`` matches the checkpointed fingerprint
        (a prefix of choices is only meaningful against the exact
        program it was recorded from)."""
        if self.fingerprint is None:
            return
        actual = system.fingerprint()
        if actual != self.fingerprint:
            raise FrontierFormatError(
                "frontier checkpoint was recorded from a different system "
                f"(checkpoint fingerprint {self.fingerprint}, "
                f"current {actual}); refusing to resume"
            )

    def check_options(self, options) -> None:
        """Raise unless ``options`` (a
        :class:`~repro.verisoft.search.SearchOptions`) match the
        checkpointed options in every field but :data:`FREE_OPTIONS`.
        A recorded key that ``SearchOptions`` no longer has is
        ignored."""
        current = options.as_dict()
        for name, recorded in self.options.items():
            if name in FREE_OPTIONS or name not in current:
                continue
            if current[name] != recorded:
                raise FrontierFormatError(
                    f"frontier checkpoint was searched with {name}={recorded!r}, "
                    f"this search asks for {name}={current[name]!r}; refusing to resume"
                )


def pending_key(prefix: ChoicePrefix | None) -> tuple[int, ...]:
    """DFS-order key of a pending lease (root lease sorts first)."""
    return () if prefix is None else prefix_key(prefix)


def save_frontier(
    path: str | pathlib.Path, checkpoint: SearchCheckpoint
) -> pathlib.Path:
    """Atomically write ``checkpoint`` as JSON; returns the path.

    Write-then-rename, so a reader (or a crash) never observes a
    half-written frontier — ``repro search --checkpoint`` rewrites the
    file of a *live* search on a timer."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(checkpoint.to_json(), indent=2) + "\n")
    tmp.replace(path)
    return path


def load_frontier(path: str | pathlib.Path) -> SearchCheckpoint:
    """Read and validate a frontier checkpoint; a malformed file raises
    :class:`FrontierFormatError` naming the file and the JSON path of
    the bad entry (``ck.json: $.pending[2][0].index: ...``)."""
    path = pathlib.Path(path)
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FrontierFormatError(f"{path}: not valid JSON: {err}") from err
    try:
        return SearchCheckpoint.from_json(doc)
    except FrontierFormatError as err:
        raise FrontierFormatError(f"{path}: {err}") from err
