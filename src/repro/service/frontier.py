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
* the **state keys** seen so far (``count_states`` searches): each
  key's parts (:meth:`~repro.runtime.system.Run.state_parts`) as
  indices into one table of the distinct parts, so the distinct-state
  union survives JSON and a part shared by many states is written once;
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
must ignore unknown keys.  Version 2 replaced version 1's state keys,
``repr`` strings of the decoded key structures, with the part table; a
version-1 document is refused at ``$.version``.
"""

from __future__ import annotations

import base64
import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Any

from ..counterex.traceio import (
    choices_from_json,
    choices_to_json,
    steps_from_json,
    steps_to_json,
    violation_from_json,
    violation_to_json,
)
from ..jsondoc import NULL, FormatError, Shape
from ..verisoft.parallel import ChoicePrefix, PrefixPoint, prefix_key
from ..verisoft.por import TransitionSig
from ..verisoft.results import ExplorationReport, Trace
from ..verisoft.stats import SearchStats

#: Magic format tag of every frontier-checkpoint file.
FRONTIER_FORMAT = "repro-frontier"
#: Current (and only) frontier-format version this build reads and writes.
FRONTIER_VERSION = 2

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


class FrontierFormatError(FormatError):
    """A frontier checkpoint is malformed or of an unsupported version."""


_FRONTIER = Shape(FrontierFormatError)


# ---------------------------------------------------------------------------
# Prefix (de)serialization
# ---------------------------------------------------------------------------


#: ``[process, node_id, op, obj, local]``.
_SIG_ROW = ((str,), (int,), (str,), (str, NULL), (bool,))


def _sig_to_json(sig: TransitionSig) -> list:
    return [sig.process, sig.node_id, sig.op, sig.obj, sig.local]


def _sig_from_json(payload: Any, path: str) -> TransitionSig:
    return TransitionSig(*_FRONTIER.row(payload, _SIG_ROW, path))


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


def prefix_from_json(payload: Any, path: str = "$") -> ChoicePrefix:
    """Inverse of :func:`prefix_to_json`.  A malformed entry raises
    :class:`FrontierFormatError` naming its JSON ``path``."""
    points = []
    for i, entry in enumerate(_FRONTIER.check(payload, (list,), path)):
        at = f"{path}[{i}]"
        _FRONTIER.check(entry, (dict,), at)
        kind = _FRONTIER.field(entry, "kind", (str,), at)
        if kind not in _ALTERNATIVE:
            raise FrontierFormatError(f"unknown choice-point kind {kind!r}", f"{at}.kind")
        alternatives = _FRONTIER.items(
            _FRONTIER.field(entry, "alternatives", (list,), at),
            _ALTERNATIVE[kind],
            f"{at}.alternatives",
        )
        index = _FRONTIER.field(entry, "index", (int,), at)
        if not 0 <= index < len(alternatives):
            raise FrontierFormatError(
                f"{index} is out of range for {len(alternatives)} alternatives", f"{at}.index"
            )
        sleep = _FRONTIER.field(entry, "sleep", (list,), at, [])
        sigs = tuple(
            _sig_from_json(sig, f"{at}.sigs[{j}]")
            for j, sig in enumerate(_FRONTIER.field(entry, "sigs", (list,), at, []))
        )
        if kind == "schedule" and len(sigs) != len(alternatives):
            # The explorer's sleep sets and path record read the
            # signature of every alternative of a schedule point.
            raise FrontierFormatError(
                f"expected {len(alternatives)} signatures, one per "
                f"alternative, got {len(sigs)}",
                f"{at}.sigs",
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
    _FRONTIER.check(payload, (dict,), path)
    choices = _FRONTIER.field(payload, "choices", (list,), path)
    steps = _FRONTIER.field(payload, "steps", (list,), path, [])
    trace = Trace(
        choices_from_json(choices, f"{path}.choices", _FRONTIER),
        steps_from_json(steps, f"{path}.steps", _FRONTIER),
    )
    violation = _FRONTIER.field(payload, "violation", (dict,), path)
    return violation_from_json(violation, trace, f"{path}.violation", _FRONTIER)


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


def report_from_json(payload: Any, path: str = "$") -> ExplorationReport:
    """Inverse of :func:`report_to_json`.  A malformed entry raises
    :class:`FrontierFormatError` naming its JSON ``path``."""
    _FRONTIER.check(payload, (dict,), path)
    report = ExplorationReport(
        **{name: _FRONTIER.field(payload, name, (int,), path, 0) for name in _REPORT_COUNTERS},
        truncated=_FRONTIER.field(payload, "truncated", (bool,), path, False),
        incomplete=_FRONTIER.field(payload, "incomplete", (bool,), path, False),
    )
    for name in _EVENT_LISTS:
        events = _FRONTIER.field(payload, name, (list,), path, [])
        getattr(report, name).extend(
            _event_from_json(entry, f"{path}.{name}[{i}]") for i, entry in enumerate(events)
        )
    if "stats" in payload:
        stats = _FRONTIER.field(payload, "stats", (dict,), path)
        report.stats = SearchStats(
            **{
                name: _FRONTIER.check(value, _STATS_KINDS[name], f"{path}.stats.{name}")
                for name, value in stats.items()
                if name in _STATS_KINDS
            }
        )
    return report


def _block_from_json(
    entry: Any, path: str
) -> tuple[tuple[int, ...], ExplorationReport]:
    """One completed block: ``{"key": [...], "report": {...}}``."""
    _FRONTIER.check(entry, (dict,), path)
    key = _FRONTIER.items(_FRONTIER.field(entry, "key", (list,), path), (int,), f"{path}.key")
    report = _FRONTIER.field(entry, "report", (dict,), path)
    return tuple(key), report_from_json(report, f"{path}.report")


# ---------------------------------------------------------------------------
# The checkpoint
# ---------------------------------------------------------------------------


#: A state key: the parts of :meth:`~repro.runtime.system.Run.state_parts`.
StateKey = tuple[bytes, ...]


def _keys_to_json(keys: set[StateKey]) -> dict:
    """State keys as ``{"parts": [...], "states": [[...], ...]}``: the
    distinct parts in base64, in first-use order, and each key as the
    indices of its parts.  The keys are sorted first, so equal sets
    serialize byte-identically."""
    index: dict[bytes, int] = {}
    states = [[index.setdefault(part, len(index)) for part in key] for key in sorted(keys)]
    return {
        "parts": [base64.b64encode(part).decode("ascii") for part in index],
        "states": states,
    }


def _keys_from_json(payload: Any, path: str) -> set[StateKey]:
    """Inverse of :func:`_keys_to_json`.  A part that is not base64 or
    an index out of range raises :class:`FrontierFormatError` naming
    its JSON ``path``."""
    parts = []
    texts = _FRONTIER.field(payload, "parts", (list,), path)
    for i, text in enumerate(_FRONTIER.items(texts, (str,), f"{path}.parts")):
        try:
            parts.append(base64.b64decode(text, validate=True))
        except ValueError as err:
            raise FrontierFormatError(f"not base64: {err}", f"{path}.parts[{i}]") from err
    keys = set()
    states = _FRONTIER.field(payload, "states", (list,), path)
    for i, state in enumerate(_FRONTIER.items(states, (list,), f"{path}.states")):
        at = f"{path}.states[{i}]"
        for j, index in enumerate(_FRONTIER.items(state, (int,), at)):
            if not 0 <= index < len(parts):
                raise FrontierFormatError(
                    f"part index {index} is out of range for {len(parts)} parts", f"{at}[{j}]"
                )
        keys.add(tuple([parts[index] for index in state]))
    return keys


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
    #: State keys seen so far (``count_states`` searches only): part
    #: tuples of :meth:`~repro.runtime.system.Run.state_parts`.
    fingerprints: set[StateKey] = field(default_factory=set)
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
            "fingerprints": _keys_to_json(self.fingerprints),
            "leases": self.leases,
            "steals": self.steals,
            "leases_requeued": self.leases_requeued,
        }

    @classmethod
    def from_json(cls, doc: Any) -> "SearchCheckpoint":
        """Parse and validate a JSON document.  Anything malformed
        raises :class:`FrontierFormatError` naming the JSON path of the
        bad entry (``$.pending[2][0].index``)."""
        if not isinstance(doc, dict):
            raise FrontierFormatError(
                "not a frontier checkpoint: top level must be a JSON object", "$"
            )
        if doc.get("format") != FRONTIER_FORMAT:
            raise FrontierFormatError(
                f"not a {FRONTIER_FORMAT} file (format tag: {doc.get('format')!r})", "$.format"
            )
        version = doc.get("version")
        if type(version) is not int or version != FRONTIER_VERSION:
            raise FrontierFormatError(
                f"unsupported frontier format version {version!r} "
                f"(this build reads version {FRONTIER_VERSION})",
                "$.version",
            )
        pending = _FRONTIER.field(doc, "pending", (list,), "$")
        completed = _FRONTIER.field(doc, "completed", (list,), "$")
        return cls(
            fingerprint=_FRONTIER.field(doc, "fingerprint", (str, NULL), "$", None),
            options=_FRONTIER.field(doc, "options", (dict,), "$", {}),
            pending=[
                None if entry is None else prefix_from_json(entry, f"$.pending[{i}]")
                for i, entry in enumerate(pending)
            ],
            completed=[
                _block_from_json(entry, f"$.completed[{i}]") for i, entry in enumerate(completed)
            ],
            fingerprints=_keys_from_json(
                _FRONTIER.field(doc, "fingerprints", (dict,), "$", {"parts": [], "states": []}),
                "$.fingerprints",
            ),
            leases=_FRONTIER.field(doc, "leases", (int,), "$", 0),
            steals=_FRONTIER.field(doc, "steals", (int,), "$", 0),
            leases_requeued=_FRONTIER.field(doc, "leases_requeued", (int,), "$", 0),
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
    return _FRONTIER.read_json(path, SearchCheckpoint.from_json)
