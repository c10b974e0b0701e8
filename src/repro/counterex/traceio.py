"""The versioned on-disk counterexample trace format.

A :class:`~repro.verisoft.results.Trace` dies with the Python process;
this module gives it a life on disk.  A **trace file** is a single JSON
document carrying everything needed to reproduce, minimize and triage a
violation long after the search that found it:

* the **choice sequence** — schedule and ``VS_toss`` decisions, the
  exact replay recipe (the runtime is deterministic, so choices are a
  complete encoding of the execution);
* the recorded **steps** — the human-readable visible operations, kept
  so a trace is inspectable without re-execution;
* the **violation** — kind, location fields and the stable triage
  signature (:mod:`repro.counterex.triage`);
* the **system fingerprint** (:meth:`repro.runtime.system.System.fingerprint`)
  — detects that the program changed since capture;
* **search metadata** — strategy, PRNG seed and the full
  :class:`~repro.verisoft.search.SearchOptions` snapshot, so the file
  also records *how* it was found;
* optionally the **system payload** — the JSON system description and
  program source, making the file fully self-contained for
  ``repro replay trace.json`` with no other artifacts.

Version policy (also recorded in DESIGN.md): ``version`` is a single
integer, bumped on any change that older readers would misinterpret.
Readers accept exactly the versions they know; unknown versions raise
:class:`TraceFormatError` instead of guessing.  New *optional* keys may
be added without a bump — readers must ignore unknown keys.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from ..jsondoc import NULL, REQUIRED, FormatError, Shape
from ..sysdesc import check_description
from ..verisoft.results import (
    AssertionViolationEvent,
    Choice,
    CrashEvent,
    DeadlockEvent,
    DivergenceEvent,
    ExplorationReport,
    ScheduleChoice,
    TossChoice,
    Trace,
    TraceStep,
)
from .triage import (
    Signature,
    event_kind,
    event_signature,
    signature_from_json,
    signature_to_json,
)

#: Magic format tag of every trace file.
FORMAT = "repro-trace"
#: Current (and only) trace-format version this build reads and writes.
VERSION = 1


class TraceFormatError(FormatError):
    """A trace file is malformed or of an unsupported version.  The
    message starts with the JSON path of the bad entry
    (``$.choices[3][2]: expected int, got str``)."""


_TRACE = Shape(TraceFormatError)


# ---------------------------------------------------------------------------
# Choice / step (de)serialization
# ---------------------------------------------------------------------------


def choices_to_json(choices: tuple[Choice, ...]) -> list:
    """Choices as compact JSON: ``["s", proc]`` / ``["t", proc, value]``."""
    out: list = []
    for choice in choices:
        if isinstance(choice, TossChoice):
            out.append(["t", choice.process, choice.value])
        else:
            out.append(["s", choice.process])
    return out


#: ``["s", process]`` or ``["t", process, value]``, by tag.
_CHOICE_ROWS = {"s": ((str,), (str,)), "t": ((str,), (str,), (int,))}


def choices_from_json(
    payload: Any, path: str = "$.choices", shape: Shape = _TRACE
) -> tuple[Choice, ...]:
    """Inverse of :func:`choices_to_json`.  A malformed entry raises
    the ``shape``'s error (:class:`TraceFormatError` unless another
    format embeds the choices) at its JSON ``path``."""
    choices: list[Choice] = []
    for i, entry in enumerate(shape.check(payload, (list,), path)):
        at = f"{path}[{i}]"
        tag = entry[0] if type(entry) is list and entry else None
        if type(tag) is not str or tag not in _CHOICE_ROWS:
            raise shape.error('expected ["s", process] or ["t", process, value]', at)
        row = shape.row(entry, _CHOICE_ROWS[tag], at)
        choices.append(ScheduleChoice(row[1]) if tag == "s" else TossChoice(row[1], row[2]))
    return tuple(choices)


def steps_to_json(steps: tuple[TraceStep, ...]) -> list:
    """Steps as JSON: ``[process, op, obj_or_null, detail]``."""
    return [[s.process, s.op, s.obj, s.detail] for s in steps]


#: ``[process, op, obj, detail]``.
_STEP_ROW = ((str,), (str,), (str, NULL), (str,))


def steps_from_json(
    payload: Any, path: str = "$.steps", shape: Shape = _TRACE
) -> tuple[TraceStep, ...]:
    """Inverse of :func:`steps_to_json`; errors as in
    :func:`choices_from_json`."""
    return tuple(
        TraceStep(*shape.row(step, _STEP_ROW, f"{path}[{i}]"))
        for i, step in enumerate(shape.check(payload, (list,), path))
    )


# ---------------------------------------------------------------------------
# Violation payloads
# ---------------------------------------------------------------------------


def violation_to_json(event: Any) -> dict:
    """The trace-less event fields plus kind and triage signature."""
    kind = event_kind(event)
    payload: dict[str, Any] = {
        "kind": kind,
        "signature": signature_to_json(event_signature(event)),
    }
    if isinstance(event, DeadlockEvent):
        payload["blocked"] = list(event.blocked)
        payload["waiting"] = [list(entry) for entry in event.waiting]
    elif isinstance(event, AssertionViolationEvent):
        payload["process"] = event.process
        payload["proc_name"] = event.proc_name
        payload["node_id"] = event.node_id
    elif isinstance(event, CrashEvent):
        payload["process"] = event.process
        payload["message"] = event.message
    else:  # DivergenceEvent
        payload["process"] = event.process
    return payload


#: Each violation kind's fields: name, JSON types, required.
_VIOLATION_FIELDS = {
    "deadlock": (),
    "assertion": (
        ("process", (str,), True), ("proc_name", (str,), True), ("node_id", (int,), True),
    ),
    "crash": (("process", (str,), True), ("message", (str,), False)),
    "divergence": (("process", (str,), True),),
}
#: A deadlock's ``waiting`` entry: ``[process, op, obj]``.
_WAIT_ROW = ((str,), (str,), (str, NULL))


def violation_from_json(
    payload: Any, trace: Trace, path: str = "$.violation", shape: Shape = _TRACE
) -> Any:
    """Rebuild the typed event object carrying ``trace``; errors as in
    :func:`choices_from_json`."""
    shape.check(payload, (dict,), path)
    kind = shape.field(payload, "kind", (str,), path)
    if kind not in _VIOLATION_FIELDS:
        raise shape.error(f"unknown violation kind {kind!r}", f"{path}.kind")
    for key, kinds, required in _VIOLATION_FIELDS[kind]:
        shape.field(payload, key, kinds, path, REQUIRED if required else None)
    if kind == "deadlock":
        blocked = shape.items(payload.get("blocked", []), (str,), f"{path}.blocked")
        waiting = shape.items(payload.get("waiting", []), (list,), f"{path}.waiting")
        return DeadlockEvent(
            trace,
            tuple(blocked),
            tuple(
                shape.row(row, _WAIT_ROW, f"{path}.waiting[{i}]") for i, row in enumerate(waiting)
            ),
        )
    if kind == "assertion":
        return AssertionViolationEvent(
            trace, payload["process"], payload["proc_name"], payload["node_id"]
        )
    if kind == "crash":
        return CrashEvent(trace, payload["process"], payload.get("message", ""))
    return DivergenceEvent(trace, payload["process"])


def _check_signature(payload: Any, path: str) -> None:
    """A triage signature: a JSON list of strings, ints, nulls and such
    lists (so :func:`signature_from_json` gives a hashable tuple)."""
    for i, item in enumerate(_TRACE.check(payload, (list,), path)):
        if type(item) is list:
            _check_signature(item, f"{path}[{i}]")
        else:
            _TRACE.check(item, (str, int, NULL), f"{path}[{i}]")


# ---------------------------------------------------------------------------
# The trace file
# ---------------------------------------------------------------------------


@dataclass
class TraceFile:
    """In-memory form of one persisted counterexample."""

    #: Violation payload: kind, location fields, triage signature.
    violation: dict
    #: The replayable trace (choices + recorded steps).
    trace: Trace
    #: System fingerprint at capture time (``None`` if unrecorded).
    fingerprint: str | None = None
    #: Search metadata: ``strategy``, ``seed``, ``options`` snapshot.
    search: dict = field(default_factory=dict)
    #: Self-contained rebuild payload:
    #: ``{"description": <system JSON>, "program_source": <text>}``.
    system: dict | None = None
    #: Shrink provenance, set by ``repro shrink``:
    #: ``{"original_choices": N, "oracle_runs": R}``.
    shrink: dict | None = None
    version: int = VERSION

    def event(self) -> Any:
        """The typed violation event, trace attached."""
        return violation_from_json(self.violation, self.trace)

    def signature(self) -> Signature:
        """The hashable triage signature recorded in the file."""
        return signature_from_json(self.violation["signature"])

    @property
    def kind(self) -> str:
        """The violation kind string."""
        return self.violation.get("kind", "?")

    def to_json(self) -> dict:
        """The complete JSON document (dict form)."""
        doc: dict[str, Any] = {
            "format": FORMAT,
            "version": self.version,
            "fingerprint": self.fingerprint,
            "violation": self.violation,
            "choices": choices_to_json(self.trace.choices),
            "steps": steps_to_json(self.trace.steps),
            "search": self.search,
        }
        if self.system is not None:
            doc["system"] = self.system
        if self.shrink is not None:
            doc["shrink"] = self.shrink
        return doc

    @classmethod
    def from_json(cls, doc: Any) -> "TraceFile":
        """Parse and validate a JSON document: every key this class,
        replay and shrink read.  Anything malformed raises
        :class:`TraceFormatError` naming the JSON path of the bad entry
        (``$.violation.signature[1]``)."""
        if not isinstance(doc, dict):
            raise TraceFormatError("not a trace file: top level must be a JSON object", "$")
        if doc.get("format") != FORMAT:
            raise TraceFormatError(
                f"not a {FORMAT} file (format tag: {doc.get('format')!r})", "$.format"
            )
        version = doc.get("version")
        if type(version) is not int or version != VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version!r} "
                f"(this build reads version {VERSION})",
                "$.version",
            )
        trace = Trace(
            choices_from_json(_TRACE.field(doc, "choices", (list,), "$")),
            steps_from_json(_TRACE.field(doc, "steps", (list,), "$", [])),
        )
        violation = _TRACE.field(doc, "violation", (dict,), "$")
        violation_from_json(violation, trace)
        _check_signature(
            _TRACE.field(violation, "signature", (list,), "$.violation"), "$.violation.signature"
        )
        search = _TRACE.field(doc, "search", (dict,), "$", {})
        _TRACE.field(search, "engine", (str, NULL), "$.search", None)
        options = _TRACE.field(search, "options", (dict,), "$.search", {})
        _TRACE.field(options, "engine", (str, NULL), "$.search.options", None)
        system = _TRACE.field(doc, "system", (dict, NULL), "$", None)
        if system is not None:
            description = _TRACE.field(system, "description", (dict,), "$.system")
            check_description(description, "$.system.description", _TRACE)
            _TRACE.field(system, "program_source", (str, NULL), "$.system", None)
        return cls(
            violation=violation,
            trace=trace,
            fingerprint=_TRACE.field(doc, "fingerprint", (str, NULL), "$", None),
            search=search,
            system=system,
            shrink=_TRACE.field(doc, "shrink", (dict, NULL), "$", None),
            version=version,
        )


def search_metadata(report: ExplorationReport | None) -> dict:
    """The ``search`` block of a trace file, from a report's recorded
    provenance (strategy, seed, options — see
    :attr:`~repro.verisoft.results.ExplorationReport.options`)."""
    if report is None:
        return {}
    meta: dict[str, Any] = {}
    if report.stats is not None:
        meta["strategy"] = report.stats.strategy
        # The *resolved* engine (after any compilability fallback), so a
        # replay can warn when re-executing under a different one.
        meta["engine"] = report.stats.engine
    if report.seed is not None:
        meta["seed"] = report.seed
    if report.options is not None:
        meta["options"] = report.options.as_dict()
        meta.setdefault("strategy", report.options.strategy)
    return meta


def trace_file_for_event(
    event: Any,
    *,
    system=None,
    report: ExplorationReport | None = None,
    system_payload: dict | None = None,
    language: str | None = None,
) -> TraceFile:
    """Build a :class:`TraceFile` for one violation event.

    ``system`` (a :class:`~repro.runtime.system.System`) supplies the
    fingerprint; ``report`` the search metadata; ``system_payload`` the
    optional self-contained rebuild block; ``language`` records the
    front end (``rc``/``c``/``python``) the program came through, so
    artifacts are self-describing.
    """
    if not event.trace.choices:
        raise ValueError(
            "event carries no trace (recorded past the max_events cap); "
            "re-run with a higher --max-events to persist it"
        )
    search = search_metadata(report)
    if language is not None:
        search["language"] = language
    return TraceFile(
        violation=violation_to_json(event),
        trace=event.trace,
        fingerprint=system.fingerprint() if system is not None else None,
        search=search,
        system=system_payload,
    )


def save_trace(path: str | pathlib.Path, trace_file: TraceFile) -> pathlib.Path:
    """Write ``trace_file`` as JSON; returns the path written."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(trace_file.to_json(), indent=2) + "\n")
    return path


def load_trace(path: str | pathlib.Path) -> TraceFile:
    """Read and validate a trace file; a malformed file raises
    :class:`TraceFormatError` naming the file and the bad entry."""
    return _TRACE.read_json(path, TraceFile.from_json)


def save_report_traces(
    directory: str | pathlib.Path,
    report: ExplorationReport,
    *,
    system=None,
    system_payload: dict | None = None,
    language: str | None = None,
) -> list[pathlib.Path]:
    """Write one trace file per recorded violation of ``report``.

    Files are named ``<kind>-<NNN>.json`` in stable report order;
    trace-less placeholder events (past the ``max_events`` cap) are
    skipped.  ``language`` stamps each trace's search metadata with the
    originating front end.  Returns the paths written.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    counters: dict[str, int] = {}
    for event in report.all_events():
        if not event.trace.choices:
            continue
        kind = event_kind(event)
        index = counters.get(kind, 0)
        counters[kind] = index + 1
        trace_file = trace_file_for_event(
            event,
            system=system,
            report=report,
            system_payload=system_payload,
            language=language,
        )
        written.append(
            save_trace(directory / f"{kind}-{index:03d}.json", trace_file)
        )
    return written
