"""Span/event tracing with Chrome trace-event JSON export.

The tracer is the timeline half of the observability layer
(:mod:`repro.obs`): lightweight spans (context-manager API, monotonic
timestamps, microsecond resolution) recorded into an in-memory buffer
and exported in the Chrome trace-event format, so a whole search run —
pipeline phases, per-path DFS spans, replay prefixes, per-worker
parallel timelines — can be dropped into ``chrome://tracing`` or
https://ui.perfetto.dev and inspected visually.

Design constraints, in order:

* **Zero cost when absent.**  Nothing in the hot paths constructs a
  tracer by default; every instrumentation site is guarded by a single
  ``if tracer is not None``.  The only price of the feature when unused
  is that one branch.
* **Thread- and process-safety.**  The event buffer is guarded by a
  lock (cheap, uncontended in the single-threaded explorer); separate
  *processes* each own a private tracer whose buffer travels back to
  the coordinator as a plain-dict payload (:meth:`Tracer.export`) and
  is spliced onto the coordinator's timeline (:meth:`Tracer.merge`)
  using wall-clock epochs to align the clocks.
* **Bounded memory.**  A 45k-state sweep can emit one span per DFS
  path; past ``max_events`` the tracer counts drops instead of growing
  (the export records how many were dropped, so truncation is never
  silent).

Events use the ``"X"`` (complete) phase — one record per span with
``ts``/``dur`` — plus ``"i"`` instants and ``"C"`` counters, all with
the ``pid``/``tid``/``name``/``cat`` keys the viewers expect.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Version tag of the exported worker-payload format (see
#: :meth:`Tracer.export` / :meth:`Tracer.merge`).
EXPORT_FORMAT = "repro-obs-events/1"

#: Category used for pipeline phases; :meth:`Tracer.phase_timings`
#: aggregates only spans in this category.
PHASE_CATEGORY = "phase"


class Tracer:
    """An append-only span/event recorder with Chrome trace export.

    Timestamps are ``time.monotonic()`` microseconds relative to the
    tracer's construction; ``epoch_unix`` (wall clock at construction)
    lets buffers from different processes be aligned on one timeline.

    Use :meth:`span` (a context manager) for durations, :meth:`instant`
    for point events and :meth:`counter` for sampled values::

        tracer = Tracer()
        with tracer.span("close", cat="phase", procs=3):
            ...
        tracer.instant("violation", process="line_0")
        tracer.write("trace.json")          # Perfetto-loadable
    """

    def __init__(
        self,
        *,
        max_events: int = 1_000_000,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self._epoch = clock()
        #: Wall-clock time at construction, for cross-process alignment.
        self.epoch_unix = time.time()
        self._lock = threading.Lock()
        self._events: list[dict[str, Any]] = []
        self._max_events = max_events
        self._dropped = 0
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------------

    def now_us(self) -> float:
        """The timeline clock: microseconds since construction."""
        return (self._clock() - self._epoch) * 1e6

    def _emit(self, event: dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) >= self._max_events:
                self._dropped += 1
                return
            self._events.append(event)

    def complete(self, name: str, start_us: float, cat: str = "span", **args: Any) -> None:
        """Record a complete (``ph="X"``) event from ``start_us`` (a
        :meth:`now_us` reading) until now."""
        event: dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_us,
            "dur": self.now_us() - start_us,
            "pid": self._pid,
            "tid": threading.get_native_id(),
        }
        if args:
            event["args"] = args
        self._emit(event)

    @contextmanager
    def span(self, name: str, cat: str = "span", **args: Any) -> Iterator[None]:
        """Record a complete (``ph="X"``) event covering the ``with`` body."""
        start = self.now_us()
        try:
            yield
        finally:
            self.complete(name, start, cat, **args)

    def phase(self, name: str, **args: Any):
        """A :meth:`span` in the ``"phase"`` category — one top-level
        pipeline stage (parse, close, search, save-traces, ...).  Phase
        durations are aggregated by :meth:`phase_timings` and recorded
        in run manifests."""
        return self.span(name, cat=PHASE_CATEGORY, **args)

    def instant(self, name: str, cat: str = "event", **args: Any) -> None:
        """Record a point-in-time (``ph="i"``) event."""
        event: dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": self.now_us(),
            "pid": self._pid,
            "tid": threading.get_native_id(),
        }
        if args:
            event["args"] = args
        self._emit(event)

    def counter(self, name: str, cat: str = "counter", **values: float) -> None:
        """Record a sampled counter (``ph="C"``): the viewers chart each
        key of ``values`` as a stacked series over time."""
        self._emit(
            {
                "name": name,
                "cat": cat,
                "ph": "C",
                "ts": self.now_us(),
                "pid": self._pid,
                "tid": threading.get_native_id(),
                "args": dict(values),
            }
        )

    # -- inspection ----------------------------------------------------------

    @property
    def events(self) -> list[dict[str, Any]]:
        """A snapshot of the recorded events (copies the buffer)."""
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        """Events discarded after the buffer hit ``max_events``."""
        with self._lock:
            return self._dropped

    def phase_timings(self) -> dict[str, float]:
        """Summed duration in *seconds* per phase-span name (spans
        recorded via :meth:`phase`), for run manifests."""
        out: dict[str, float] = {}
        for event in self.events:
            if event.get("cat") == PHASE_CATEGORY and event.get("ph") == "X":
                out[event["name"]] = out.get(event["name"], 0.0) + event["dur"] / 1e6
        return out

    # -- cross-process merge -------------------------------------------------

    def export(self, label: str | None = None) -> dict[str, Any]:
        """The picklable payload a worker process ships back to the
        coordinator: buffer + clock epoch + pid (+ optional ``label``
        naming the worker's timeline track)."""
        with self._lock:
            return {
                "format": EXPORT_FORMAT,
                "pid": self._pid,
                "epoch_unix": self.epoch_unix,
                "label": label,
                "dropped": self._dropped,
                "events": list(self._events),
            }

    def merge(self, payload: dict[str, Any]) -> None:
        """Splice a worker's :meth:`export` payload onto this tracer's
        timeline.  Timestamps are shifted by the wall-clock epoch delta
        so the worker's spans land where they actually happened relative
        to the coordinator; the worker's own pid keeps its events on a
        separate track (the per-worker timeline)."""
        if payload.get("format") != EXPORT_FORMAT:
            raise ValueError(
                f"unknown trace payload format {payload.get('format')!r}"
            )
        shift = (payload["epoch_unix"] - self.epoch_unix) * 1e6
        shifted = []
        for event in payload["events"]:
            event = dict(event)
            event["ts"] = event["ts"] + shift
            shifted.append(event)
        label = payload.get("label")
        if label:
            shifted.insert(
                0,
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": payload["pid"],
                    "tid": 0,
                    "args": {"name": label},
                },
            )
        with self._lock:
            self._events.extend(shifted)
            self._dropped += payload.get("dropped", 0)

    # -- export --------------------------------------------------------------

    def chrome_trace(self, process_name: str = "repro") -> dict[str, Any]:
        """The Chrome trace-event JSON object (``chrome://tracing`` /
        Perfetto loadable): metadata naming this process, then every
        recorded event sorted by timestamp."""
        with self._lock:
            events = sorted(self._events, key=lambda e: e["ts"])
            dropped = self._dropped
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": self._pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        trace: dict[str, Any] = {
            "traceEvents": meta + events,
            "displayTimeUnit": "ms",
        }
        if dropped:
            trace["otherData"] = {"dropped_events": dropped}
        return trace

    def write(self, path: str | pathlib.Path, process_name: str = "repro") -> pathlib.Path:
        """Serialize :meth:`chrome_trace` to ``path`` and return it."""
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.chrome_trace(process_name)) + "\n")
        return path


def validate_chrome_trace(trace: dict[str, Any]) -> list[str]:
    """Schema-check a Chrome trace-event object; returns the problems
    found (empty list = valid).  Used by the golden-file tests and
    handy for asserting third-party loadability without a browser:
    every event needs ``ph``/``ts``/``pid``/``tid``/``name``, complete
    events need a non-negative ``dur``, and instants need a scope."""
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for index, event in enumerate(events):
        for key in ("ph", "ts", "pid", "tid", "name"):
            if key not in event:
                problems.append(f"event {index} missing {key!r}")
        ph = event.get("ph")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {index}: complete event with bad dur {dur!r}")
        elif ph == "i" and "s" not in event:
            problems.append(f"event {index}: instant without scope 's'")
        elif ph not in ("X", "i", "C", "M", "B", "E"):
            problems.append(f"event {index}: unknown phase {ph!r}")
    return problems
