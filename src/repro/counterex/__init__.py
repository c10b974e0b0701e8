"""The counterexample engine: persistence, replay, shrinking, triage.

The point of closing an open program is to hand it to the VeriSoft-style
explorer and get back *reproducible erroneous scenarios* — and a
scenario is only useful if it outlives the process that found it, is
small enough to read, and is not one of fifty duplicates.  This package
layers those three concerns on the stateless runtime:

* :mod:`repro.counterex.traceio` — a versioned JSON trace format with
  save/load, carrying the choice sequence, the violation, the system
  fingerprint and the search metadata (``repro search --save-traces``);
* :mod:`repro.counterex.replay` — replay from disk with a precise
  divergence diagnosis when the program has changed (``repro replay``);
* :mod:`repro.counterex.shrink` — ddmin over the choice sequence plus
  greedy toss-value minimization, with deterministic re-execution as
  the oracle (``repro shrink``);
* :mod:`repro.counterex.triage` — stable violation signatures, dedup
  and grouping across a search's events (``report.triage()``).
"""

from .replay import (
    ReplayOutcome,
    ReplayVerdict,
    reproduces,
    run_choices,
    verify_trace,
)
from .shrink import ShrinkError, ShrinkResult, ddmin, shrink, shrink_choices
from .traceio import (
    FORMAT,
    VERSION,
    TraceFile,
    TraceFormatError,
    load_trace,
    save_report_traces,
    save_trace,
    trace_file_for_event,
)
from .triage import (
    Signature,
    ViolationGroup,
    describe_groups,
    event_kind,
    event_signature,
    group_events,
    source_anchor,
)

__all__ = [
    "FORMAT",
    "ReplayOutcome",
    "ReplayVerdict",
    "ShrinkError",
    "ShrinkResult",
    "Signature",
    "TraceFile",
    "TraceFormatError",
    "VERSION",
    "ViolationGroup",
    "ddmin",
    "describe_groups",
    "event_kind",
    "event_signature",
    "group_events",
    "load_trace",
    "reproduces",
    "run_choices",
    "save_report_traces",
    "save_trace",
    "shrink",
    "shrink_choices",
    "source_anchor",
    "trace_file_for_event",
    "verify_trace",
]
