"""Resumable searches: the frontier checkpoint and work stealing.

The VeriSoft substrate (:mod:`repro.verisoft`) is stateless: a search
re-executes from choice sequences, so the set of pending choice
prefixes is the whole state of an unfinished search.  This package
holds what makes that state durable and shareable:

* :mod:`repro.service.frontier` — the versioned on-disk **frontier
  checkpoint** format.  A suspended search's pending subtree leases
  (picklable :class:`~repro.verisoft.parallel.ChoicePrefix` snapshots,
  POR context included) plus its completed per-lease report blocks are
  serialized as one JSON document, so in-progress work can be shipped
  between machines and resumed bit-identically on either execution
  engine (``repro search --checkpoint FILE``).

* :mod:`repro.service.scheduler` — the **work-stealing scheduler**:
  the parallel driver (:mod:`repro.verisoft.parallel`) under its
  ``"steal"`` lease policy.  Idle workers steal from busy ones (a busy
  worker suspends cooperatively and donates its unexplored siblings as
  new leases), dead workers are detected by process liveness and their
  leases re-queued.  Merged reports are
  counter-for-counter identical to the sequential search, modulo the
  backtracking-cost group.
"""

from .frontier import (
    FRONTIER_FORMAT,
    FRONTIER_VERSION,
    FrontierFormatError,
    SearchCheckpoint,
    load_frontier,
    prefix_from_json,
    prefix_to_json,
    report_from_json,
    report_to_json,
    save_frontier,
)
from .scheduler import work_stealing_search

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
    "work_stealing_search",
]
