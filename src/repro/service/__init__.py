"""The exploration service: durable, sharded, resumable searches.

The VeriSoft substrate (:mod:`repro.verisoft`) is a library — a search
lives and dies inside one Python process.  This package turns it into a
*service*:

* :mod:`repro.service.frontier` — the versioned on-disk **frontier
  checkpoint** format.  A suspended search's pending subtree leases
  (picklable :class:`~repro.verisoft.parallel.ChoicePrefix` snapshots,
  POR context included) plus its completed per-lease report blocks are
  serialized as one JSON document, so in-progress work can be shipped
  between machines and resumed bit-identically on either execution
  engine.

* :mod:`repro.service.scheduler` — the **work-stealing scheduler**:
  the parallel driver (:mod:`repro.verisoft.parallel`) under its
  ``"steal"`` lease policy.  Idle workers steal from busy ones (a busy
  worker suspends cooperatively and donates its unexplored siblings as
  new leases), dead workers are detected by process liveness and their
  leases re-queued.  Merged reports are
  counter-for-counter identical to the sequential search, modulo the
  backtracking-cost group.

* :mod:`repro.service.jobs` — the **async job service**: an on-disk
  :class:`~repro.service.jobs.JobStore` plus the ``repro submit`` /
  ``repro serve`` / ``repro jobs`` / ``repro stop`` / ``repro resume``
  CLI.  Jobs stream :class:`~repro.verisoft.stats.SearchStats`
  heartbeats to disk, persist run manifests and counterexample traces
  as native artifacts, and survive process restarts via frontier
  checkpoints.
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
from .jobs import Job, JobStore, run_job
from .scheduler import work_stealing_search

__all__ = [
    "FRONTIER_FORMAT",
    "FRONTIER_VERSION",
    "FrontierFormatError",
    "Job",
    "JobStore",
    "SearchCheckpoint",
    "load_frontier",
    "prefix_from_json",
    "prefix_to_json",
    "report_from_json",
    "report_to_json",
    "run_job",
    "save_frontier",
    "work_stealing_search",
]
