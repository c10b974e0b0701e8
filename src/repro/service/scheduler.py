"""The work-stealing scheduler.

The one parallel driver, :func:`~repro.verisoft.parallel.parallel_search`,
hands out subtree leases under one of two policies.  This module fixes
it to ``"steal"``: one root lease, idle workers split running ones, dead
workers' leases are re-queued, and a stop request suspends the search
to a :class:`~repro.service.frontier.SearchCheckpoint` that resumes it
later.
"""

from __future__ import annotations

from typing import Any

from ..runtime.system import System
from ..verisoft.parallel import parallel_search
from ..verisoft.results import ExplorationReport
from ..verisoft.search import SearchOptions

__all__ = ["work_stealing_search"]


def work_stealing_search(
    system: System, options: SearchOptions | None = None, **kwargs: Any
) -> ExplorationReport:
    """:func:`~repro.verisoft.parallel.parallel_search` with
    ``scheduler="steal"``; ``kwargs`` are its service hooks and option
    overrides."""
    return parallel_search(system, options, **{**kwargs, "scheduler": "steal"})
