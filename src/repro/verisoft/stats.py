"""Search telemetry: live counters for every exploration strategy.

VeriSoft-style stateless search spends almost all of its time
re-executing the system; without instrumentation it is a black box that
either terminates or does not.  :class:`SearchStats` is the one place
every counter lives — states, transitions, toss points, partial-order
reduction effectiveness, replay overhead, throughput — threaded through
:class:`~repro.verisoft.explorer.Explorer`,
:func:`~repro.verisoft.random_walk.random_walks` and the parallel
driver (:mod:`repro.verisoft.parallel`), and surfaced on every
:class:`~repro.verisoft.results.ExplorationReport` as ``report.stats``.

A periodic progress callback (see
:attr:`~repro.verisoft.search.SearchOptions.progress`) receives the
live :class:`SearchStats`; :class:`ProgressPrinter` is the stock
consumer behind the CLI's ``--progress`` flag, printing a one-line
ticker that overwrites itself.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, fields
from typing import IO, Iterable


@dataclass
class SearchStats:
    """Aggregate counters of one search (or one merged parallel search).

    Counter semantics match :class:`ExplorationReport` where the names
    overlap; the extra fields instrument the machinery itself:

    * ``backtrack`` — how the DFS backtracked: ``"replay"`` (stateless
      re-execution) or ``"restore"`` (undo-journal checkpointing; see
      :mod:`repro.runtime.journal`).
    * ``engine`` — which execution engine actually drove the runs:
      ``"walk"`` (the reference tree-walking interpreter) or
      ``"compiled"`` (:mod:`repro.runtime.compile`).  Records the
      *resolved* engine: a ``"compiled"`` request that fell back (the
      program uses a construct the compiler does not support) reports
      ``"walk"``.
    * ``replays`` / ``replayed_transitions`` — how many re-executions
      the stateless backtracking performed and how many transitions were
      spent merely reconstructing a known prefix (the paper's price for
      storing no states).  Both ``0`` in restore mode, except that
      parallel workers still replay their frozen prefix once.
    * ``restores`` / ``undo_entries`` / ``checkpoint_memory_bytes`` —
      restore-mode telemetry: journal rewinds performed, undo entries
      recorded, and the accounting-model peak footprint of the journal
      plus the live checkpoints (all ``0`` in replay mode).
    * ``enabled_transitions`` / ``persistent_transitions`` — summed over
      every fresh global state; their ratio
      (:attr:`reduction_ratio`) measures how hard the persistent-set
      reduction is working (1.0 = no reduction).
    * ``sleep_prunes`` — transitions skipped because their signature was
      asleep.
    * ``prefixes`` / ``jobs`` — parallel-driver shape (0/1 for
      sequential strategies); ``prefixes`` is the total lease count.
    * ``leases`` / ``steals`` / ``leases_requeued`` — parallel-driver
      telemetry (all 0 for the sequential strategies): subtree leases
      issued over the search's lifetime, how many of them were split
      off a busy worker by a steal request, and how many were re-queued
      because the worker holding them died.  Under the ``"steal"``
      policy they are timing-dependent — two runs of the same search may
      steal differently — so these live with the backtracking-cost
      group, outside the counter-parity contract.
    * ``state_cache`` / ``cache_*`` — state-space caching
      (:mod:`repro.statespace`): which store was active (``"off"``
      when none), pruned revisits (``cache_hits``), expanded visits
      (``cache_misses``), distinct states held (``cache_stored``) and
      the store's accounting-model footprint (``cache_memory_bytes``).
      Parallel searches sum the counters over per-worker stores.
    """

    strategy: str = "dfs"
    backtrack: str = "replay"
    engine: str = "walk"
    states_visited: int = 0
    transitions_executed: int = 0
    toss_points: int = 0
    paths_explored: int = 0
    max_depth_reached: int = 0
    replays: int = 0
    replayed_transitions: int = 0
    restores: int = 0
    undo_entries: int = 0
    checkpoint_memory_bytes: int = 0
    enabled_transitions: int = 0
    persistent_transitions: int = 0
    sleep_prunes: int = 0
    wall_time: float = 0.0
    cpu_time: float = 0.0
    jobs: int = 1
    prefixes: int = 0
    leases: int = 0
    steals: int = 0
    leases_requeued: int = 0
    state_cache: str = "off"
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stored: int = 0
    cache_memory_bytes: int = 0
    #: Coverage gauges (searches run with ``coverage=True``; 0/0
    #: otherwise): *distinct* CFG nodes reached so far vs the static
    #: universe.  Gauges, not counters — distinct-set sizes do not sum
    #: across shards, so :meth:`add` keeps the receiver's values and the
    #: drivers set the merged search's gauges from the merged
    #: :class:`~repro.obs.coverage.CoverageCollector` explicitly.
    coverage_nodes: int = 0
    coverage_nodes_total: int = 0
    #: Live work-stealing gauge: subtree leases currently queued or
    #: running (0 once the search drains).  Same gauge semantics.
    frontier_pending: int = 0

    # -- derived ------------------------------------------------------------

    @property
    def reduction_ratio(self) -> float | None:
        """``persistent / enabled`` over all fresh states (lower is a
        stronger partial-order reduction); ``None`` before any state."""
        if not self.enabled_transitions:
            return None
        return self.persistent_transitions / self.enabled_transitions

    @property
    def states_per_second(self) -> float:
        if self.wall_time <= 0.0:
            return 0.0
        return self.states_visited / self.wall_time

    @property
    def replay_overhead(self) -> float | None:
        """Fraction of executed transitions spent replaying prefixes."""
        total = self.transitions_executed + self.replayed_transitions
        if not total:
            return None
        return self.replayed_transitions / total

    @property
    def replay_fraction(self) -> float | None:
        """Alias for :attr:`replay_overhead` — the headline number of
        the backtracking benchmarks (≈0 in restore mode)."""
        return self.replay_overhead

    @property
    def cache_hit_ratio(self) -> float | None:
        """Pruned revisits over all store consultations; ``None``
        before any consultation (or with caching off)."""
        total = self.cache_hits + self.cache_misses
        if not total:
            return None
        return self.cache_hits / total

    @property
    def cache_bytes_per_state(self) -> float | None:
        """Store footprint per distinct stored state (the memory lever
        of the compacting stores); ``None`` with nothing stored."""
        if not self.cache_stored:
            return None
        return self.cache_memory_bytes / self.cache_stored

    # -- aggregation --------------------------------------------------------

    _SUMMED = (
        "states_visited",
        "transitions_executed",
        "toss_points",
        "paths_explored",
        "replays",
        "replayed_transitions",
        "restores",
        "undo_entries",
        "checkpoint_memory_bytes",
        "enabled_transitions",
        "persistent_transitions",
        "sleep_prunes",
        "cpu_time",
        "cache_hits",
        "cache_misses",
        "cache_stored",
        "cache_memory_bytes",
    )

    def add(self, other: "SearchStats") -> None:
        """Fold ``other``'s counters into this one.

        Merge semantics (the parallel driver folds per-worker stats with
        this; relied on by :meth:`merged`):

        * every counter in ``_SUMMED`` is a plain sum — including
          ``cpu_time``, which totals over processes and may therefore
          exceed ``wall_time``;
        * ``wall_time`` is **not** summed: elapsed time is the
          coordinator's concern and is overwritten by the driver after
          merging;
        * ``max_depth_reached`` is the maximum, not the sum;
        * the *receiver* keeps its identity fields — ``strategy``,
          ``backtrack``, ``engine``, ``jobs``, ``prefixes`` and the
          work-stealing counters (``leases``/``steals``/
          ``leases_requeued``) describe the merged search, not any one
          part, so ``other``'s values are ignored (the drivers set them
          on the merged stats explicitly);
        * ``state_cache`` is adopted from ``other`` only when the
          receiver has none (``"off"``) — mixed-store merges keep the
          first kind seen;
        * the coverage/frontier gauges (``coverage_nodes``,
          ``coverage_nodes_total``, ``frontier_pending``) are kept from
          the receiver like the identity fields: distinct-set sizes and
          queue depths do not sum, the drivers set them on the merged
          stats from the merged coverage collector / live queue;
        * caveat: ``cache_stored``/``cache_memory_bytes`` are summed
          over *private* per-worker stores, so a state whose digest is
          held by several workers (reached in several subtrees) is
          counted once per store.  The sums are exact for sequential
          searches and an upper bound on distinct storage for parallel
          ones.
        """
        for name in self._SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.max_depth_reached = max(self.max_depth_reached, other.max_depth_reached)
        if self.state_cache == "off" and other.state_cache != "off":
            self.state_cache = other.state_cache

    @classmethod
    def merged(cls, parts: Iterable["SearchStats"], **overrides) -> "SearchStats":
        out = cls(**overrides)
        for part in parts:
            out.add(part)
        return out

    # -- presentation -------------------------------------------------------

    def ticker_line(self) -> str:
        """The live one-line progress ticker."""
        bits = [
            f"[{self.strategy}]",
            f"paths={self.paths_explored}",
            f"states={self.states_visited}",
            f"depth<={self.max_depth_reached}",
            f"{self.states_per_second:,.0f} states/s",
        ]
        if self.coverage_nodes_total:
            bits.append(
                f"cov={100.0 * self.coverage_nodes / self.coverage_nodes_total:.0f}%"
            )
        if self.frontier_pending:
            bits.append(f"pending={self.frontier_pending}")
        ratio = self.reduction_ratio
        if ratio is not None:
            bits.append(f"por={ratio:.2f}")
        if self.sleep_prunes:
            bits.append(f"sleep-prunes={self.sleep_prunes}")
        if self.state_cache != "off":
            hit = self.cache_hit_ratio
            bits.append(
                f"cache={self.state_cache}:{self.cache_hits}"
                + (f" ({hit:.0%})" if hit is not None else "")
            )
        if self.jobs > 1:
            bits.append(f"jobs={self.jobs}")
        if self.steals or self.leases_requeued:
            bits.append(f"steals={self.steals}")
            if self.leases_requeued:
                bits.append(f"requeued={self.leases_requeued}")
        return " ".join(bits)

    def describe(self) -> str:
        """Multi-line post-run summary (CLI, benchmark tables)."""
        lines = [
            f"strategy:        {self.strategy}"
            + (f" (jobs={self.jobs}, prefixes={self.prefixes})" if self.jobs > 1 else ""),
            f"states visited:  {self.states_visited}",
            f"transitions:     {self.transitions_executed}",
            f"toss points:     {self.toss_points}",
            f"paths explored:  {self.paths_explored}",
            f"max depth:       {self.max_depth_reached}",
            f"engine:          {self.engine}",
            f"backtracking:    {self.backtrack}"
            + (
                f" ({self.restores} restores, {self.undo_entries} undo entries, "
                f"{self.checkpoint_memory_bytes} B checkpoints)"
                if self.backtrack == "restore"
                else ""
            ),
            f"replays:         {self.replays}",
            f"replay fraction: "
            + (
                f"{self.replay_fraction:.1%} of executed transitions"
                if self.replay_fraction is not None
                else "—"
            ),
            f"sleep prunes:    {self.sleep_prunes}",
        ]
        if self.leases:
            lines.append(
                f"work stealing:   {self.leases} leases, {self.steals} steals, "
                f"{self.leases_requeued} requeued"
            )
        ratio = self.reduction_ratio
        if ratio is not None:
            lines.append(f"POR ratio:       {ratio:.3f} (persistent/enabled)")
        if self.state_cache != "off":
            hit = self.cache_hit_ratio
            per_state = self.cache_bytes_per_state
            lines.append(
                f"state cache:     {self.state_cache} — "
                f"{self.cache_hits} prunes / {self.cache_misses} expansions"
                + (f" ({hit:.0%} hit ratio)" if hit is not None else "")
            )
            lines.append(
                f"cache memory:    {self.cache_memory_bytes} B, "
                f"{self.cache_stored} states"
                + (f" ({per_state:.1f} B/state)" if per_state is not None else "")
            )
        lines.append(
            f"time:            {self.wall_time:.3f}s wall, {self.cpu_time:.3f}s cpu"
        )
        lines.append(f"throughput:      {self.states_per_second:,.0f} states/s")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def json_dict(self) -> dict:
        """:meth:`as_dict` plus the derived metrics, for machine
        consumption (the CLI's ``--stats-json``).  Unlike
        :meth:`as_dict` this does *not* round-trip through
        ``SearchStats(**d)`` — the derived keys are read-only."""
        out = self.as_dict()
        out["reduction_ratio"] = self.reduction_ratio
        out["replay_overhead"] = self.replay_overhead
        out["replay_fraction"] = self.replay_fraction
        out["states_per_second"] = self.states_per_second
        out["cache_hit_ratio"] = self.cache_hit_ratio
        out["cache_bytes_per_state"] = self.cache_bytes_per_state
        out["coverage_percent"] = (
            100.0 * self.coverage_nodes / self.coverage_nodes_total
            if self.coverage_nodes_total
            else None
        )
        return out


class ProgressPrinter:
    """Stock progress consumer: a self-overwriting ticker block.

    Use as the ``progress`` callback of any search; call :meth:`finish`
    (or use as a context manager) to terminate the output cleanly.

    On a TTY the printer redraws in place: the one-line ticker plus any
    per-worker health lines (fed by the parallel driver through
    :meth:`worker_lines`) form a block that is erased and rewritten on
    every tick.  On a non-TTY stream (a file, a pipe, a CI log — decided
    once via ``stream.isatty()``) ANSI erase sequences would be garbage,
    so the printer falls back to plain newline-separated lines at a
    reduced rate: at most one update per ``plain_interval`` seconds
    (the first update always prints).
    """

    def __init__(
        self, stream: IO[str] | None = None, plain_interval: float = 5.0
    ):
        self._stream = stream if stream is not None else sys.stderr
        isatty = getattr(self._stream, "isatty", None)
        self._tty = bool(isatty()) if callable(isatty) else False
        self._plain_interval = plain_interval
        self._last_plain = 0.0  # 0.0 == never printed: first tick always prints
        self._dirty = False
        self._lines_drawn = 0
        self._worker_lines: list[str] = []

    def worker_lines(self, lines: Iterable[str]) -> None:
        """Set the per-worker health lines appended below the ticker
        (the parallel driver feeds these from its worker records)."""
        self._worker_lines = list(lines)

    def warn(self, message: str) -> None:
        """Print a warning without colliding with the live ticker: the
        block is erased first, the warning gets its own line, and the
        next tick redraws the block below it."""
        self._erase()
        self._stream.write(f"warning: {message}\n")
        self._stream.flush()

    def _erase(self) -> None:
        """Erase the previously drawn block (TTY only)."""
        if not self._tty or not self._lines_drawn:
            return
        self._stream.write("\r\x1b[2K")
        for _ in range(self._lines_drawn - 1):
            self._stream.write("\x1b[1A\x1b[2K")
        self._lines_drawn = 0

    def __call__(self, stats: SearchStats) -> None:
        block = [stats.ticker_line()]
        block.extend(f"  {line}" for line in self._worker_lines)
        if self._tty:
            self._erase()
            self._stream.write("\n".join(block))
            self._stream.flush()
            self._lines_drawn = len(block)
            self._dirty = True
        else:
            now = time.monotonic()
            if self._last_plain and now - self._last_plain < self._plain_interval:
                return
            self._last_plain = now
            self._stream.write("\n".join(block) + "\n")
            self._stream.flush()

    def finish(self) -> None:
        """Terminate the live block so subsequent output starts on a
        fresh line (plain mode already newline-terminates)."""
        if self._dirty:
            self._stream.write("\n")
            self._stream.flush()
            self._dirty = False
            self._lines_drawn = 0

    def __enter__(self) -> "ProgressPrinter":
        return self

    def __exit__(self, *exc) -> None:
        self.finish()
