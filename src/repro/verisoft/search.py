"""The unified search API: one options object, one entry point.

:class:`SearchOptions` puts every depth/budget/POR/telemetry knob of
every search strategy in one dataclass, with each default in one place,
and :func:`run_search` dispatches on ``options.strategy``:

    from repro import SearchOptions, run_search

    report = run_search(system, SearchOptions(strategy="parallel", jobs=4))
    print(report.summary())
    print(report.stats.describe())

Every search driver underneath — the
:class:`~repro.verisoft.explorer.Explorer`,
:func:`~repro.verisoft.random_walk.random_walks` and the parallel
drivers' units of work — takes the same ``(system, options, *,
<driver-owned state>, **overrides)`` arguments; :func:`search_options`
is that convention, so a direct driver call sees exactly the defaults
:func:`run_search` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from ..runtime.engine import ENGINES
from ..runtime.system import Run, System
from .results import ExplorationReport, Trace
from .stats import SearchStats

#: The strategies :func:`run_search` understands.
STRATEGIES = ("dfs", "random", "parallel")

#: The state-cache modes (see :attr:`SearchOptions.cache_mode`).
CACHE_MODES = ("safe", "unsafe-fast")

#: The DFS backtracking modes (see :attr:`SearchOptions.backtrack`).
BACKTRACK_MODES = ("restore", "replay")

#: The parallel scheduling modes (see :attr:`SearchOptions.scheduler`).
SCHEDULERS = ("static", "steal")

# Re-exported from :mod:`repro.runtime.engine` so the search layer's
# mode tuples (STRATEGIES, CACHE_MODES, BACKTRACK_MODES, ENGINES) live
# side by side for CLI/choice wiring.
__all__ = [
    "BACKTRACK_MODES",
    "CACHE_MODES",
    "ENGINES",
    "SCHEDULERS",
    "STRATEGIES",
    "SearchOptions",
    "run_search",
]


@dataclass
class SearchOptions:
    """Every knob of every search strategy, in one place.

    Only the fields relevant to the selected :attr:`strategy` are used;
    the rest are ignored (e.g. ``walks`` by ``"dfs"``, ``jobs`` by
    ``"random"``).
    """

    #: ``"dfs"`` (exhaustive, bounded-depth, stateless),
    #: ``"random"`` (independent random walks), or
    #: ``"parallel"`` (prefix-partitioned multi-process DFS).
    strategy: str = "dfs"

    # -- shared bounds and budgets -----------------------------------------
    #: Transitions per path; exploration is complete up to this depth.
    max_depth: int = 100
    #: Persistent-set + sleep-set partial-order reduction (dfs/parallel).
    por: bool = True
    #: How the DFS backtracks (dfs/parallel): ``"restore"`` (default;
    #: undo-journal checkpointing — backtracking rewinds the live run in
    #: O(changes) instead of re-executing the path prefix) or
    #: ``"replay"`` (classic VeriSoft stateless re-execution).  Restore
    #: automatically falls back to replay when any communication object
    #: is not journalable.  Both modes explore the identical choice tree
    #: and report identical counters apart from
    #: ``replays``/``replayed_transitions``/``restores``.
    backtrack: str = "restore"
    #: Which execution engine steps each process (all strategies):
    #: ``"walk"`` (the reference tree-walking interpreter,
    #: :mod:`repro.runtime.interp`) or ``"compiled"`` (CFGs translated
    #: to Python closures with slab-packed frames,
    #: :mod:`repro.runtime.compile`).  Both engines are observationally
    #: identical — same choice trees, counters and triage groups — so
    #: ``"compiled"`` is purely a throughput lever.  When the program
    #: uses a construct the compiler does not support (pointers, for
    #: one) the search silently falls back to ``"walk"``; the resolved
    #: engine is recorded in ``report.stats.engine``.
    engine: str = "walk"
    #: Additionally hash every visited state to count distinct states.
    count_states: bool = False
    #: Stop at the first deadlock/violation/crash/divergence.
    stop_on_first: bool = False
    #: Budgets; ``truncated`` is set when one trips.
    max_paths: int | None = None
    max_transitions: int | None = None
    #: Wall-clock budget (seconds).  When it expires the report is
    #: flagged ``incomplete=True`` instead of the search running on.
    time_budget: float | None = None
    #: Cap on recorded events of each kind (counting continues).
    max_events: int = 25

    # -- state-space caching (dfs/parallel; see repro.statespace) ------------
    #: Visited-state store pruning revisited subtrees: ``"off"`` (pure
    #: stateless search), ``"exact"`` (full snapshots, sound),
    #: ``"hashcompact"`` (64-bit digests) or ``"bitstate"``
    #: (SPIN-style Bloom filter).  Ignored by ``"random"``.
    state_cache: str = "off"
    #: Bitstate store size: ``2**cache_bits`` bits (exact/hashcompact
    #: ignore it).
    cache_bits: int = 24
    #: ``"safe"`` disables sleep-set pruning while caching (sleep sets
    #: are path-dependent, and combined with caching they can miss
    #: transitions); ``"unsafe-fast"`` keeps them for maximum pruning at
    #: the cost of possibly missing interleavings.  Irrelevant while
    #: ``state_cache="off"``.
    cache_mode: str = "safe"

    # -- random-walk strategy ----------------------------------------------
    walks: int = 100
    seed: int = 0

    # -- parallel strategy --------------------------------------------------
    #: Worker processes; 0 means ``os.cpu_count()``.  ``jobs=1`` runs the
    #: partition/merge pipeline in-process (the determinism baseline).
    jobs: int = 0
    #: Depth of the sequential prefix enumeration; ``None`` auto-tunes
    #: until there are enough prefixes to keep the pool busy.
    prefix_depth: int | None = None
    #: How the parallel strategy schedules subtrees over the pool:
    #: ``"static"`` (default; one up-front prefix partition at
    #: ``prefix_depth``, :mod:`repro.verisoft.parallel`) or ``"steal"``
    #: (work stealing over serialized subtree leases,
    #: :mod:`repro.service.scheduler` — idle workers split running ones,
    #: dead workers' leases are re-queued, and the whole search can be
    #: suspended to a frontier checkpoint and resumed later).  Both
    #: produce reports counter-for-counter identical to sequential
    #: search, modulo the backtracking-cost group.  ``prefix_depth`` is
    #: ignored by ``"steal"`` (the partition is adaptive).
    scheduler: str = "static"

    # -- telemetry -----------------------------------------------------------
    #: Periodic callback receiving the live :class:`SearchStats`
    #: (e.g. :class:`~repro.verisoft.stats.ProgressPrinter`).
    progress: Callable[[SearchStats], None] | None = field(
        default=None, repr=False, compare=False
    )
    progress_interval: float = 0.5

    # -- observability (repro.obs) -------------------------------------------
    #: Collect a hot-spot profile (:class:`~repro.obs.profile.
    #: HotSpotProfiler`) and attach it as ``report.profile``.  Parallel
    #: runs merge per-worker profiles; the merged counts equal a
    #: sequential run's.
    profile: bool = False
    #: Collect CFG/source/environment-input coverage
    #: (:class:`~repro.obs.coverage.CoverageCollector`) and attach it as
    #: ``report.coverage``.  Exact-counter anchored like the profiler:
    #: parallel/steal runs merge per-worker shards into counters
    #: bit-identical to a sequential run's, on either engine.
    coverage: bool = False
    #: A :class:`~repro.obs.tracer.Tracer` receiving span/instant events
    #: (pipeline phases, per-path DFS spans, worker timelines).  Not
    #: serialized; the parallel driver builds a fresh tracer inside each
    #: worker and merges the payloads into this one.
    tracer: Any = field(default=None, repr=False, compare=False)
    #: Parallel only: warn when a worker reports no progress for this
    #: many seconds (``None`` disables stall detection; heartbeats still
    #: feed the per-worker ticker lines).
    stall_timeout: float | None = 10.0

    # -- dfs-only extension hooks (not picklable; rejected by "parallel") ----
    on_leaf: Callable[[Run, Trace], None] | None = field(
        default=None, repr=False, compare=False
    )
    stop_when: Callable[[ExplorationReport], bool] | None = field(
        default=None, repr=False, compare=False
    )

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot of the options.

        Callback/handle fields (``progress``, ``on_leaf``,
        ``stop_when``, ``tracer``) are omitted: they cannot be
        serialized and are irrelevant to reproducing a search.
        Round-trips through ``SearchOptions(**d)``; persisted inside
        saved counterexample traces (:mod:`repro.counterex.traceio`) as
        the ``search`` metadata block.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            if f.name in ("progress", "on_leaf", "stop_when", "tracer"):
                continue
            out[f.name] = getattr(self, f.name)
        return out

    def make_state_store(self):
        """A fresh :class:`~repro.statespace.stores.StateStore` per the
        cache configuration (``None`` when caching is off).  Each call
        returns a *new empty* store: every explorer owns one."""
        from ..statespace.stores import make_store

        return make_store(self.state_cache, cache_bits=self.cache_bits)

    @property
    def sleep_sets_active(self) -> bool:
        """Whether the explorer keeps sleep-set pruning: always without
        caching, only in ``unsafe-fast`` mode with it (sleep sets are
        path-dependent and unsound under revisit pruning)."""
        return self.state_cache == "off" or self.cache_mode != "safe"

    def resolve(self, system: System) -> "ResolvedModes":
        """The modes a search of ``system`` actually runs with, after the
        silent fallbacks: ``"restore"`` becomes ``"replay"`` when an
        object of the system does not journal, and ``"compiled"``
        becomes ``"walk"`` when the program cannot be compiled.  Every
        driver derives its modes here."""
        backtrack = self.backtrack
        if backtrack == "restore" and not system.journalable():
            backtrack = "replay"
        engine = self.engine
        if engine == "compiled" and system.compiled_program() is None:
            engine = "walk"
        return ResolvedModes(backtrack, engine, self.por and self.sleep_sets_active)

    def state_caching_info(self) -> dict | None:
        """The ``state_caching`` provenance block recorded on reports
        (``None`` when caching is off)."""
        if self.state_cache == "off":
            return None
        info: dict[str, Any] = {"store": self.state_cache, "mode": self.cache_mode}
        if self.state_cache == "bitstate":
            info["cache_bits"] = self.cache_bits
        info["sleep_sets"] = self.sleep_sets_active
        return info

    def validate(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown search strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        from ..statespace.stores import STORE_KINDS

        if self.state_cache not in STORE_KINDS:
            raise ValueError(
                f"unknown state cache {self.state_cache!r}; "
                f"expected one of {', '.join(STORE_KINDS)}"
            )
        if self.cache_mode not in CACHE_MODES:
            raise ValueError(
                f"unknown cache mode {self.cache_mode!r}; "
                f"expected one of {', '.join(CACHE_MODES)}"
            )
        if self.state_cache == "bitstate" and not (3 <= self.cache_bits <= 40):
            raise ValueError("cache_bits must be in 3..40")
        if self.backtrack not in BACKTRACK_MODES:
            raise ValueError(
                f"unknown backtrack mode {self.backtrack!r}; "
                f"expected one of {', '.join(BACKTRACK_MODES)}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown execution engine {self.engine!r}; "
                f"expected one of {', '.join(ENGINES)}"
            )
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown parallel scheduler {self.scheduler!r}; "
                f"expected one of {', '.join(SCHEDULERS)}"
            )
        if self.strategy == "parallel":
            if self.on_leaf is not None or self.stop_when is not None:
                raise ValueError(
                    "on_leaf/stop_when callbacks cannot cross process "
                    "boundaries; use strategy='dfs' or drop the callback"
                )
            if self.prefix_depth is not None and self.prefix_depth < 0:
                raise ValueError("prefix_depth must be >= 0")
            if self.jobs < 0:
                raise ValueError("jobs must be >= 0 (0 = all cores)")


@dataclass(frozen=True)
class ResolvedModes:
    """What :meth:`SearchOptions.resolve` derives for one system."""

    #: ``"restore"`` or ``"replay"`` (the fallback when not journalable).
    backtrack: str
    #: ``"walk"`` or ``"compiled"`` (the fallback when not compilable).
    engine: str
    #: Whether sleep-set pruning is on (needs POR; off under safe caching).
    sleep_sets: bool


def search_options(
    options: SearchOptions | None, overrides: dict[str, Any]
) -> SearchOptions:
    """The ``(options, **overrides)`` convention of every search driver:
    ``options`` (the defaults when ``None``) with the ``overrides``
    fields replaced, validated."""
    if options is None:
        options = SearchOptions()
    if overrides:
        options = replace(options, **overrides)
    options.validate()
    return options


def run_search(
    system: System,
    options: SearchOptions | None = None,
    *,
    system_factory: Callable[[], System] | None = None,
    **overrides: Any,
) -> ExplorationReport:
    """Search ``system`` according to ``options`` and return the report.

    Field overrides may be given as keywords::

        run_search(system, strategy="parallel", jobs=4, max_depth=60)

    ``system_factory`` (parallel only) rebuilds the system inside each
    worker for systems that cannot be pickled.
    """
    options = search_options(options, overrides)
    report = _dispatch(system, options, system_factory)
    # Every report is self-reproducing: it records how it was produced
    # (including the PRNG seed for the random strategy), so a saved
    # trace or a bug report never depends on the caller's shell history.
    report.options = options
    if options.strategy == "random":
        report.seed = options.seed
    elif options.state_cache != "off":
        # Merge the mode into whatever the explorer recorded (store
        # kind, shape, sleep-set status) — the explorer does not know
        # the search-layer mode name.
        report.state_caching = {
            **(options.state_caching_info() or {}),
            **(report.state_caching or {}),
            "mode": options.cache_mode,
        }
    return report


def _dispatch(
    system: System,
    options: SearchOptions,
    system_factory: Callable[[], System] | None,
) -> ExplorationReport:
    if options.strategy == "dfs":
        from .explorer import Explorer

        return Explorer(system, options).run()

    if options.strategy == "random":
        from .random_walk import random_walks

        return random_walks(system, options)

    if options.scheduler == "steal":
        from ..service.scheduler import work_stealing_search

        return work_stealing_search(system, options, system_factory=system_factory)

    from .parallel import parallel_search

    return parallel_search(system, options, system_factory=system_factory)
