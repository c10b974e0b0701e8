"""The top-level driver: :func:`close_program`.

Pipeline (Figure 1 end to end):

1. parse + normalize the open RC program (or accept pre-built CFGs);
2. may-alias analysis, define-use graphs (the inputs of the algorithm);
3. Steps 2–3 inside the interprocedural environment-taint fixpoint
   (:mod:`repro.closing.analysis`);
4. Steps 4–5 (:mod:`repro.closing.transform`);
5. package the result as a :class:`ClosedProgram` — directly executable
   by :class:`repro.runtime.System`, exportable back to RC source, with
   full per-procedure statistics.  It keeps ``S'`` and its statistics,
   not the analysis that built them: the open CFGs, the define-use
   graphs and the alias result are freed once Steps 4–5 have run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..cfg.builder import build_cfgs
from ..cfg.graph import ControlFlowGraph
from ..gcpause import collector_paused
from ..lang import ast
from ..lang.parser import parse_program
from .analysis import analyze_for_closing
from .spec import ClosingSpec
from .transform import ProcTransformStats, transform_program


@dataclass
class ClosedProgram:
    """The closed, self-executable system ``S'`` produced by the algorithm."""

    cfgs: dict[str, ControlFlowGraph]
    proc_stats: dict[str, ProcTransformStats]
    elapsed_seconds: float
    #: Populated when the optional clean-up passes ran (optimize=True):
    #: proc -> (dead stores removed, toss nodes removed, toss branches removed).
    optimize_stats: dict[str, tuple[int, int, int]] = field(default_factory=dict)

    def optimize(self) -> "ClosedProgram":
        """Apply the optional clean-up passes and return a new program.

        Runs dead-store elimination (:mod:`repro.closing.dce`) and the
        Section 5 redundant-toss elimination
        (:mod:`repro.closing.minimize`) to a combined fixpoint.
        """
        from .dce import eliminate_dead_stores_program
        from .minimize import eliminate_redundant_toss_program

        cfgs = self.cfgs
        totals: dict[str, list[int]] = {proc: [0, 0, 0] for proc in cfgs}
        for _ in range(10):
            cfgs, dce_stats = eliminate_dead_stores_program(cfgs)
            cfgs, toss_stats = eliminate_redundant_toss_program(cfgs)
            changed = False
            for proc in cfgs:
                removed = dce_stats[proc].removed
                toss_removed = toss_stats[proc].toss_removed
                branches = toss_stats[proc].branches_removed
                totals[proc][0] += removed
                totals[proc][1] += toss_removed
                totals[proc][2] += branches
                if removed or toss_removed or branches:
                    changed = True
            if not changed:
                break
        return ClosedProgram(
            cfgs=cfgs,
            proc_stats=self.proc_stats,
            elapsed_seconds=self.elapsed_seconds,
            optimize_stats={proc: tuple(v) for proc, v in totals.items()},
        )

    @property
    def removed_params(self) -> dict[str, tuple[str, ...]]:
        """proc -> parameters removed by Step 5 (the eliminated interface)."""
        return {
            proc: stats.removed_params
            for proc, stats in self.proc_stats.items()
            if stats.removed_params
        }

    @property
    def toss_nodes_added(self) -> int:
        return sum(stats.toss_nodes for stats in self.proc_stats.values())

    @property
    def nodes_eliminated(self) -> int:
        return sum(stats.eliminated for stats in self.proc_stats.values())

    def kept_params(self, proc: str) -> tuple[str, ...]:
        return self.cfgs[proc].params

    def launch_args(self, proc: str, args: list) -> list:
        """The arguments that launch ``proc`` in ``S'``: ``args``, given
        for the open procedure's parameters, less those of the
        parameters Step 5 removed."""
        stats = self.proc_stats[proc]
        return [
            arg
            for param, arg in zip(stats.params_before, args)
            if param not in stats.removed_params
        ]

    def to_source(self) -> str:
        """Export the closed system as runnable RC source (see
        :mod:`repro.closing.codegen`)."""
        from .codegen import cfgs_to_source

        return cfgs_to_source(self.cfgs)

    def summary(self) -> str:
        lines = [
            f"closed {len(self.cfgs)} procedure(s) in {self.elapsed_seconds * 1000:.2f} ms",
        ]
        for proc, stats in sorted(self.proc_stats.items()):
            parts = [
                f"  {proc}: {stats.nodes_before} -> {stats.nodes_after} nodes",
                f"{stats.toss_nodes} toss",
            ]
            if stats.removed_params:
                parts.append(f"params removed: {', '.join(stats.removed_params)}")
            if stats.erased_args:
                parts.append(f"{stats.erased_args} arg(s) erased")
            lines.append(", ".join(parts))
        return "\n".join(lines)


@collector_paused
def close_program(
    source: str | ast.Program | dict[str, ControlFlowGraph],
    spec: ClosingSpec | None = None,
    *,
    env_params: Mapping[str, Iterable[str]] | None = None,
    env_channels: Iterable[str] = (),
    env_shared: Iterable[str] = (),
    object_bindings: Mapping[tuple[str, str], Iterable[str]] | None = None,
    optimize: bool = False,
    tracer=None,
) -> ClosedProgram:
    """Close an open program with its most general environment.

    ``source`` may be RC source text, a parsed program, or CFGs.  The open
    interface is the union of (a) extern procedures (and any call to an
    undefined procedure), and (b) whatever the :class:`ClosingSpec` — or
    the convenience keyword arguments — declares.

    Returns a :class:`ClosedProgram`.  Feed its ``cfgs`` straight into
    :class:`repro.runtime.System`, remembering that parameters listed in
    ``removed_params`` no longer exist (:meth:`ClosedProgram.launch_args`
    drops their launch arguments).  The analysis is not part of the
    result; call :func:`~repro.closing.analysis.analyze_for_closing` for
    its sets.

    ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) records the
    pipeline as phase spans — ``parse``, ``analyze``, ``transform``,
    ``optimize`` — so closing time is visible on the same timeline as
    the search it feeds.

    The call runs with the cyclic garbage collector paused (see
    :mod:`repro.gcpause`): the pipeline keeps nearly everything it
    allocates until it returns, so collector passes during it would
    free nothing (``docs/performance.md`` gives the counts).
    """
    if spec is None:
        spec = ClosingSpec.make(
            env_params=env_params,
            env_channels=env_channels,
            env_shared=env_shared,
            object_bindings=object_bindings,
        )
    elif env_params or env_channels or env_shared or object_bindings:
        raise ValueError("pass either a ClosingSpec or keyword arguments, not both")

    if isinstance(source, str):
        if tracer is None:
            source = parse_program(source)
        else:
            with tracer.phase("parse"):
                source = parse_program(source)
    if isinstance(source, ast.Program):
        cfgs = build_cfgs(source)
    else:
        cfgs = dict(source)

    started = time.perf_counter()
    if tracer is None:
        analysis = analyze_for_closing(cfgs, spec)
        closed_cfgs, stats = transform_program(analysis)
    else:
        with tracer.phase("analyze", procs=len(cfgs)):
            analysis = analyze_for_closing(cfgs, spec)
        with tracer.phase("transform", procs=len(cfgs)):
            closed_cfgs, stats = transform_program(analysis, tracer=tracer)
    elapsed = time.perf_counter() - started
    closed = ClosedProgram(
        cfgs=closed_cfgs,
        proc_stats=stats,
        elapsed_seconds=elapsed,
    )
    if optimize:
        if tracer is None:
            optimized = closed.optimize()
        else:
            with tracer.phase("optimize"):
                optimized = closed.optimize()
        optimized.elapsed_seconds = time.perf_counter() - started
        return optimized
    return closed
