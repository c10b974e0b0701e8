"""The traced run: per-layer self times and counts.

Spans are recorded by this module only, around calls into the
program's public functions; nothing under ``src/`` is instrumented.
During a traced set-up :func:`hooked` replaces a few module attributes
(``parse_program``, ``build_cfgs``, ``analyze_for_closing``,
``analyze_aliases``, ``compute_defuse``, ``transform_program``,
``compile_program``) with wrappers that open a span, and restores them
afterwards.  A layer's self time is its spans' duration minus the time
their child spans cover.

The search layers come from the existing ``profile=True`` phase
breakdown (``report.profile.phases``), read as-is;
``verisoft.other_s`` is the traced wall time minus the named phases, so
the layers add up to the wall time.  Engine cost per choice comes from
steppers driven directly over recorded random schedules.

Every metric is reported on every workload; a layer a workload does
not exercise reads 0.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import pathlib
import random
import resource
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace

from repro import SearchOptions, run_search
from repro.runtime.errors import DivergenceError, RuntimeFault
from repro.sysdesc import load_description, system_from_description

from . import workloads as W

#: name -> (unit, which direction is better).  BENCHMARK.json's
#: ``per_layer`` list mirrors this table.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "setup.wall_s": ("s", "lower"),
    "setup.other_s": ("s", "lower"),
    "lang.parse_s": ("s", "lower"),
    "cfg.build_s": ("s", "lower"),
    "cfg.size": ("count", "lower"),
    "dataflow.build_s": ("s", "lower"),
    "dataflow.defuse_arcs": ("count", "lower"),
    "closing.analyze_s": ("s", "lower"),
    "closing.transform_s": ("s", "lower"),
    "closing.us_per_unit": ("us", "lower"),
    "closing.us_per_unit_growth": ("ratio", "lower"),
    "closing.toss_nodes": ("count", "lower"),
    "closing.nodes_eliminated": ("count", "higher"),
    "runtime.compile_s": ("s", "lower"),
    "runtime.engine_s": ("s", "lower"),
    "runtime.engine_us_per_choice": ("us", "lower"),
    "runtime.fingerprint_s": ("s", "lower"),
    "runtime.restores": ("count", "lower"),
    "runtime.undo_entries": ("count", "lower"),
    "verisoft.wall_s": ("s", "lower"),
    "verisoft.por_s": ("s", "lower"),
    "verisoft.por_ratio": ("ratio", "lower"),
    "verisoft.sleep_prunes": ("count", "higher"),
    "verisoft.other_s": ("s", "lower"),
    "verisoft.states": ("count", "lower"),
    "verisoft.transitions": ("count", "lower"),
    "verisoft.paths": ("count", "lower"),
    "statespace.cache_s": ("s", "lower"),
    "statespace.hit_ratio": ("ratio", "higher"),
    "statespace.stored": ("count", "lower"),
    "statespace.memory_mb": ("MB", "lower"),
    "obs.coverage_s": ("s", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "parallel.fixed_s": ("s", "lower"),
    "parallel.worker_cpu_s": ("s", "lower"),
    "parallel.efficiency": ("ratio", "higher"),
    "service.leases": ("count", "lower"),
    "service.steals": ("count", "lower"),
}

#: The set-up layers, named as the spans :func:`hooked` opens.
SETUP_LAYERS = (
    "lang.parse",
    "cfg.build",
    "dataflow.build",
    "closing.analyze",
    "closing.transform",
    "runtime.compile",
)

#: The workload whose traced run also drives its search through the
#: parallel driver (the ``parallel.*`` and ``service.*`` metrics).
PARALLEL_ON = "search-5ess"

#: The explorer phases of ``report.profile.phases`` and their metrics.
PHASE_METRICS = {
    "engine": "runtime.engine_s",
    "fingerprint": "runtime.fingerprint_s",
    "por": "verisoft.por_s",
    "cache": "statespace.cache_s",
    "coverage": "obs.coverage_s",
}


def _cfg_units(cfgs) -> int:
    return sum(cfg.node_count() + cfg.arc_count() for cfg in cfgs.values())


#: (module, attribute, layer, count of the result).  ``repro.lang``'s
#: ``parse_program`` is the one ``make_system`` looks up at call time.
HOOKS = (
    ("repro.lang", "parse_program", "lang.parse", None),
    ("repro.closing.closer", "parse_program", "lang.parse", None),
    ("repro.closing.closer", "build_cfgs", "cfg.build", _cfg_units),
    ("repro.closing.closer", "analyze_for_closing", "closing.analyze", None),
    ("repro.closing.analysis", "analyze_aliases", "dataflow.build", None),
    ("repro.closing.analysis", "compute_defuse", "dataflow.build", lambda g: g.arc_count()),
    ("repro.closing.closer", "transform_program", "closing.transform", None),
    ("repro.runtime.system", "compile_program", "runtime.compile", None),
)


class Spans:
    """In-memory spans: name, start, end and the span that caused it."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {
            "id": len(self.records),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.records.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def subtree(self, root: dict) -> list[dict]:
        """``root`` and every span it caused, directly or not."""
        inside = {root["id"]}
        out = [root]
        for record in self.records[root["id"] + 1 :]:
            if record["parent"] in inside:
                inside.add(record["id"])
                out.append(record)
        return out

    def layer_self_times(self, root: dict) -> Counter:
        """Self seconds per span name within ``root``'s subtree."""
        records = self.subtree(root)
        covered = Counter()
        for record in records[1:]:
            covered[record["parent"]] += self.duration(record)
        out = Counter()
        for record in records:
            out[record["name"]] += self.duration(record) - covered[record["id"]]
        return out

    def layer_counts(self, root: dict) -> Counter:
        out = Counter()
        for record in self.subtree(root):
            out[record["name"]] += record.get("count", 0)
        return out


@contextlib.contextmanager
def hooked(spans: Spans):
    """Wrap the set-up layers' entry points in spans for the duration."""
    saved = []
    for module_name, attr, layer, count in HOOKS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            print(f"perfbench: {module_name}.{attr} is gone; {layer} reads low",
                  file=sys.stderr)
            continue
        setattr(module, attr, _wrap(spans, layer, original, count))
        saved.append((module, attr, original))
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrap(spans: Spans, layer: str, original, count):
    def wrapper(*args, **kwargs):
        with spans.span(layer) as record:
            result = original(*args, **kwargs)
        if count is not None:
            record["count"] = count(result)
        return result

    return wrapper


def _median_sample(samples: list, wall):
    """The sample whose wall time is the median (lower middle)."""
    ordered = sorted(samples, key=wall)
    return ordered[(len(ordered) - 1) // 2]


# ---------------------------------------------------------------------------
# Set-up layers
# ---------------------------------------------------------------------------


def traced_setup(spans: Spans, setup, inputs):
    """One set-up under the hooks; returns (operand, root span)."""
    gc.collect()
    with hooked(spans), spans.span("setup") as root:
        operand = setup(inputs)
    return operand, root


def setup_layers(spans: Spans, root: dict, closed) -> dict[str, float]:
    """Per-layer set-up metrics of one traced set-up."""
    self_times = spans.layer_self_times(root)
    counts = spans.layer_counts(root)
    wall = spans.duration(root)
    out = {f"{layer}_s": self_times[layer] for layer in SETUP_LAYERS}
    out["setup.other_s"] = wall - sum(out.values())
    out["setup.wall_s"] = wall
    out["cfg.size"] = counts["cfg.build"]
    out["dataflow.defuse_arcs"] = counts["dataflow.build"]
    units = out["cfg.size"] + out["dataflow.defuse_arcs"]
    algorithm = out["closing.analyze_s"] + out["closing.transform_s"]
    out["closing.us_per_unit"] = algorithm / units * 1e6 if units else 0.0
    out["closing.toss_nodes"] = closed.toss_nodes_added
    out["closing.nodes_eliminated"] = closed.nodes_eliminated
    return out


# ---------------------------------------------------------------------------
# Search layers
# ---------------------------------------------------------------------------


def _timed_search(system, options):
    gc.collect()
    started = time.perf_counter()
    report = run_search(system, options)
    return report, time.perf_counter() - started


def search_layers(spans, tally, system, options, pinned, repeats) -> dict[str, float]:
    """Untraced and profiled searches; the layer metrics of the median
    profiled one."""
    untraced = []
    for _ in range(repeats):
        report, elapsed = _timed_search(system, options)
        tally.check(W.search_answers(report), pinned, "untraced search")
        untraced.append(elapsed)
    profiled = []
    for _ in range(repeats):
        gc.collect()
        with spans.span("verisoft.search") as record:
            report = run_search(system, replace(options, profile=True))
        tally.check(W.search_answers(report), pinned, "profiled search")
        record["phases"] = dict(report.profile.phases)
        profiled.append((report, record))
    report, record = _median_sample(profiled, lambda s: Spans.duration(s[1]))
    phases = record["phases"]
    wall = Spans.duration(record)
    out = {metric: phases.get(phase, 0.0) for phase, metric in PHASE_METRICS.items()}
    out["verisoft.other_s"] = wall - sum(phases.values())
    out["verisoft.wall_s"] = wall
    out["obs.trace_overhead"] = statistics.median(
        Spans.duration(r) for _, r in profiled
    ) / statistics.median(untraced)
    out.update(search_counts(report.stats))
    return out


def search_counts(stats) -> dict[str, float]:
    return {
        "verisoft.states": stats.states_visited,
        "verisoft.transitions": stats.transitions_executed,
        "verisoft.paths": stats.paths_explored,
        "verisoft.por_ratio": stats.reduction_ratio or 0.0,
        "verisoft.sleep_prunes": stats.sleep_prunes,
        "runtime.restores": stats.restores,
        "runtime.undo_entries": stats.undo_entries,
        "statespace.hit_ratio": stats.cache_hit_ratio or 0.0,
        "statespace.stored": stats.cache_stored,
        "statespace.memory_mb": stats.cache_memory_bytes / 2**20,
    }


# ---------------------------------------------------------------------------
# Engine steppers over recorded schedules
# ---------------------------------------------------------------------------


class _Recorder:
    """Wraps a process's stepper and records every resume value, so the
    same per-process script can be replayed on a fresh stepper."""

    def __init__(self, engine, script: list):
        self._engine = engine
        self._script = script

    def start(self):
        return self._engine.start()

    def resume(self, value):
        self._script.append(value)
        return self._engine.resume(value)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def record_scripts(system, seeds, max_steps: int = 3000) -> list[dict]:
    """Per-process resume scripts of seeded random schedules."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        run = system.start()
        scripts = {p.name: [] for p in run.processes}
        for p in run.processes:
            # Recording needs the stepper slot itself; replay below uses
            # only the public ``Process.engine``.
            p._interpreter = _Recorder(p.engine, scripts[p.name])
        run.start_processes()
        for _ in range(max_steps):
            pending = run.toss_pending()
            if pending is not None:
                run.answer_toss(pending, rng.randint(0, pending.toss_request.bound))
                continue
            enabled = run.enabled_processes()
            if not enabled:
                break
            run.execute_visible(rng.choice(enabled))
        out.append(scripts)
    return out


def replay_scripts(system, engine: str, scripts: list[dict]):
    """Drive fresh steppers through every script; returns (seconds,
    choices, request log).  The log is the cross-engine parity check."""
    choices = 0
    log = []
    started = time.perf_counter()
    for per_process in scripts:
        steppers = {p.name: p.engine for p in system.start(engine=engine).processes}
        for name, script in per_process.items():
            stepper = steppers[name]
            try:
                log.append((name, getattr(stepper.start(), "op", "toss")))
                for value in script:
                    request = stepper.resume(value)
                    if request is not None:
                        log.append((name, getattr(request, "op", "toss")))
            except (RuntimeFault, DivergenceError) as err:
                log.append((name, type(err).__name__))
            choices += 1 + len(script)
    return time.perf_counter() - started, choices, log


def engine_layers(tally, system, engine: str, seed: int, smoke: bool) -> dict[str, float]:
    scripts = record_scripts(system, [seed * 8 + i for i in range(2 if smoke else 8)])
    other = "walk" if engine == "compiled" else "compiled"
    _, _, reference = replay_scripts(system, other, scripts)
    samples = []
    for _ in range(1 if smoke else 7):
        gc.collect()
        elapsed, choices, log = replay_scripts(system, engine, scripts)
        tally.check({"requests": log}, {"requests": reference}, f"{engine} engine drive")
        samples.append(elapsed / choices * 1e6)
    return {"runtime.engine_us_per_choice": statistics.median(samples)}


# ---------------------------------------------------------------------------
# Parallel driver and scheduler
# ---------------------------------------------------------------------------


def _cpu_seconds() -> float:
    """CPU of this process plus every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def parallel_layers(tally, system, options, pinned, smoke: bool) -> dict[str, float]:
    """The sequential search ``options`` through the parallel driver: its
    fixed cost on Fig 2, CPU efficiency, and the scheduler's leases."""
    options = replace(options, strategy="parallel", jobs=W.PARALLEL_JOBS)
    examples = pathlib.Path(__file__).resolve().parents[1] / "examples"
    fig2 = system_from_description(load_description(examples / "fig2.json"), examples)
    fig2_options = SearchOptions(strategy="parallel", jobs=W.PARALLEL_JOBS, max_depth=60)
    fixed = []
    for _ in range(2 if smoke else 9):
        report, elapsed = _timed_search(fig2, fig2_options)
        tally.check(W.search_answers(report), W.PINNED["fig2-parallel"], "fig2 parallel")
        fixed.append(elapsed)

    gc.collect()
    cpu = _cpu_seconds()
    report = run_search(system, replace(options, strategy="dfs"))
    serial_cpu = _cpu_seconds() - cpu
    tally.check(W.search_answers(report), pinned, "serial search")
    gc.collect()
    cpu = _cpu_seconds()
    parallel = run_search(system, options)
    total_cpu = _cpu_seconds() - cpu
    # The merged counters must equal the sequential search's.
    tally.check(W.search_answers(parallel), pinned, "parallel search")

    # Lease and steal counts vary between runs: reported, not pinned.
    steal = run_search(system, replace(options, scheduler="steal"))
    tally.check(W.search_answers(steal), pinned, "work-stealing search")
    return {
        "parallel.fixed_s": statistics.median(fixed),
        "parallel.worker_cpu_s": parallel.stats.cpu_time,
        "parallel.efficiency": serial_cpu / total_cpu,
        "service.leases": steal.stats.leases,
        "service.steals": steal.stats.steals,
    }


# ---------------------------------------------------------------------------
# One traced run per workload
# ---------------------------------------------------------------------------


def traced_run(workload, inputs, tally, seed: int, smoke: bool):
    """All layer metrics of one workload; returns (metrics, spans,
    report lines)."""
    spans = Spans()
    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    repeats = 1 if smoke else 3
    if workload.name == "close-sized":
        _, pinned = W.expected(workload.name, smoke, seed)
        ladder, lines = close_ladder(spans, tally, inputs, pinned, repeats)
        metrics.update(ladder)
        return metrics, spans, lines

    pinned_setup, pinned = W.expected(workload.name, smoke, seed)
    setups = []
    for _ in range(2 if smoke else 5):
        operand, root = traced_setup(spans, workload.setup, inputs)
        tally.check(W.closed_answers(operand), pinned_setup, "traced set-up")
        setups.append((operand, root))
    operand, root = _median_sample(setups, lambda s: Spans.duration(s[1]))
    system, closed = operand
    metrics.update(setup_layers(spans, root, closed))

    options = inputs.options
    metrics.update(search_layers(spans, tally, system, options, pinned, repeats))
    metrics.update(engine_layers(tally, system, options.engine, seed, smoke))
    if workload.name == PARALLEL_ON:
        metrics.update(parallel_layers(tally, system, options, pinned, smoke))
    return metrics, spans, []


def close_ladder(spans, tally, sources, pinned, repeats):
    """The size ladder under the hooks: the set-up layers at the largest
    size, and the Figure-1 cost per unit of |G| + |G~| at every size.
    Returns (metrics, table lines)."""
    per_size = {}
    for n, source in sources.items():
        samples = []
        for _ in range(repeats):
            operand, root = traced_setup(spans, W.close_runnable, source)
            tally.check(W.closed_answers(operand), pinned[str(n)], f"close {n}")
            samples.append((operand, root))
        (_, closed), root = _median_sample(samples, lambda s: Spans.duration(s[1]))
        per_size[n] = setup_layers(spans, root, closed)
    metrics = dict(per_size[max(per_size)])
    costs = [per_size[n]["closing.us_per_unit"] for n in sorted(per_size)]
    metrics["closing.us_per_unit_growth"] = costs[-1] / costs[0]
    lines = [f"  {'stmts':>6} {'|G|':>7} {'|G~|':>7} {'us/unit':>9} {'setup s':>9}"]
    for n in sorted(per_size):
        row = per_size[n]
        lines.append(
            f"  {n:>6} {row['cfg.size']:>7} {row['dataflow.defuse_arcs']:>7} "
            f"{row['closing.us_per_unit']:>9.3f} {row['setup.wall_s']:>9.4f}"
        )
    return metrics, lines


def report_lines(metrics: dict[str, float]) -> list[str]:
    """The per-layer table, and the two sums that must equal the walls."""
    lines = []
    for name, (unit, _) in LAYER_METRICS.items():
        lines.append(f"  {name:<30} {metrics[name]:>14.6g} {unit}")
    setup_parts = [f"{layer}_s" for layer in SETUP_LAYERS] + ["setup.other_s"]
    lines.append(
        f"  set-up: {metrics['setup.wall_s']:.4f} s wall = "
        + " + ".join(f"{metrics[k]:.4f} {k}" for k in setup_parts)
    )
    if not metrics["runtime.engine_s"]:
        return lines  # no profiled search on this workload
    search_parts = list(PHASE_METRICS.values()) + ["verisoft.other_s"]
    lines.append(
        f"  search: {metrics['verisoft.wall_s']:.4f} s wall = "
        + " + ".join(f"{metrics[k]:.4f} {k}" for k in search_parts)
    )
    return lines
