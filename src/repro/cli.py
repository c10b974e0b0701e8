"""Command-line interface: the paper's prototype tool, as a CLI.

Subcommands
-----------

``close``
    Close an open RC (or C) program with its most general environment
    and write the closed program as runnable RC source::

        repro close open.rc --env-param main:x -o closed.rc --stats

``analyze``
    Print the Steps 2–3 analysis (environment-defined inputs, tainted
    objects, marked/eliminated nodes) without transforming.

``graph``
    Dump control-flow graphs in Graphviz DOT (before and, with
    ``--closed``, after the transformation).

``search``
    The unified search front end: run any strategy (``dfs``, ``random``
    or ``parallel``) over a *system description* — a JSON file naming
    the program, the communication objects and the processes (see
    ``--help`` for the schema), optionally closing the program first::

        repro search system.json --strategy parallel --jobs 4 --progress

    ``--save-traces DIR`` persists every violation as a replayable JSON
    trace; ``--stats-json FILE`` dumps machine-readable telemetry.
    Exit code 3 signals "violations found" (0 = clean), so CI jobs can
    gate on it.

    ``--checkpoint FILE`` makes the search resumable (see
    docs/service.md): Ctrl-C or a spent ``--time-budget`` suspends it to
    a frontier checkpoint in FILE, and the same command run again
    resumes from it to the report an uninterrupted run gives::

        repro search system.json --checkpoint ck.json -j 4

    Observability (see docs/observability.md): ``--trace-out FILE``
    exports the run as Chrome trace-event JSON (Perfetto-loadable) and
    writes a ``run.json`` manifest; ``--profile`` prints the hot-spot
    tables; ``--stall-timeout`` tunes the parallel worker-stall warning.

``profile``
    ``search`` with profiling-first defaults: run a strategy, print the
    per-CFG-node / per-toss-point hot-spot tables::

        repro profile system.json --strategy parallel -j 4 --top 15

``replay``
    Re-execute a saved trace (``repro replay trace.json``), verify the
    recorded violation reproduces, and diagnose divergence (fingerprint
    mismatch, disabled choice, different violation) when the program
    has changed.  The system is rebuilt from the trace's embedded
    description, ``--system desc.json`` or ``--module pkg.mod:factory``.

``shrink``
    Minimize a saved trace to its smallest reproducer (ddmin over the
    choice sequence + toss-value minimization)::

        repro shrink trace.json -o minimal.json

Every search-style command takes ``--engine walk|compiled`` to pick
the execution engine (see docs/engine.md); ``compiled`` translates the
CFGs to Python closures for throughput and falls back to the reference
walking interpreter when the program is not compilable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys

from . import __version__
from .cfg import CfgError, build_cfgs, to_dot
from .closing import ClosingError, ClosingSpec, close_program
from .lang.errors import LangError
from .runtime import System
from .sysdesc import (
    SYSTEM_SCHEMA as _SYSTEM_SCHEMA,
)
from .sysdesc import (
    DescriptionError,
    description_language,
    load_description,
    load_program,
    system_from_description,
)
from .obs.profile import DEFAULT_TOP
from .statespace import STORE_KINDS
from .verisoft import ProgressPrinter, SearchOptions, run_search
from .verisoft.search import BACKTRACK_MODES, CACHE_MODES, ENGINES, SCHEDULERS, STRATEGIES

#: Every search default lives in :class:`SearchOptions`; the help texts
#: quote them from here.
_DEFAULTS = SearchOptions()


def _load_program(path: pathlib.Path):
    return load_program(path)


def _parse_env_params(pairs: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for pair in pairs:
        if ":" not in pair:
            raise SystemExit(f"--env-param expects PROC:PARAM, got {pair!r}")
        proc, param = pair.split(":", 1)
        out.setdefault(proc, []).append(param)
    return out


def _spec_from_args(args) -> ClosingSpec:
    return ClosingSpec.make(
        env_params=_parse_env_params(args.env_param),
        env_channels=args.env_channel,
        env_shared=args.env_shared,
    )


def cmd_close(args) -> int:
    """The ``close`` subcommand."""
    program = _load_program(args.file)
    closed = close_program(program, _spec_from_args(args), optimize=args.optimize)
    source = closed.to_source()
    if args.output:
        args.output.write_text(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    if args.stats:
        print(closed.summary(), file=sys.stderr)
        for proc, params in closed.removed_params.items():
            print(f"  {proc}: interface removed: {', '.join(params)}", file=sys.stderr)
    return 0


def cmd_analyze(args) -> int:
    """The ``analyze`` subcommand."""
    from .closing import analyze_for_closing

    program = _load_program(args.file)
    cfgs = build_cfgs(program)
    analysis = analyze_for_closing(cfgs, _spec_from_args(args))
    print(f"fixpoint rounds: {analysis.rounds}")
    if analysis.tainted_objects:
        print(f"tainted objects: {', '.join(sorted(analysis.tainted_objects))}")
    if analysis.all_objects_tainted:
        print("WARNING: an unresolvable tainted transmission taints every object")
    for proc, pa in sorted(analysis.procs.items()):
        env_params = analysis.env_params.get(proc, frozenset())
        print(f"\nproc {proc}:")
        if env_params:
            print(f"  environment parameters: {', '.join(sorted(env_params))}")
        if proc in analysis.env_returns:
            print("  return value: environment-defined")
        eliminated = [n for n in pa.cfg.nodes if n not in pa.marked]
        print(f"  nodes: {pa.cfg.node_count()}, eliminated: {len(eliminated)}")
        for node_id in sorted(pa.n_i):
            node = pa.cfg.nodes[node_id]
            vi = ", ".join(sorted(pa.vi_of(node_id)))
            print(f"    N_I {node_id:>3}: {node.describe():<30} V_I = {{{vi}}}")
    return 0


def cmd_graph(args) -> int:
    """The ``graph`` subcommand."""
    program = _load_program(args.file)
    cfgs = build_cfgs(program)
    if args.closed:
        closed = close_program(program, _spec_from_args(args))
        cfgs = closed.cfgs
    procs = [args.proc] if args.proc else list(cfgs)
    for proc in procs:
        if proc not in cfgs:
            raise SystemExit(f"unknown procedure {proc!r}")
        dot = to_dot(cfgs[proc])
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"{proc}.dot"
            path.write_text(dot)
            print(f"wrote {path}")
        else:
            print(dot)
    return 0


# The description machinery lives in repro.sysdesc (shared with the
# trace files); the CLI's job is converting DescriptionError to a clean
# exit.


def _read_description(description_path: pathlib.Path) -> dict:
    try:
        return load_description(description_path)
    except DescriptionError as err:
        raise SystemExit(str(err))


def _system_from_description(
    description: dict,
    base_dir: pathlib.Path | None,
    program_source: str | None = None,
    tracer=None,
) -> System:
    try:
        return system_from_description(
            description, base_dir, program_source=program_source, tracer=tracer
        )
    except DescriptionError as err:
        raise SystemExit(str(err))


def _build_system(description_path: pathlib.Path) -> System:
    description = _read_description(description_path)
    return _system_from_description(description, description_path.parent)


def _print_report(report, system=None, program: str | None = None) -> None:
    print(report.summary())
    if not report.ok:
        from .counterex import describe_groups

        print(describe_groups(report.triage(), system=system, program=program))
    for event in report.deadlocks[:5]:
        print("\n" + event.describe())
    for event in report.violations[:5]:
        print("\n" + event.describe())
    for event in report.crashes[:5]:
        print(f"\ncrash in {event.process}: {event.message}")
    for event in report.divergences[:5]:
        print(f"\ndivergence in {event.process}")


def _options_from_args(args) -> SearchOptions:
    """The :class:`SearchOptions` a ``search``-style command asks for.

    Search flags default to ``argparse.SUPPRESS``, so only the flags
    given reach the options; every other field keeps its
    :class:`SearchOptions` default.  Only serializable fields are copied
    (``--progress`` is a flag, the ``progress`` field a callback): the
    ticker and the tracer are built here when ``--progress`` or
    ``--trace-out`` asks for them.
    """
    fields = _DEFAULTS.as_dict()
    options = SearchOptions(**{k: v for k, v in vars(args).items() if k in fields})
    if options.stall_timeout == 0:  # --stall-timeout 0 disables detection
        options.stall_timeout = None
    if getattr(args, "coverage_json", None) is not None:
        options.coverage = True
    if getattr(args, "trace_out", None) is not None:
        from .obs import Tracer

        options.tracer = Tracer()
    if getattr(args, "progress", False):
        options.progress = ProgressPrinter()
    return options


#: ``repro search`` exit code when violations were found (see
#: docs/search.md); 0 = clean search, 2 = usage/input error.
EXIT_VIOLATIONS = 3

#: Seconds between the rewrites of a running search's ``--checkpoint``
#: file: a killed search loses at most this much work.
CHECKPOINT_INTERVAL = 5.0


def _checkpointed_search(system: System, options: SearchOptions, path: pathlib.Path):
    """Search on the parallel driver with a frontier checkpoint at
    ``path``: resume from it when it exists, rewrite it every
    :data:`CHECKPOINT_INTERVAL` seconds, and leave the checkpoint in it
    when Ctrl-C or the spent time budget suspends the search.  A search
    that ends any other way removes it, so the file exists afterwards
    exactly when the search is unfinished."""
    from .service import load_frontier, save_frontier
    from .verisoft.parallel import parallel_search

    if options.strategy == "random":
        raise ValueError("--checkpoint resumes a dfs or parallel search, not --strategy random")
    initial = load_frontier(path) if path.exists() else None
    interrupted = False

    def interrupt(signum, frame) -> None:
        nonlocal interrupted
        interrupted = True

    previous = signal.signal(signal.SIGINT, interrupt)
    try:
        report = parallel_search(
            system,
            options,
            initial=initial,
            should_suspend=lambda: interrupted,
            on_checkpoint=lambda checkpoint: save_frontier(path, checkpoint),
            checkpoint_interval=CHECKPOINT_INTERVAL,
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    if report.checkpoint is None:
        path.unlink(missing_ok=True)
    else:
        save_frontier(path, report.checkpoint)
        print(
            f"suspended: {len(report.checkpoint.pending)} pending subtree(s) saved "
            f"to {path}; run the same command again to resume",
            file=sys.stderr,
        )
    return report


def cmd_search(args) -> int:
    """The ``search`` subcommand: the unified search front end."""
    options = _options_from_args(args)
    checkpoint = getattr(args, "checkpoint", None)
    tracer = options.tracer
    description = _read_description(args.system)
    if tracer is None:
        system = _system_from_description(description, args.system.parent)
    else:
        with tracer.phase("build-system"):
            system = _system_from_description(
                description, args.system.parent, tracer=tracer
            )
    # Oversubscription warnings are emitted (once) by the search
    # drivers themselves — see repro.verisoft.parallel.warn_oversubscription.
    ticker = options.progress

    def search():
        if checkpoint is None:
            return run_search(system, options)
        return _checkpointed_search(system, options, checkpoint)

    try:
        if tracer is None:
            report = search()
        else:
            with tracer.phase("search", strategy=options.strategy):
                report = search()
    finally:
        if ticker is not None:
            ticker.finish()
    language = description_language(description)
    _print_report(report, system=system, program=description.get("program"))
    if report.profile is not None:
        print("\n" + report.profile.render_table(args.profile_top, system=system))
    if report.coverage is not None:
        print("\n" + report.coverage.render_summary(program=description.get("program")))
    if getattr(args, "coverage_json", None) is not None:
        if report.coverage is None:
            print("no coverage collected", file=sys.stderr)
        else:
            args.coverage_json.write_text(
                json.dumps(report.coverage.as_dict(), indent=2) + "\n"
            )
            print(f"wrote coverage to {args.coverage_json}", file=sys.stderr)
    if args.stats and report.stats is not None:
        print("\n" + report.stats.describe(), file=sys.stderr)
    if args.stats_json is not None and report.stats is not None:
        payload = report.stats.json_dict()
        payload["language"] = language
        if report.profile is not None:
            payload["profile"] = report.profile.as_dict()
        args.stats_json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote stats to {args.stats_json}", file=sys.stderr)
    artifacts: list[pathlib.Path] = []
    if args.save_traces is not None:
        from .counterex import save_report_traces

        program_text = (args.system.parent / description["program"]).read_text()
        written = save_report_traces(
            args.save_traces,
            report,
            system=system,
            system_payload={
                "description": description,
                "program_source": program_text,
            },
            language=language,
        )
        artifacts.extend(written)
        print(f"wrote {len(written)} trace file(s) to {args.save_traces}")
    if tracer is not None:
        artifacts.append(tracer.write(args.trace_out))
        print(f"wrote trace to {args.trace_out}", file=sys.stderr)
    if (
        args.save_traces is not None
        or tracer is not None
        or getattr(args, "manifest_out", None) is not None
    ):
        from .obs import build_manifest, write_manifest

        source = None
        program_name = description.get("program")
        if program_name:
            try:
                source = {
                    "path": str(program_name),
                    "text": (args.system.parent / program_name).read_text(),
                }
            except OSError:
                source = None
        manifest = build_manifest(
            argv=sys.argv,
            options=options,
            report=report,
            system=system,
            phases=tracer.phase_timings() if tracer is not None else None,
            artifacts=[str(path) for path in artifacts],
            language=language,
            source=source,
        )
        destinations: list[pathlib.Path] = []
        if getattr(args, "manifest_out", None) is not None:
            destinations.append(args.manifest_out)
        if args.save_traces is not None:
            destinations.append(args.save_traces / "run.json")
        elif tracer is not None:
            destinations.append(
                args.trace_out.with_name(args.trace_out.stem + ".run.json")
            )
        for destination in destinations:
            where = write_manifest(destination, manifest)
            print(f"wrote manifest to {where}", file=sys.stderr)
    return 0 if report.ok else EXIT_VIOLATIONS


def _system_for_trace(args, trace_file) -> System:
    """Rebuild the system a trace file talks about.

    Resolution order: ``--module pkg.mod:factory`` (a zero-argument
    callable returning a :class:`System`), ``--system description.json``,
    then the trace file's own embedded system payload.
    """
    if getattr(args, "module", None):
        import importlib

        target = args.module
        if ":" not in target:
            raise SystemExit(f"--module expects MODULE:FACTORY, got {target!r}")
        module_name, attr = target.split(":", 1)
        module = importlib.import_module(module_name)
        factory = getattr(module, attr, None)
        if factory is None:
            raise SystemExit(f"module {module_name!r} has no attribute {attr!r}")
        system = factory()
        if not isinstance(system, System):
            raise SystemExit(f"{target} did not return a System")
        return system
    if getattr(args, "system", None):
        return _build_system(args.system)
    if trace_file.system is not None:
        return _system_from_description(
            trace_file.system["description"],
            base_dir=None,
            program_source=trace_file.system.get("program_source"),
        )
    raise SystemExit(
        "trace file has no embedded system description; "
        "pass --system description.json or --module pkg.mod:factory"
    )


def cmd_replay(args) -> int:
    """The ``replay`` subcommand: re-execute a saved trace and verify
    that the recorded violation reproduces."""
    from .counterex import TraceFormatError, load_trace, verify_trace

    try:
        trace_file = load_trace(args.trace)
    except TraceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    system = _system_for_trace(args, trace_file)
    verdict = verify_trace(
        system, trace_file, engine=getattr(args, "engine", _DEFAULTS.engine)
    )
    print(verdict.detail)
    if args.show_trace and verdict.outcome.trace.steps:
        print("\nscenario:")
        print(verdict.outcome.trace.describe())
    return 0 if verdict.ok else 1


def cmd_shrink(args) -> int:
    """The ``shrink`` subcommand: minimize a saved trace with ddmin +
    toss-value minimization and write the minimal reproducer."""
    from .counterex import (
        ShrinkError,
        TraceFormatError,
        load_trace,
        save_trace,
        shrink,
    )

    try:
        trace_file = load_trace(args.trace)
    except TraceFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    system = _system_for_trace(args, trace_file)
    try:
        result = shrink(system, trace_file.event(), max_oracle_runs=args.max_runs)
    except ShrinkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(result.describe())
    shrunk = type(trace_file)(
        violation=trace_file.violation,
        trace=result.trace,
        fingerprint=system.fingerprint(),
        search=trace_file.search,
        system=trace_file.system,
        shrink={
            "original_choices": result.original_length,
            "oracle_runs": result.oracle_runs,
        },
    )
    output = args.output or args.trace
    save_trace(output, shrunk)
    print(f"wrote {output}")
    if args.show_trace:
        print("\nminimal scenario:")
        print(result.trace.describe())
    return 0


def cmd_report(args) -> int:
    """The ``report`` subcommand: render a run manifest as a
    self-contained HTML report."""
    from .obs import ManifestFormatError, load_manifest, render_html, write_report

    try:
        manifest = load_manifest(args.manifest)
    except (OSError, ManifestFormatError) as err:
        print(f"error: cannot read manifest: {err}", file=sys.stderr)
        return 2
    if args.source is not None:
        # Override (or supply) the annotated source listing.
        manifest["program"] = {"path": str(args.source), "text": args.source.read_text()}
    if args.coverage_json is not None:
        coverage = (manifest.get("report") or {}).get("coverage")
        if coverage is None:
            print("manifest has no coverage data", file=sys.stderr)
        else:
            args.coverage_json.write_text(json.dumps(coverage, indent=2) + "\n")
            print(f"wrote coverage to {args.coverage_json}", file=sys.stderr)
    if args.output is not None:
        where = write_report(manifest, args.output)
        print(f"wrote {where}")
    else:
        print(render_html(manifest))
    return 0


def cmd_profile(args) -> int:
    """The ``profile`` subcommand: a search run whose deliverable is the
    hot-spot table (``repro search --profile`` with profiling-first
    defaults)."""
    return cmd_search(args)


def _add_engine_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=argparse.SUPPRESS,
        help="execution engine: 'walk' is the reference tree-walking "
        "interpreter; 'compiled' translates the CFGs to Python closures "
        "for throughput, reporting identical results, and falls back to "
        "'walk' when the program uses an uncompilable construct "
        f"(default: {_DEFAULTS.engine})",
    )


def _add_search_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of every search-running command (``search``,
    ``profile``): the system, bounds and budgets, the engine and the
    worker count."""
    parser.add_argument(
        "system",
        type=pathlib.Path,
        help="system description (.json) or verifiable Python program (.py)",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=argparse.SUPPRESS,
        help=f"transitions per path (default: {_DEFAULTS.max_depth})",
    )
    parser.add_argument("--max-paths", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--max-transitions", type=int, default=argparse.SUPPRESS)
    parser.add_argument(
        "--time-budget",
        type=float,
        default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="wall-clock budget; the report is flagged incomplete when it expires",
    )
    _add_engine_argument(parser)
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=argparse.SUPPRESS,
        metavar="N",
        help="parallel strategy: worker processes (0 = all cores)",
    )


def _add_strategy_arguments(parser: argparse.ArgumentParser) -> None:
    """The strategy flags of ``search`` and ``profile``, with the live
    ticker, trace and stats dump."""
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default=argparse.SUPPRESS,
        help=f"search strategy (default: {_DEFAULTS.strategy})",
    )
    parser.add_argument(
        "--walks",
        type=int,
        default=argparse.SUPPRESS,
        help=f"random strategy: number of walks (default: {_DEFAULTS.walks})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help=f"random strategy: PRNG seed (default: {_DEFAULTS.seed})",
    )
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default=argparse.SUPPRESS,
        help="parallel strategy: 'static' splits the tree into subtree "
        "leases up front and hands them out with stealing off; 'steal' "
        "starts from one root lease and lets idle workers steal from "
        "busy ones (identical reports either way; default: "
        f"{_DEFAULTS.scheduler})",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print a live one-line search ticker to stderr",
    )
    parser.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="export the run as Chrome trace-event JSON (load in "
        "chrome://tracing or https://ui.perfetto.dev); also writes a "
        "run manifest next to it",
    )
    parser.add_argument(
        "--stats-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="dump the SearchStats telemetry (and any profile) as "
        "machine-readable JSON",
    )


def _add_exploration_arguments(parser: argparse.ArgumentParser) -> None:
    """The DFS flags of ``search``: POR, state counting and caching,
    backtracking, the event cap and coverage."""
    parser.add_argument("--no-por", dest="por", action="store_false", default=argparse.SUPPRESS)
    parser.add_argument("--count-states", action="store_true", default=argparse.SUPPRESS)
    parser.add_argument("--stop-on-first", action="store_true", default=argparse.SUPPRESS)
    parser.add_argument(
        "--max-events",
        type=int,
        default=argparse.SUPPRESS,
        help="recorded events of each kind; counting goes on "
        f"(default: {_DEFAULTS.max_events})",
    )
    parser.add_argument(
        "--backtrack",
        choices=BACKTRACK_MODES,
        default=argparse.SUPPRESS,
        help="DFS backtracking mode: 'restore' rewinds the live run via "
        "undo-journal checkpoints (O(changes) per backtrack; falls back "
        "to replay automatically if an object is not journalable); "
        "'replay' is classic stateless re-execution. Both report "
        f"identical results (default: {_DEFAULTS.backtrack})",
    )
    parser.add_argument(
        "--state-cache",
        choices=STORE_KINDS,
        default=argparse.SUPPRESS,
        help="prune revisited states with a visited-state store: exact "
        "(full snapshots, sound) or hashcompact (64-bit digests). Default: "
        f"{_DEFAULTS.state_cache} (pure stateless search)",
    )
    parser.add_argument(
        "--cache-mode",
        choices=CACHE_MODES,
        default=argparse.SUPPRESS,
        help="'safe' disables sleep-set pruning while caching (sound); "
        "'unsafe-fast' keeps it and may miss interleavings "
        f"(default: {_DEFAULTS.cache_mode})",
    )
    parser.add_argument(
        "--coverage",
        action="store_true",
        default=argparse.SUPPRESS,
        help="collect CFG node/edge and environment-input (VS_toss) "
        "coverage: printed after the search and recorded in its run "
        "manifest",
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--env-param",
        action="append",
        default=[],
        metavar="PROC:PARAM",
        help="declare a parameter as environment-provided (repeatable)",
    )
    parser.add_argument(
        "--env-channel",
        action="append",
        default=[],
        metavar="NAME",
        help="declare a channel fed by the environment (repeatable)",
    )
    parser.add_argument(
        "--env-shared",
        action="append",
        default=[],
        metavar="NAME",
        help="declare a shared variable written by the environment (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automatically close open reactive programs (PLDI 1998) "
        "and explore the result.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    close_parser = sub.add_parser("close", help="close an open program")
    close_parser.add_argument(
        "file", type=pathlib.Path, help="RC (.rc), C (.c) or Python (.py) source"
    )
    _add_spec_arguments(close_parser)
    close_parser.add_argument("-o", "--output", type=pathlib.Path)
    close_parser.add_argument("--optimize", action="store_true", help="run clean-up passes")
    close_parser.add_argument("--stats", action="store_true")
    close_parser.set_defaults(func=cmd_close)

    analyze_parser = sub.add_parser("analyze", help="print the Steps 2-3 analysis")
    analyze_parser.add_argument("file", type=pathlib.Path)
    _add_spec_arguments(analyze_parser)
    analyze_parser.set_defaults(func=cmd_analyze)

    graph_parser = sub.add_parser("graph", help="dump control-flow graphs as DOT")
    graph_parser.add_argument("file", type=pathlib.Path)
    graph_parser.add_argument("--proc", help="only this procedure")
    graph_parser.add_argument("--closed", action="store_true", help="graph after closing")
    graph_parser.add_argument("--out-dir", type=pathlib.Path)
    _add_spec_arguments(graph_parser)
    graph_parser.set_defaults(func=cmd_graph)

    search_parser = sub.add_parser(
        "search",
        help="search a system description (unified front end)",
        epilog=_SYSTEM_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_search_arguments(search_parser)
    _add_strategy_arguments(search_parser)
    _add_exploration_arguments(search_parser)
    search_parser.add_argument(
        "--stats",
        action="store_true",
        help="print the full search-telemetry summary after the run",
    )
    search_parser.add_argument(
        "--save-traces",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="write one replayable JSON trace file per violation to DIR "
        "(replay with 'repro replay', minimize with 'repro shrink')",
    )
    search_parser.add_argument(
        "--profile",
        action="store_true",
        default=argparse.SUPPRESS,
        help="collect per-CFG-node / per-toss-point hot-spot counters "
        "and print the top-N tables after the run",
    )
    search_parser.add_argument(
        "--profile-top",
        type=int,
        default=DEFAULT_TOP,
        metavar="N",
        help=f"rows per hot-spot table (default: {DEFAULT_TOP})",
    )
    search_parser.add_argument(
        "--coverage-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="dump the coverage data as machine-readable JSON "
        "(implies --coverage)",
    )
    search_parser.add_argument(
        "--manifest-out",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the run manifest (run.json) here; feed it to "
        "'repro report' for a self-contained HTML run report",
    )
    search_parser.add_argument(
        "--stall-timeout",
        type=float,
        default=argparse.SUPPRESS,
        metavar="SECONDS",
        help="parallel strategy: warn when a worker makes no progress "
        f"for this long (0 disables; default: {_DEFAULTS.stall_timeout:g})",
    )
    search_parser.add_argument(
        "--checkpoint",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="run on the parallel driver and make the search resumable: "
        "resume from FILE when it exists, and leave a frontier checkpoint "
        "in FILE when Ctrl-C or the time budget suspends the search "
        f"(rewritten every {CHECKPOINT_INTERVAL:g}s while it runs; removed "
        "when the search ends any other way)",
    )
    search_parser.set_defaults(func=cmd_search)

    profile_parser = sub.add_parser(
        "profile",
        help="search a system and print the hot-spot profile",
        epilog=_SYSTEM_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    _add_search_arguments(profile_parser)
    _add_strategy_arguments(profile_parser)
    profile_parser.add_argument(
        "--top",
        dest="profile_top",
        type=int,
        default=DEFAULT_TOP,
        metavar="N",
        help=f"rows per hot-spot table (default: {DEFAULT_TOP})",
    )
    profile_parser.set_defaults(
        func=cmd_profile, profile=True, stats=False, save_traces=None
    )

    report_parser = sub.add_parser(
        "report",
        help="render a run manifest (run.json) as a self-contained HTML report",
    )
    report_parser.add_argument(
        "manifest", type=pathlib.Path, help="run manifest (run.json)"
    )
    report_parser.add_argument(
        "-o",
        "--output",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="write the HTML here (default: print to stdout)",
    )
    report_parser.add_argument(
        "--source",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="annotate coverage onto this source file (overrides the "
        "program text embedded in the manifest)",
    )
    report_parser.add_argument(
        "--coverage-json",
        type=pathlib.Path,
        default=None,
        metavar="FILE",
        help="also extract the manifest's coverage block as JSON",
    )
    report_parser.set_defaults(func=cmd_report)

    replay_parser = sub.add_parser(
        "replay",
        help="re-execute a saved counterexample trace and verify it reproduces",
    )
    replay_parser.add_argument("trace", type=pathlib.Path, help="trace JSON file")
    replay_parser.add_argument(
        "--system",
        type=pathlib.Path,
        default=None,
        help="rebuild the system from this description instead of the "
        "trace's embedded payload",
    )
    replay_parser.add_argument(
        "--module",
        default=None,
        metavar="MODULE:FACTORY",
        help="rebuild the system by calling a zero-argument factory, "
        "e.g. repro.fiveess.app:demo_system",
    )
    replay_parser.add_argument(
        "--show-trace",
        action="store_true",
        help="also print the replayed scenario's visible operations",
    )
    _add_engine_argument(replay_parser)
    replay_parser.set_defaults(func=cmd_replay)

    shrink_parser = sub.add_parser(
        "shrink",
        help="minimize a saved trace (ddmin + toss minimization)",
    )
    shrink_parser.add_argument("trace", type=pathlib.Path, help="trace JSON file")
    shrink_parser.add_argument(
        "-o",
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the minimal trace (default: overwrite input)",
    )
    shrink_parser.add_argument(
        "--system",
        type=pathlib.Path,
        default=None,
        help="rebuild the system from this description instead of the "
        "trace's embedded payload",
    )
    shrink_parser.add_argument(
        "--module",
        default=None,
        metavar="MODULE:FACTORY",
        help="rebuild the system by calling a zero-argument factory",
    )
    shrink_parser.add_argument(
        "--max-runs",
        type=int,
        default=100_000,
        help="budget of oracle re-executions (default: 100000)",
    )
    shrink_parser.add_argument(
        "--show-trace",
        action="store_true",
        help="also print the minimal scenario's visible operations",
    )
    shrink_parser.set_defaults(func=cmd_shrink)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LangError, CfgError, ClosingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); exit quietly.
        return 0
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
