"""The benchmark's workloads and the pinned answers they are checked against.

Each workload has three steps:

* ``prepare(smoke, seed)`` makes the inputs (untimed): the open source
  text, generated from the seed where the workload has one;
* ``setup(inputs)`` turns source text into a runnable closed system
  (timed as ``setup_s``): parse, ``close_program``, ``System(...)`` and
  ``compiled_program()``;
* ``operate(inputs, operand)`` is the timed operation (``verdict_s``):
  one complete search, or for ``close-sized`` one closing of the whole
  size ladder.

``answers(...)`` extracts what the operation decided and
:func:`closed_answers` what a set-up produced (both untimed);
:func:`mismatches` compares them with ``pinned.json``.  A mismatch
counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro import SearchOptions, System, close_program, run_search
from repro.closing.generators import generate_sized_program
from repro.fiveess import build_app

PINNED = json.loads(pathlib.Path(__file__).with_name("pinned.json").read_text())

#: Bounded 5ESS, the ROADMAP's reference search.
FIVEESS_APP = dict(n_lines=2, calls_per_line=1)
FIVEESS_DEPTH = 24
SMOKE_DEPTH = 12
MAX_EVENTS = 50_000

#: close-sized closes generated programs of these sizes (statements).
CLOSE_SIZES = (200, 400, 800, 1600, 3200)
SMOKE_SIZES = (50, 100)
#: close-sized generates its programs from ``seed % PROGRAM_SEEDS``; the
#: closed output of every one of these program seeds is pinned.
PROGRAM_SEEDS = 16

#: The traced run of search-5ess also drives the parallel driver, with as
#: many workers as the reference machine has CPUs.
PARALLEL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[bool, int], Any]
    setup: Callable[[Any], Any]
    operate: Callable[[Any, Any], Any]
    answers: Callable[[Any], dict]
    #: Fresh set-ups timed before each operation; their median over the
    #: run is ``setup_s``.
    setup_batch: int


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Bounded 5ESS
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiveEssInputs:
    app: Any
    options: SearchOptions


def fiveess_setup(inputs: FiveEssInputs):
    """Source text to runnable closed system: the ``setup_s`` unit."""
    # A fresh app record each time: make_system caches what it parses.
    app = replace(inputs.app)
    closed = app.close()
    system = app.make_system(closed, with_maintenance=False)
    system.compiled_program()
    return system, closed


def closed_answers(operand) -> dict:
    """What a set-up produced: the closing's counts and output, and
    whether the closed program compiled."""
    system, closed = operand
    return {
        "toss_nodes": closed.toss_nodes_added,
        "nodes_eliminated": closed.nodes_eliminated,
        "compiled": system.compiled_program() is not None,
        "source": digest(closed.to_source()),
    }


def _signatures(report) -> list:
    return json.loads(json.dumps(sorted(group.signature for group in report.triage())))


def search_answers(report) -> dict:
    stats = report.stats
    out = {
        "engine": stats.engine,
        "states": stats.states_visited,
        "transitions": stats.transitions_executed,
        "toss_points": stats.toss_points,
        "paths": stats.paths_explored,
        "triage": _signatures(report),
    }
    if stats.state_cache != "off":
        out.update(
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            cache_stored=stats.cache_stored,
            coverage_nodes=stats.coverage_nodes,
        )
    return out


def search_workload(name: str, why: str, **options) -> Workload:
    def prepare(smoke: bool, seed: int) -> FiveEssInputs:
        # The 5ESS program is fixed; the seed only picks the engine-drive
        # schedules of the traced run.
        return FiveEssInputs(
            app=build_app(**FIVEESS_APP),
            options=SearchOptions(
                max_depth=SMOKE_DEPTH if smoke else FIVEESS_DEPTH,
                max_events=MAX_EVENTS,
                **options,
            ),
        )

    return Workload(
        name=name,
        why=why,
        prepare=prepare,
        setup=fiveess_setup,
        operate=_search_operate,
        answers=search_answers,
        setup_batch=4,
    )


def _search_operate(inputs: FiveEssInputs, operand):
    system, _ = operand
    return run_search(system, inputs.options)


# ---------------------------------------------------------------------------
# close-sized
# ---------------------------------------------------------------------------


def program_seed(seed: int) -> int:
    return seed % PROGRAM_SEEDS


def _sized_prepare(smoke: bool, seed: int) -> dict[int, str]:
    sizes = SMOKE_SIZES if smoke else CLOSE_SIZES
    return {n: generate_sized_program(n, program_seed(seed)) for n in sizes}


def close_runnable(source: str):
    """Close one generated program into a runnable compiled system."""
    closed = close_program(source)
    system = System(closed.cfgs)
    system.add_env_sink("out")
    system.add_process("main", "main")
    system.compiled_program()
    return system, closed


def _sized_setup(sources: dict[int, str]):
    return close_runnable(sources[max(sources)])


def _sized_operate(sources: dict[int, str], operand):
    return {n: close_runnable(source) for n, source in sources.items()}


def sized_answers(ladder: dict) -> dict:
    return {str(n): closed_answers(operand) for n, operand in ladder.items()}


# ---------------------------------------------------------------------------
# The workload table and the pinned answers
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        search_workload(
            "search-5ess",
            "reference search: compiled engine, restore, POR, no cache; "
            "engine, POR and explorer bookkeeping do all the work",
            engine="compiled",
        ),
        search_workload(
            "audit-5ess",
            "walking engine with exact state cache and coverage: every state "
            "is fingerprinted and stored, the coverage observer runs per step",
            engine="walk",
            state_cache="exact",
            coverage=True,
        ),
        Workload(
            name="close-sized",
            why="only the closing pipeline (parse, cfg, dataflow, closing, "
            "compile) on generated programs of 200 to 3200 statements",
            prepare=_sized_prepare,
            setup=_sized_setup,
            operate=_sized_operate,
            answers=sized_answers,
            setup_batch=1,
        ),
    )
}


def expected(name: str, smoke: bool, seed: int) -> tuple[dict, dict]:
    """``(set-up answers, operation answers)`` pinned for this run."""
    mode = "smoke" if smoke else "full"
    if name == "close-sized":
        pinned = PINNED["close-sized"][mode]
        digests = pinned["sources"][str(program_seed(seed))]
        ladder = {
            size: {**counts, "compiled": True, "source": digests[size]}
            for size, counts in pinned["sizes"].items()
        }
        return ladder[max(ladder, key=int)], ladder
    return PINNED["5ess-setup"], PINNED[name][mode]


def mismatches(observed: dict, pinned: dict, where: str = "") -> list[str]:
    """Every key where ``observed`` differs from ``pinned``."""
    out = []
    for key in sorted(set(observed) | set(pinned)):
        got, want = observed.get(key), pinned.get(key)
        if isinstance(got, dict) and isinstance(want, dict):
            out.extend(mismatches(got, want, f"{where}{key}."))
        elif got != want:
            out.append(f"{where}{key}: got {got!r}, pinned {want!r}")
    return out


class Tally:
    """Operations attempted and failed; a failure is any answer that
    differs from the pinned one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, observed: dict, pinned: dict, what: str) -> None:
        self.attempted += 1
        problems = mismatches(observed, pinned)
        if problems:
            self.failed += 1
            print(f"perfbench: {what} disagrees with the pinned answers: "
                  + "; ".join(problems[:5]), file=sys.stderr)
