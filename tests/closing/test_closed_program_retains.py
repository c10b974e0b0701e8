"""What a closed program keeps alive.

``close_program`` returns ``S'`` and its statistics.  The working state
of Steps 1–3 (the define-use graphs, their node-access tables, the
alias result, the per-procedure analysis facts and the open CFGs) must
not be reachable from the :class:`ClosedProgram` nor from a compiled
:class:`System` built on its CFGs, and the define-use graphs must be
freed before Steps 4–5 start.
"""

import gc
import sys
import types
import weakref

import pytest

import repro.closing.analysis
import repro.closing.closer
from repro import System, close_program
from repro.cfg import ControlFlowGraph
from repro.closing.analysis import ClosingAnalysis, ProcAnalysis
from repro.closing.generators import generate_sized_program
from repro.dataflow.accesses import NodeAccess
from repro.dataflow.alias import PointsToResult
from repro.dataflow.defuse import DefUseGraph
from repro.fiveess import build_app
from repro.lang.parser import parse_program

from ..statespace.conftest import FIG2_SRC, FIG3_SRC

#: Working-state types of the analysis; no instance may stay reachable.
ANALYSIS_TYPES = (DefUseGraph, NodeAccess, PointsToResult, ProcAnalysis, ClosingAnalysis)

#: Writes through pointers: the alias result has non-local pointees, so
#: the fixpoint's escaped-variable fact fires.
POINTER_SRC = """
extern proc env();
proc fill(pp) { var inner; inner = *pp; *inner = env(); }
proc main() {
    var slot = 0;
    var p = &slot;
    fill(&p);
    var v = slot;
    if (v > 0) { send(out, 'hit'); } else { send(out, 'miss'); }
}
"""


#: Case name -> a call that closes it.
CASES = {
    "fig2": lambda: close_program(FIG2_SRC, env_params={"p": ["x"]}),
    "fig3": lambda: close_program(FIG3_SRC, env_params={"q": ["x"]}),
    "5ess": lambda: build_app(n_lines=2, calls_per_line=1).close(),
    "pointers": lambda: close_program(POINTER_SRC),
    **{
        f"sized-400-{seed}": lambda seed=seed: close_program(generate_sized_program(400, seed))
        for seed in (0, 1, 2)
    },
}


def _reachable(*roots):
    """Every object reachable from ``roots`` by ``gc.get_referents``,
    not entering modules, classes or module namespaces: those reach
    the whole process, other tests' objects included."""
    namespaces = {id(vars(module)) for module in list(sys.modules.values()) if module}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or id(obj) in namespaces:
            continue
        if isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def _leaks(closed, *roots) -> list[str]:
    """The analysis objects and foreign CFGs reachable from ``roots``."""
    kept = {id(cfg) for cfg in closed.cfgs.values()}
    found = []
    for obj in _reachable(*roots):
        if isinstance(obj, ANALYSIS_TYPES):
            found.append(type(obj).__name__)
        elif isinstance(obj, ControlFlowGraph) and id(obj) not in kept:
            found.append(f"open ControlFlowGraph {obj.proc_name}")
    return sorted(set(found))


@pytest.mark.parametrize("case", list(CASES))
class TestNothingOfTheAnalysisIsRetained:
    def test_closed_program(self, case):
        closed = CASES[case]()
        assert _leaks(closed, closed) == []

    def test_compiled_system(self, case):
        closed = CASES[case]()
        system = System(closed.cfgs)
        system.compiled_program()
        assert _leaks(closed, system) == []

    def test_defuse_graphs_die_before_the_transform(self, case, monkeypatch):
        graphs: list[weakref.ref] = []
        compute_defuse = repro.closing.analysis.compute_defuse
        transform_program = repro.closing.closer.transform_program

        def recording_defuse(*args, **kwargs):
            graph = compute_defuse(*args, **kwargs)
            graphs.append(weakref.ref(graph))
            return graph

        def checked_transform(*args, **kwargs):
            alive = [ref().proc_name for ref in graphs if ref() is not None]
            assert alive == [], f"def-use graphs alive at the transform: {alive}"
            return transform_program(*args, **kwargs)

        monkeypatch.setattr(repro.closing.analysis, "compute_defuse", recording_defuse)
        monkeypatch.setattr(repro.closing.closer, "transform_program", checked_transform)
        closed = CASES[case]()
        assert graphs and len(graphs) == len(closed.cfgs)


@pytest.mark.parametrize("mobility", [True, False])
@pytest.mark.parametrize("maintenance", [True, False])
@pytest.mark.parametrize("forwarding", [True, False])
def test_launch_args_match_the_open_parameters(mobility, maintenance, forwarding):
    """``launch_args`` drops exactly the arguments of the parameters
    Step 5 removed, as computed from the open program's parameters."""
    app = build_app(n_lines=2, calls_per_line=1)
    closed = app.close()
    open_params = {name: proc.params for name, proc in parse_program(app.source).procs.items()}
    launch_args = closed.launch_args
    launched = []

    def recording(proc, args):
        result = launch_args(proc, args)
        removed = closed.removed_params.get(proc, ())
        expected = [a for p, a in zip(open_params[proc], args) if p not in removed]
        assert result == expected, proc
        launched.append((proc, tuple(result)))
        return result

    closed.launch_args = recording
    system = app.make_system(
        closed,
        with_mobility=mobility,
        with_maintenance=maintenance,
        with_forwarding=forwarding,
    )
    assert launched == [(proc, args) for _, proc, args in system.process_specs]
    families = {proc for proc, _ in launched}
    assert ("mobile_station" in families) == mobility
    assert ("handover_manager" in families) == mobility
    assert ("audit_daemon" in families) == maintenance
    assert ("provisioning_daemon" in families) == forwarding


def test_launch_args_drop_the_removed_parameters_only():
    closed = close_program(
        "proc main(a, x, b) { send(out, a); if (x > 0) { send(out, b); } }",
        env_params={"main": ["x"]},
    )
    assert closed.removed_params == {"main": ("x",)}
    assert closed.launch_args("main", [1, 2, 3]) == [1, 3]
