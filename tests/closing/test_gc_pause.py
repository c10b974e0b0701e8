"""The closing pipeline and the compiler run with the cyclic collector
paused, and hand it back as they found it.

Each test watches ``gc.isenabled()`` from inside the pipeline, through a
wrapped ``build_cfgs`` (called by ``close_program``) and a wrapped
``_compile_proc`` (called by ``compile_program`` once per procedure).
"""

import gc

import pytest

import repro.closing.closer as closer
import repro.runtime.compile as compile_module
from repro import System, close_program
from repro.lang.errors import ParseError
from repro.runtime.compile import CompileUnsupported, compile_program

SOURCE = """
extern proc env_input();
proc main() {
    var x;
    x = env_input();
    if (x > 2) { send(out, 'big'); } else { send(out, 'small'); }
}
"""

POINTER_SOURCE = """
proc main() {
    var x;
    x = 1;
    var p;
    p = &x;
    *p = 42;
    send(out, x);
}
"""


@pytest.fixture
def seen(monkeypatch):
    """``gc.isenabled()`` as seen inside each pipeline stage."""
    seen = []

    def watch(function):
        def watched(*args, **kwargs):
            seen.append(gc.isenabled())
            return function(*args, **kwargs)

        return watched

    monkeypatch.setattr(closer, "build_cfgs", watch(closer.build_cfgs))
    monkeypatch.setattr(compile_module, "_compile_proc", watch(compile_module._compile_proc))
    was_enabled = gc.isenabled()
    gc.enable()
    yield seen
    if not was_enabled:
        gc.disable()


def test_collector_off_inside_close_program(seen):
    close_program(SOURCE)
    assert seen == [False]
    assert gc.isenabled()


def test_collector_off_inside_compile_program(seen):
    compile_program(close_program(SOURCE).cfgs)
    assert seen == [False, False]
    assert gc.isenabled()


def test_caller_that_turned_it_off_finds_it_off(seen):
    gc.disable()
    try:
        System(close_program(SOURCE).cfgs).compiled_program()
        assert seen == [False, False]
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_restored_after_parse_error(seen):
    with pytest.raises(ParseError):
        close_program("proc {")
    assert gc.isenabled()


def test_restored_after_compile_unsupported(seen):
    cfgs = close_program(POINTER_SOURCE).cfgs
    with pytest.raises(CompileUnsupported):
        compile_program(cfgs)
    assert gc.isenabled()
    assert System(cfgs).compiled_program() is None
    assert seen == [False, False, False]
    assert gc.isenabled()
