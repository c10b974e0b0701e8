"""Run a function with Python's cyclic garbage collector paused.

The closing pipeline (:func:`repro.closing.closer.close_program`) and
the compiler (:func:`repro.runtime.compile.compile_program`) allocate
container objects by the ten thousand (tokens, AST and CFG nodes,
def-use arcs, closures) and keep nearly all of them until they return.
Every collector pass during such a call walks objects that are still
alive and promotes them, so the older generations walk them again:
work that frees nothing.  Reference counting keeps freeing every
acyclic object while the collector is off; cyclic garbage waits for
the first pass after the call.
"""

from __future__ import annotations

import functools
import gc


def collector_paused(function):
    """Decorate ``function`` to run with the cyclic collector off.

    The collector is switched back on when the call returns or raises.
    A call that finds it already off (the caller turned it off, or an
    enclosing paused call is running) leaves it alone."""

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused
