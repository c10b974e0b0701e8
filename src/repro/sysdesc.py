"""System descriptions: the JSON recipe for building a runnable system.

A *system description* names the program file, the optional closing
step, the communication objects and the processes — everything needed
to rebuild a :class:`~repro.runtime.system.System` from scratch.  It is
the lingua franca of every front end: the ``repro search`` CLI takes
one, and saved counterexample traces embed one with the program source
(self-contained replay, :mod:`repro.counterex.traceio`), so a trace
replays on another machine, possibly days later, against the exact
system it was recorded from.

Errors raise :class:`DescriptionError` (a ``ValueError``): library
callers handle it; the CLI converts it to a clean exit.
"""

from __future__ import annotations

import json
import pathlib

from .closing import ClosingSpec, close_program
from .lang import parse_program
from .runtime import System

__all__ = [
    "SYSTEM_SCHEMA",
    "DescriptionError",
    "description_language",
    "load_description",
    "load_program",
    "program_from_source",
    "program_language",
    "system_from_description",
]

SYSTEM_SCHEMA = """\
System description JSON schema (a verifiable .py program can be passed
directly instead — the Python front end derives this description from
its Queue(...)/spawn(...) prelude; see docs/python_frontend.md):
{
  "program": "path/to/program.rc",   // .rc, .c or .py picks the front end
  "close": {                         // optional: close before running
    "env_params": {"main": ["x"]},
    "env_channels": ["inbox"],
    "env_shared": [],
    "object_bindings": {"worker.inbox": ["jobs"]},
    "optimize": true
  },
  "objects": [
    {"kind": "channel",   "name": "c",   "capacity": 2},
    {"kind": "semaphore", "name": "s",   "initial": 1},
    {"kind": "shared",    "name": "v",   "initial": 0},
    {"kind": "sink",      "name": "out"}
  ],
  "processes": [
    {"name": "p1", "proc": "main", "args": [3, {"object": "c"}]}
  ]
}
"""


class DescriptionError(ValueError):
    """A system description is malformed or references missing pieces."""


#: Program-file suffix -> front-end language.
PROGRAM_LANGUAGES = {".rc": "rc", ".c": "c", ".py": "python"}


def program_language(name: str) -> str:
    """The front-end language a program file name selects.

    Defaults to ``rc`` (names without a recognized suffix — synthetic
    sources, embedded trace payloads from older versions)."""
    suffix = pathlib.PurePath(str(name)).suffix
    return PROGRAM_LANGUAGES.get(suffix, "rc")


def description_language(description: dict) -> str:
    """The front-end language of a system description.

    Prefers the explicit ``language`` key (recorded by the loaders and
    front ends); falls back to the program file's suffix."""
    recorded = description.get("language")
    if recorded:
        return recorded
    return program_language(description.get("program", ""))


def load_program(path: pathlib.Path):
    """Parse the program file at ``path``.

    The suffix picks the front end: ``.rc`` is the mini-language,
    ``.c`` routes through the C front end, ``.py`` through the Python
    front end.  Unknown suffixes are an error naming the extension —
    not a silent guess at a format."""
    path = pathlib.Path(path)
    if path.suffix not in PROGRAM_LANGUAGES:
        supported = ", ".join(sorted(PROGRAM_LANGUAGES))
        raise DescriptionError(
            f"cannot load program {path.name!r}: unknown extension "
            f"{path.suffix or '(none)'!r} (supported: {supported})"
        )
    return program_from_source(path.name, path.read_text(), filename=str(path))


def program_from_source(name: str, text: str, filename: str | None = None):
    """Parse program ``text`` directly; ``name``'s suffix picks the
    front end (``.c`` → C, ``.py`` → Python, anything else → RC —
    the permissive default keeps old embedded trace payloads loading).
    """
    language = program_language(name)
    if language == "c":
        from .lang.cfront import c_to_program

        return c_to_program(text)
    if language == "python":
        from .lang.python import python_to_program

        return python_to_program(text, filename or name)
    return parse_program(text)


def load_description(description_path: pathlib.Path) -> dict:
    """Read a system description file.

    ``.json`` files hold the explicit description; a ``.py`` program is
    its own description — the Python front end derives objects,
    processes and the closing spec from the module prelude.  Other
    extensions are an error naming what was attempted."""
    path = pathlib.Path(description_path)
    if path.suffix == ".py":
        from .lang.python import PyFrontError, description_from_python

        try:
            return description_from_python(
                path.read_text(), path.name, filename=str(path)
            )
        except PyFrontError as err:
            raise DescriptionError(f"bad Python system description: {err}") from err
    if path.suffix and path.suffix != ".json":
        supported = ", ".join(sorted(PROGRAM_LANGUAGES))
        raise DescriptionError(
            f"cannot load system description {path.name!r}: unknown "
            f"extension {path.suffix!r} (expected a .json description or "
            f"a .py program; programs inside descriptions may be {supported})"
        )
    try:
        description = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise DescriptionError(
            f"bad JSON system description {path.name!r}: {err}\n\n{SYSTEM_SCHEMA}"
        ) from err
    if isinstance(description, dict):
        description.setdefault("language", program_language(description.get("program", "")))
    return description


def system_from_description(
    description: dict,
    base_dir: pathlib.Path | None,
    program_source: str | None = None,
    tracer=None,
) -> System:
    """Build a :class:`System` from a parsed description dict.

    ``program_source`` (used when replaying a self-contained trace
    file) supplies the program text
    directly; otherwise the description's ``program`` path is resolved
    against ``base_dir``.  ``tracer`` records the closing pipeline's
    phase spans.
    """
    if program_source is not None:
        program = program_from_source(description.get("program", ""), program_source)
    else:
        if base_dir is None:
            raise DescriptionError(
                "system description has no embedded program source"
            )
        program = load_program(pathlib.Path(base_dir) / description["program"])

    close_cfg = description.get("close")
    if close_cfg is not None:
        bindings: dict[tuple[str, str], list] = {}
        for key, objects in close_cfg.get("object_bindings", {}).items():
            proc_name, sep, param = str(key).partition(".")
            if not sep or not proc_name or not param:
                raise DescriptionError(
                    f"close.object_bindings keys must look like "
                    f"'proc.param', got {key!r}"
                )
            bindings[(proc_name, param)] = list(objects)
        spec = ClosingSpec.make(
            env_params=close_cfg.get("env_params", {}),
            env_channels=close_cfg.get("env_channels", ()),
            env_shared=close_cfg.get("env_shared", ()),
            object_bindings=bindings,
        )
        closed = close_program(
            program,
            spec,
            optimize=close_cfg.get("optimize", False),
            tracer=tracer,
        )
        system = System(closed.cfgs)
    else:
        system = System(program)

    refs = {}
    for obj in description.get("objects", []):
        kind = obj["kind"]
        name = obj["name"]
        if kind == "channel":
            refs[name] = system.add_channel(name, capacity=obj.get("capacity", 1))
        elif kind == "semaphore":
            refs[name] = system.add_semaphore(name, initial=obj.get("initial", 1))
        elif kind == "shared":
            refs[name] = system.add_shared(name, initial=obj.get("initial", 0))
        elif kind == "sink":
            refs[name] = system.add_env_sink(name)
        else:
            raise DescriptionError(f"unknown object kind {kind!r}")

    for proc in description.get("processes", []):
        proc_args = []
        for arg in proc.get("args", []):
            if isinstance(arg, dict) and "object" in arg:
                ref = refs.get(arg["object"])
                if ref is None:
                    raise DescriptionError(
                        f"process argument references unknown object {arg['object']!r}"
                    )
                proc_args.append(ref)
            else:
                proc_args.append(arg)
        system.add_process(proc["name"], proc["proc"], proc_args)
    return system
