"""System descriptions: the JSON recipe for building a runnable system.

A *system description* names the program file, the optional closing
step, the communication objects and the processes — everything needed
to rebuild a :class:`~repro.runtime.system.System` from scratch.  It is
the lingua franca of every front end: the ``repro search`` CLI takes
one, and saved counterexample traces embed one with the program source
(self-contained replay, :mod:`repro.counterex.traceio`), so a trace
replays on another machine, possibly days later, against the exact
system it was recorded from.

A description that is not of this shape, names an object it does not
declare, or does not fit its program raises :class:`DescriptionError`
at the JSON path of the bad entry (``$.processes[0]: missing key
'name'``), whether it came from a ``.json`` file, a ``.py`` program or a
trace's embedded payload.
"""

from __future__ import annotations

import pathlib
from typing import Any

from .closing import ClosingSpec, close_program
from .jsondoc import FormatError, Shape
from .lang import parse_program
from .runtime import System
from .runtime.errors import ObjectError

__all__ = [
    "SYSTEM_SCHEMA",
    "DescriptionError",
    "check_description",
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


class DescriptionError(FormatError):
    """A system description is malformed or references missing pieces."""


_DESCRIPTION = Shape(DescriptionError)


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


#: A process argument or a shared variable's initial value.
_VALUE = (int, bool, str)
#: Each object kind's declaring method of :class:`System` and its
#: optional parameter, with the parameter's JSON types.
_OBJECT_KINDS: dict[str, tuple[str, str | None, tuple[type, ...]]] = {
    "channel": ("add_channel", "capacity", (int,)),
    "semaphore": ("add_semaphore", "initial", (int,)),
    "shared": ("add_shared", "initial", _VALUE),
    "sink": ("add_env_sink", None, ()),
}


def check_description(doc: Any, path: str = "$", shape: Shape = _DESCRIPTION) -> dict:
    """``doc``, if it is a system description of the shape
    :data:`SYSTEM_SCHEMA` shows whose process arguments name declared
    objects; else the ``shape``'s error (:class:`DescriptionError`
    unless a trace file embeds the description) at the bad entry.
    Unknown keys are ignored, and every key is optional here."""
    shape.check(doc, (dict,), path)
    shape.field(doc, "program", (str,), path, None)
    shape.field(doc, "language", (str,), path, None)
    close = shape.field(doc, "close", (dict,), path, {})
    at = f"{path}.close"
    for proc, params in shape.field(close, "env_params", (dict,), at, {}).items():
        shape.items(params, (str,), f"{at}.env_params.{proc}")
    for key in ("env_channels", "env_shared"):
        shape.items(shape.field(close, key, (list,), at, []), (str,), f"{at}.{key}")
    for key, objects in shape.field(close, "object_bindings", (dict,), at, {}).items():
        proc, sep, param = key.partition(".")
        if not (proc and sep and param):
            raise shape.error(
                f"keys must look like 'proc.param', got {key!r}", f"{at}.object_bindings"
            )
        shape.items(objects, (str,), f"{at}.object_bindings.{key}")
    shape.field(close, "optimize", (bool,), at, False)
    names = set()
    for i, obj in enumerate(shape.field(doc, "objects", (list,), path, [])):
        at = f"{path}.objects[{i}]"
        shape.check(obj, (dict,), at)
        kind = shape.field(obj, "kind", (str,), at)
        if kind not in _OBJECT_KINDS:
            raise shape.error(f"unknown object kind {kind!r}", f"{at}.kind")
        name = shape.field(obj, "name", (str,), at)
        if name in names:
            raise shape.error(f"duplicate object name {name!r}", f"{at}.name")
        names.add(name)
        _, param, kinds = _OBJECT_KINDS[kind]
        if param is not None:
            shape.field(obj, param, kinds, at, None)
    for i, proc in enumerate(shape.field(doc, "processes", (list,), path, [])):
        at = f"{path}.processes[{i}]"
        shape.check(proc, (dict,), at)
        shape.field(proc, "name", (str,), at)
        shape.field(proc, "proc", (str,), at)
        for j, arg in enumerate(shape.field(proc, "args", (list,), at, [])):
            where = f"{at}.args[{j}]"
            if type(shape.check(arg, (*_VALUE, dict), where)) is dict:
                name = shape.field(arg, "object", (str,), where)
                if name not in names:
                    raise shape.error(f"unknown object {name!r}", f"{where}.object")
    return doc


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
            return description_from_python(path.read_text(), path.name, filename=str(path))
        except PyFrontError as err:
            raise DescriptionError(f"bad Python system description: {err}") from err
    if path.suffix and path.suffix != ".json":
        supported = ", ".join(sorted(PROGRAM_LANGUAGES))
        raise DescriptionError(
            f"cannot load system description {path.name!r}: unknown "
            f"extension {path.suffix!r} (expected a .json description or "
            f"a .py program; programs inside descriptions may be {supported})"
        )
    description = _DESCRIPTION.read_json(path, check_description)
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
    phase spans.  A malformed description, or one whose processes do
    not fit the program, raises :class:`DescriptionError` at the bad
    entry.
    """
    check_description(description)
    if program_source is not None:
        program = program_from_source(description.get("program", ""), program_source)
    elif base_dir is None:
        raise DescriptionError("system description has no embedded program source")
    else:
        name = _DESCRIPTION.field(description, "program", (str,), "$")
        program = load_program(pathlib.Path(base_dir) / name)

    close_cfg = description.get("close")
    if close_cfg is not None:
        spec = ClosingSpec.make(
            env_params=close_cfg.get("env_params", {}),
            env_channels=close_cfg.get("env_channels", ()),
            env_shared=close_cfg.get("env_shared", ()),
            object_bindings={
                tuple(key.split(".", 1)): objects
                for key, objects in close_cfg.get("object_bindings", {}).items()
            },
        )
        closed = close_program(
            program, spec, optimize=close_cfg.get("optimize", False), tracer=tracer
        )
        system = System(closed.cfgs)
    else:
        system = System(program)

    refs = {}
    for obj in description.get("objects", []):
        declare, param, _ = _OBJECT_KINDS[obj["kind"]]
        params = {param: obj[param]} if param in obj else {}
        refs[obj["name"]] = getattr(system, declare)(obj["name"], **params)

    for i, proc in enumerate(description.get("processes", [])):
        args = [refs[arg["object"]] if type(arg) is dict else arg for arg in proc.get("args", [])]
        try:
            system.add_process(proc["name"], proc["proc"], args)
        except ObjectError as err:
            raise DescriptionError(str(err), f"$.processes[{i}]") from None
    return system
