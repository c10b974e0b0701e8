"""JSON documents: one reader and one set of shape checks for every format.

The tool loads four JSON formats: system descriptions
(:mod:`repro.sysdesc`), counterexample traces
(:mod:`repro.counterex.traceio`), frontier checkpoints
(:mod:`repro.service.frontier`) and run manifests
(:mod:`repro.obs.report`).  Each format names its :class:`FormatError`
subclass once, in its :class:`Shape`.  The shape's checks raise that
class at the JSON path of the bad entry (``$.choices[3][2]: expected
int, got str``), and :meth:`Shape.read_json` refuses a file that cannot
be read or is not UTF-8 JSON and puts the file name before any error.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable

from .errors import ReproError

#: The JSON type of ``null``, for the ``kinds`` of a check.
NULL = type(None)
#: The ``default`` of a key that must be present.
REQUIRED = object()


class FormatError(ReproError, ValueError):
    """A JSON document that cannot be read or is not of its format's
    shape.  ``location`` is the JSON path of the bad entry, if any; the
    message starts with it, after the file name when the document was
    read from a file."""

    #: The file the document came from, set by :meth:`Shape.read_json`.
    file: pathlib.Path | None = None

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.file is None else f"{self.file}: {message}"


def _type_name(kind: type) -> str:
    return "null" if kind is NULL else kind.__name__


class Shape:
    """The shape checks of one document format; each raises ``error``,
    the format's :class:`FormatError` subclass."""

    def __init__(self, error: type[FormatError]):
        self.error = error

    def check(self, value: Any, kinds: tuple[type, ...], path: str) -> Any:
        """``value``, if its JSON type is one of ``kinds`` (``bool``
        does not pass for ``int``)."""
        if type(value) not in kinds:
            expected = " or ".join(map(_type_name, kinds))
            raise self.error(f"expected {expected}, got {_type_name(type(value))}", path)
        return value

    def field(
        self, doc: dict, key: str, kinds: tuple[type, ...], path: str, default: Any = REQUIRED
    ) -> Any:
        """``doc[key]``, type-checked; ``default`` when the key is
        absent, unless it is :data:`REQUIRED`."""
        if key not in doc:
            if default is REQUIRED:
                raise self.error(f"missing key {key!r}", path)
            return default
        return self.check(doc[key], kinds, f"{path}.{key}")

    def items(self, payload: Any, kinds: tuple[type, ...], path: str) -> list:
        """A JSON list whose entries all have one of ``kinds``."""
        for i, value in enumerate(self.check(payload, (list,), path)):
            self.check(value, kinds, f"{path}[{i}]")
        return payload

    def row(self, payload: Any, kinds: tuple[tuple[type, ...], ...], path: str) -> tuple:
        """A fixed-length JSON list whose entries have the given types."""
        if len(self.check(payload, (list,), path)) != len(kinds):
            raise self.error(f"expected {len(kinds)} entries, got {len(payload)}", path)
        return tuple(
            self.check(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(payload, kinds))
        )

    def read_json(self, path: str | pathlib.Path, decode: Callable[[Any], Any]) -> Any:
        """``decode`` of the JSON document in the file at ``path``.

        A file that cannot be read, is not UTF-8 or is not JSON raises
        ``error``; every :class:`FormatError`, these and the ones
        ``decode`` raises, names the file."""
        path = pathlib.Path(path)
        try:
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except OSError as err:
                raise self.error(f"cannot read: {err.strerror or err}") from err
            except (ValueError, RecursionError) as err:
                raise self.error(f"not valid JSON: {err}") from err
            return decode(doc)
        except FormatError as err:
            err.file = path
            raise
