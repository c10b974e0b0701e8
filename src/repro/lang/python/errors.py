"""Diagnostics of the Python front end.

Every rejection of an out-of-subset construct raises
:class:`PyFrontError` carrying the offending ``file:line:column`` — the
front end *never* silently miscompiles: a program either lifts exactly
or fails loudly with an actionable, source-anchored message.  The
rejection tests (``tests/pyfront/test_errors.py``) enumerate one
program per diagnostic and assert both the anchor and the hint.
"""

from __future__ import annotations

from ..errors import SYNTHETIC, LangError, SourceLocation

__all__ = ["PyFrontError", "location_of"]


class PyFrontError(LangError):
    """The Python front end met a construct outside the lifted subset
    (or a malformed use of the runtime vocabulary).

    The message is prefixed ``file:line:column:`` whenever the
    offending node is known, so editors and CI logs can jump straight
    to the Python source line.
    """

    def __init__(
        self,
        message: str,
        location: SourceLocation | None = None,
        filename: str | None = None,
    ):
        where = None if location == SYNTHETIC else location
        prefix = ":".join(str(part) for part in (filename, where) if part)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.location = location
        self.filename = filename


def location_of(node) -> SourceLocation:
    """The :class:`SourceLocation` of a ``ast`` (CPython) node.

    CPython reports 0-based columns; RC locations are 1-based.  Nodes
    without position info (rare synthetic ones) map to ``SYNTHETIC``.
    """
    line = getattr(node, "lineno", None)
    if line is None:
        return SYNTHETIC
    return SourceLocation(line, getattr(node, "col_offset", 0) + 1)
