"""The base of every typed refusal: :class:`ReproError`."""

from __future__ import annotations


class ReproError(Exception):
    """Input the tool refuses, with the reason: a program the front
    ends, the CFG builder or the closing refuse, a JSON document not of
    its format, a counterexample that does not shrink.

    ``location``, when known, says where: a source position
    (``line:col``) or the JSON path of a document entry.  The message
    starts with it."""

    def __init__(self, message: str, location: object = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location
