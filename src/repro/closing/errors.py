"""Errors raised by the closing transformation."""

from __future__ import annotations

from ..errors import ReproError


class ClosingError(ReproError):
    """The program violates an assumption of the closing algorithm.

    The main instance: performing a communication-object operation on an
    *environment-dependent* object (e.g. ``send(channels[input], v)``).
    The paper's model identifies operations by the object they act on;
    when the environment chooses the object, the interface cannot be
    eliminated without changing the synchronization structure, so we
    refuse rather than close unsoundly.
    """
