"""Warnings that name the line of the caller, not a line of this package."""

from __future__ import annotations

import sys
import warnings

# top-level module names whose frames a warning passes over; the __init__
# that dataclasses generates runs in the globals of the class's module
_INTERNAL = (__name__.partition(".")[0], "dataclasses")


def warn_at_caller(message: str) -> None:
    """Warn at the first frame outside this package and ``dataclasses``.

    A fixed ``stacklevel`` fits one call path only: a constructor called
    directly, through ``dataclasses.replace`` or from ``apply_overrides``
    sits at a different depth below the caller's line each time.
    """
    frame = sys._getframe(1)
    level = 2  # stacklevel 2 is the frame that called this function
    while frame.f_back is not None and _package(frame.f_globals) in _INTERNAL:
        frame = frame.f_back
        level += 1
    warnings.warn(message, stacklevel=level)


def _package(namespace: dict) -> str:
    # python -m names the module it runs __main__; its spec keeps the name
    spec = namespace.get("__spec__")
    return (namespace.get("__name__", "") if spec is None else spec.name).partition(".")[0]
