"""The library's single logging shim.

Library modules must not print raw to stderr (a served process wants its own
sinks), but the CLI must keep its visible messages.  The standard resolution:
every library diagnostic goes through a child of the ``"repro"`` logger,
whose only default handler is a :class:`logging.NullHandler` -- silent unless
the *application* opts in.  The CLI opts in at startup via
:func:`enable_stderr_logging`, whose ``[%(name)s] %(message)s`` format
prefixes each line with the emitting logger (``[repro.<module>] ...``).

No library module logs at present; the shim is the one sanctioned channel
for library diagnostics.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["LOGGER_NAME", "get_logger", "enable_stderr_logging", "disable_stderr_logging"]

#: Root logger name of the package; every library module logs to a child.
LOGGER_NAME = "repro"

_root_logger = logging.getLogger(LOGGER_NAME)
if not any(isinstance(h, logging.NullHandler) for h in _root_logger.handlers):
    _root_logger.addHandler(logging.NullHandler())

_stderr_handler: Optional[logging.Handler] = None


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The package logger, or the ``repro.<name>`` child for *name*."""
    if name is None:
        return _root_logger
    if name.startswith(LOGGER_NAME + ".") or name == LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def enable_stderr_logging(level: int = logging.INFO) -> logging.Handler:
    """Attach (once) a stderr handler to the package logger; returns it.

    Idempotent: repeated calls reuse the existing handler and only adjust its
    level.  The format matches the historical raw-print lines, so CLI users
    see exactly what they saw before the shim existed.
    """
    global _stderr_handler
    if _stderr_handler is None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
        _root_logger.addHandler(handler)
        _stderr_handler = handler
    _stderr_handler.setLevel(level)
    _root_logger.setLevel(min(level, _root_logger.level or level))
    return _stderr_handler


def disable_stderr_logging() -> None:
    """Detach the CLI stderr handler installed by :func:`enable_stderr_logging`."""
    global _stderr_handler
    if _stderr_handler is not None:
        _root_logger.removeHandler(_stderr_handler)
        _stderr_handler = None
