"""The process-global trace recorder: spans, counters and gauges.

The stack makes many silent runtime decisions -- neighbour source
selection, chunk sizing, table tiers, artifact cache hits, shard
retries -- and this module is how they become visible.  Instrumented sites
call :func:`span` / :func:`add_counter` / :func:`set_gauge`; with tracing
disabled (the default) each call costs **one attribute check** and returns a
shared no-op object, so the hot kernels pay nothing measurable.  With tracing
enabled (``REPRO_TRACE=<path>`` or :func:`enable`) every event is appended to
a JSON-lines trace file, one object per line.

Event schema (validated by :func:`repro.telemetry.summarize.validate_trace_events`)::

    {"event": "span",    "name": ..., "seconds": float, "ts": float,
     "pid": int, "attrs": {...}}
    {"event": "counter", "name": ..., "value": number, "ts": float,
     "pid": int, "attrs": {...}}
    {"event": "gauge",   "name": ..., "value": number, "ts": float,
     "pid": int, "attrs": {...}}

Writes go through one ``os.write`` per event on a file descriptor opened with
``O_APPEND``, so concurrent processes -- the sharded runner's pool workers
inherit ``REPRO_TRACE`` and append to the same file -- interleave whole lines,
never fragments.  Events carry the writing ``pid`` so a shard timeline can be
reconstructed per worker.

Tracing is **observation only**: no instrumented site changes behaviour when
the recorder is enabled, and nothing telemetry produces ever reaches an
artifact payload -- ``build_payload`` output and ``artifact_key`` are
byte-identical with tracing on or off (the standing serial-parity contract,
held by ``tests/telemetry/test_trace_sites.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional

__all__ = [
    "TRACE_ENV",
    "Recorder",
    "span",
    "add_counter",
    "set_gauge",
    "emit_span",
    "trace_enabled",
    "trace_path",
    "enable",
    "disable",
    "refresh_from_env",
]

#: Environment variable naming the JSONL trace file; set it (or pass
#: ``repro-star run --trace PATH``) to turn the recorder on.  Worker
#: processes inherit it, so one sharded run traces into one file.
TRACE_ENV = "REPRO_TRACE"


def _json_safe_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce attribute values to JSON-encodable scalars (best effort).

    Attributes are diagnostics, not data: NumPy scalars become Python
    numbers, everything else non-encodable becomes its ``str``.  Events must
    never raise out of an instrumented site.
    """
    safe: Dict[str, object] = {}
    for key, value in attrs.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            safe[key] = value
        elif hasattr(value, "item"):  # NumPy scalar
            try:
                safe[key] = value.item()
            except (AttributeError, ValueError):  # pragma: no cover
                safe[key] = str(value)
        else:
            safe[key] = str(value)
    return safe


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    started = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, **attrs) -> "_NoopSpan":
        return self


#: The singleton no-op span: stateless, so concurrent/nested use is safe and
#: the disabled path allocates nothing.
NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: times its ``with`` block and emits one event at exit."""

    __slots__ = ("_recorder", "name", "attrs", "started")

    def __init__(self, recorder: "Recorder", name: str, attrs: Dict[str, object]):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self.started = 0.0

    def __enter__(self) -> "_Span":
        self.started = time.perf_counter()
        return self

    def add(self, **attrs) -> "_Span":
        """Attach further attributes discovered while the span runs."""
        self.attrs.update(attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self.started
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._recorder.emit(
            {
                "event": "span",
                "name": self.name,
                "seconds": round(seconds, 9),
                "ts": time.time(),
                "pid": os.getpid(),
                "attrs": _json_safe_attrs(self.attrs),
            }
        )
        return False


class Recorder:
    """Appends trace events to a JSONL file; inert until :meth:`configure`.

    ``enabled`` is a plain attribute so the disabled fast path in
    :func:`span` / :func:`add_counter` / :func:`set_gauge` is a single
    attribute load -- no method call, no environment read.
    """

    __slots__ = ("enabled", "_path", "_fd", "_lock", "_fd_pid")

    def __init__(self) -> None:
        self.enabled = False
        self._path: Optional[str] = None
        self._fd: Optional[int] = None
        self._fd_pid: Optional[int] = None
        self._lock = threading.Lock()

    @property
    def path(self) -> Optional[str]:
        """The trace file path, or ``None`` while disabled."""
        return self._path

    def configure(self, path: Optional[str]) -> None:
        """Point the recorder at *path* (enable) or ``None`` (disable)."""
        with self._lock:
            self._close_locked()
            self._path = str(path) if path else None
            self.enabled = self._path is not None

    def _close_locked(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover - already closed by the OS
                pass
            self._fd = None
            self._fd_pid = None

    def _descriptor_locked(self) -> int:
        # One O_APPEND descriptor per (process, path): forked pool workers
        # must not share the parent's descriptor object state, so the fd is
        # reopened when the pid changes.
        pid = os.getpid()
        if self._fd is None or self._fd_pid != pid:
            self._fd = os.open(
                self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._fd_pid = pid
        return self._fd

    def emit(self, event: Dict[str, object]) -> None:
        """Append one event as a single JSON line (atomic ``O_APPEND`` write)."""
        if not self.enabled:
            return
        line = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            if not self.enabled:  # pragma: no cover - disabled mid-flight
                return
            try:
                os.write(self._descriptor_locked(), line.encode("utf-8"))
            except OSError:  # pragma: no cover - tracing must never kill work
                self.enabled = False


#: The process-global recorder every instrumented site reports to.
_RECORDER = Recorder()


def span(name: str, **attrs) -> object:
    """A context manager timing one named operation.

    Disabled (the default): returns the shared :data:`NOOP_SPAN` after one
    attribute check.  Enabled: returns a live span that emits one ``span``
    event (name, duration, attributes) when its ``with`` block exits.  Use
    ``sp.add(key=value)`` inside the block for attributes only known at the
    end (gate any *expensive* attribute computation on
    :func:`trace_enabled`).
    """
    if not _RECORDER.enabled:
        return NOOP_SPAN
    return _Span(_RECORDER, name, attrs)


def add_counter(name: str, value: float = 1, **attrs) -> None:
    """Record a named increment (cache hit, write, quarantine, ...).

    Byte sizes and similar magnitudes ride along as attributes (``bytes=``);
    the summariser totals both the values and any numeric ``bytes`` attr.
    """
    if not _RECORDER.enabled:
        return
    _RECORDER.emit(
        {
            "event": "counter",
            "name": name,
            "value": value,
            "ts": time.time(),
            "pid": os.getpid(),
            "attrs": _json_safe_attrs(attrs),
        }
    )


def set_gauge(name: str, value: float, **attrs) -> None:
    """Record a named instantaneous measurement (samples/sec, ...)."""
    if not _RECORDER.enabled:
        return
    _RECORDER.emit(
        {
            "event": "gauge",
            "name": name,
            "value": value,
            "ts": time.time(),
            "pid": os.getpid(),
            "attrs": _json_safe_attrs(attrs),
        }
    )


def emit_span(name: str, seconds: float, **attrs) -> None:
    """Record a span whose duration was measured by the caller.

    For sites that already track wall-clock themselves (the sharded runner's
    per-shard timings) and for lifecycle events with no natural ``with``
    block (a shard retry).
    """
    if not _RECORDER.enabled:
        return
    _RECORDER.emit(
        {
            "event": "span",
            "name": name,
            "seconds": round(float(seconds), 9),
            "ts": time.time(),
            "pid": os.getpid(),
            "attrs": _json_safe_attrs(attrs),
        }
    )


def trace_enabled() -> bool:
    """Whether the process-global recorder is currently writing a trace."""
    return _RECORDER.enabled


def trace_path() -> Optional[str]:
    """The active trace file path, or ``None`` while disabled."""
    return _RECORDER.path


def enable(path) -> None:
    """Start appending trace events to *path* (parent directories must exist)."""
    _RECORDER.configure(str(path))


def disable() -> None:
    """Stop tracing; the trace file (if any) is left on disk."""
    _RECORDER.configure(None)


def refresh_from_env() -> None:
    """Re-read ``REPRO_TRACE`` and reconfigure the recorder accordingly.

    Called at import (so pool workers pick the knob up automatically) and by
    the CLI after it exports ``--trace`` into the environment.
    """
    _RECORDER.configure(os.environ.get(TRACE_ENV, "").strip() or None)


refresh_from_env()
