"""Lightweight structured telemetry for the kernel/cache/runner stack.

Three primitives, one process-global recorder:

* :func:`span` -- a context manager timing one named operation
  (``span("kernel.bfs", num_nodes=..., neighbor_source=...)``);
* :func:`add_counter` -- named increments (cache hits, store writes,
  quarantines), optionally carrying byte sizes;
* :func:`set_gauge` -- instantaneous measurements (samples/sec).

Disabled (the default) every call is a no-op costing one attribute check.
Enabled -- ``REPRO_TRACE=<path>`` in the environment or ``repro-star run
--trace PATH`` -- events append to a JSON-lines trace file that
``repro-star trace summarize`` renders into per-span aggregate tables
(count / total / p50 / p99).  See :mod:`repro.telemetry.recorder` for the
event schema and :mod:`repro.telemetry.summarize` for validation and
aggregation; :doc:`docs/observability` documents the instrumented sites.

Tracing never changes results: artifact payloads and keys are byte-identical
with tracing on or off (the standing serial-parity contract).
"""

from repro.telemetry.recorder import (
    NOOP_SPAN,
    TRACE_ENV,
    Recorder,
    add_counter,
    disable,
    emit_span,
    enable,
    refresh_from_env,
    set_gauge,
    span,
    trace_enabled,
    trace_path,
)
from repro.telemetry.summarize import (
    EVENT_TYPES,
    load_trace,
    render_summary,
    summarize_trace,
    validate_trace_events,
)

__all__ = [
    "TRACE_ENV",
    "EVENT_TYPES",
    "NOOP_SPAN",
    "Recorder",
    "span",
    "emit_span",
    "add_counter",
    "set_gauge",
    "trace_enabled",
    "trace_path",
    "enable",
    "disable",
    "refresh_from_env",
    "load_trace",
    "validate_trace_events",
    "summarize_trace",
    "render_summary",
]
