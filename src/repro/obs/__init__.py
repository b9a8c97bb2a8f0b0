"""Synthesis observability: span tracing, metrics, query provenance.

The legs of the layer, each usable alone:

* :mod:`repro.obs.trace` — a process-global :class:`Tracer` writing
  append-only JSONL events with nestable spans and a no-op fast path when
  disabled (the default).  Instrumentation stays in the hot path
  permanently; the *cost* of tracing is opt-in.  The same module owns
  the cross-process trace context (:func:`new_trace_id` /
  :class:`trace_context`) stamping every event of a service job with one
  correlation id across daemon, runner and worker processes.
* :mod:`repro.obs.metrics` — :data:`METRICS`, the unified registry
  absorbing the encode counters, sandboxed-worker health, budget consumption
  and trace-cache hit rates into one snapshot/delta API, plus
  fixed-boundary latency histograms (:meth:`MetricsRegistry.observe`).
* :mod:`repro.obs.flight` — the crash flight recorder: a bounded ring of
  recent events, live even when JSONL tracing is off, dumped atomically
  on poison jobs, soundness violations, crash storms and unhandled
  daemon errors.
* :mod:`repro.obs.schema` / :mod:`repro.obs.report` — the ``obs/v1``
  event contract and the post-hoc analysis behind
  ``scripts/trace_report.py``.

Layering: this package imports nothing from the rest of ``repro`` at
module scope (``metrics.snapshot`` reads ``repro.smt.counters`` lazily),
so every layer — ``runtime``, ``smt``, ``synthesis``, ``eval`` — may
instrument itself without creating a cycle.
"""

from repro.obs.flight import (
    FlightRecorder,
    active_flight,
    clear_flight,
    flight_dump,
    flight_record,
    install_flight,
)
from repro.obs.metrics import METRICS, Histogram, MetricsRegistry
from repro.obs.schema import SchemaError, validate_event, validate_trace
from repro.obs.trace import (
    Tracer,
    active_tracer,
    clear,
    current_span_id,
    current_trace_id,
    event,
    install,
    installed,
    new_trace_id,
    span,
    trace_context,
)

__all__ = [
    "Tracer",
    "active_tracer",
    "install",
    "clear",
    "installed",
    "span",
    "event",
    "current_span_id",
    "new_trace_id",
    "current_trace_id",
    "trace_context",
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "FlightRecorder",
    "install_flight",
    "clear_flight",
    "active_flight",
    "flight_record",
    "flight_dump",
    "SchemaError",
    "validate_event",
    "validate_trace",
]
