"""Structured span tracing: append-only JSONL events with span nesting.

A :class:`Tracer` writes one JSON object per line to a trace file.  Every
event carries a monotonic timestamp (``ts``), the tracer's run id
(``run``), a process-wide sequence number (``seq``) and the emitting
thread id (``tid``); span begin/end events additionally carry a span
``id`` and the ``parent`` span open on the same thread (or an explicitly
passed one, for work handed across threads).  The file is flushed per
event, so a crashed or hard-killed run still leaves a readable prefix —
the whole point of a provenance log.

Installation is process-global, mirroring ``repro.runtime.faults``: the
instrumented layers call the module-level :func:`span` / :func:`event`
helpers, which are near-free no-ops while no tracer is installed.  That
no-op fast path is the design constraint everything else bends around —
tracing must be *always available* without making the untraced hot path
measurably slower (the test suite guards this).

Span stacks are thread-local: concurrent threads (service runners,
portfolio race members) each nest their own spans correctly.  Work
submitted to another thread can pin its parent explicitly with
``span_parent=...``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid

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
    "set_flight",
    "active_flight",
]

_ACTIVE = None

#: Sentinel distinguishing "no explicit parent" from "parentless" (None).
_UNSET = object()

#: The installed flight recorder (``repro.obs.flight.FlightRecorder``) or
#: ``None``.  Lives here — not in ``flight`` — so the span/event fast
#: paths can consult it with one module-global read and ``flight`` can
#: import this module without a cycle.
_FLIGHT = None


def active_tracer():
    """The installed :class:`Tracer`, or ``None``."""
    return _ACTIVE


def install(tracer):
    global _ACTIVE
    _ACTIVE = tracer


def clear():
    global _ACTIVE
    _ACTIVE = None


def set_flight(recorder):
    """Install (or with ``None`` remove) the process flight recorder."""
    global _FLIGHT
    _FLIGHT = recorder


def active_flight():
    """The installed flight recorder, or ``None``."""
    return _FLIGHT


# -- cross-process trace context -----------------------------------------
#
# A ``traceparent``-style correlation id, minted once per service job at
# ``ServiceClient.submit`` and carried through the protocol, the job
# store, the runner and the worker wire protocols.  The context is a
# thread-local stack (nested jobs compose; the common case is depth 1);
# while a context is open, every record the :class:`Tracer` emits — and
# every flight-recorder entry — is stamped with a top-level ``trace``
# field, so one job's events can be sliced out of a multi-job, multi-
# process trace by id alone.

_CTX = threading.local()


def new_trace_id():
    """Mint a fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


def current_trace_id():
    """The innermost open trace id on this thread, or ``None``."""
    stack = getattr(_CTX, "stack", None)
    return stack[-1] if stack else None


class trace_context:
    """``with trace_context(tid):`` — stamp emitted events with ``tid``.

    A ``None``/empty id is a no-op, so call sites can pass a job's
    (possibly absent) trace id unconditionally.
    """

    __slots__ = ("_trace_id", "_pushed")

    def __init__(self, trace_id):
        self._trace_id = trace_id or None
        self._pushed = False

    def __enter__(self):
        if self._trace_id is not None:
            stack = getattr(_CTX, "stack", None)
            if stack is None:
                stack = _CTX.stack = []
            stack.append(self._trace_id)
            self._pushed = True
        return self._trace_id

    def __exit__(self, exc_type, exc, tb):
        if self._pushed:
            _CTX.stack.pop()
        return False


class _NullSpan:
    """The disabled-tracing span: a shared, allocation-free no-op."""

    __slots__ = ()
    id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class _FlightSpan:
    """Tracing-off span that still leaves one flight-recorder entry.

    Records a single ``span`` entry (with duration) on exit — half the
    ring pressure of begin/end pairs, and the recorder's consumers only
    ever read dumps, where the merged form is what you want anyway.
    """

    __slots__ = ("_flight", "_name", "_attrs", "_started")
    id = None

    def __init__(self, flight, name, attrs):
        self._flight = flight
        self._name = name
        self._attrs = attrs
        self._started = 0.0

    def __enter__(self):
        self._started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        attrs = self._attrs
        if exc_type is not None:
            attrs = dict(attrs, error=exc_type.__name__)
        self._flight.record(
            "span", self._name, attrs,
            dur=time.monotonic() - self._started,
            trace=current_trace_id(),
        )
        return False


def span(name, span_parent=_UNSET, **attrs):
    """A span context manager, or the shared no-op when tracing is off.

    The no-op path is deliberately minimal — one global read and one
    attribute return — so instrumentation can stay in hot loops
    unconditionally.  With a flight recorder installed (and no tracer)
    the span still leaves a ring entry, timed but never written to disk
    unless a dump triggers.
    """
    tracer = _ACTIVE
    if tracer is None:
        flight = _FLIGHT
        if flight is None:
            return _NULL_SPAN
        return _FlightSpan(flight, name, attrs)
    return tracer.span(name, span_parent=span_parent, **attrs)


def event(name, span_parent=_UNSET, **attrs):
    """Emit a point event on the active tracer; no-op when disabled."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.event(name, span_parent=span_parent, **attrs)
    else:
        flight = _FLIGHT
        if flight is not None:
            flight.record("event", name, attrs, trace=current_trace_id())


def current_span_id():
    """The innermost open span id on this thread, or ``None``."""
    tracer = _ACTIVE
    if tracer is None:
        return None
    return tracer.current_span_id()


class installed:
    """``with installed(tracer):`` — scope a tracer installation.

    Restores whatever was installed before, so nested scopes compose and a
    test can never leak a tracer into the next one.
    """

    def __init__(self, tracer):
        self._tracer = tracer
        self._previous = None

    def __enter__(self):
        self._previous = active_tracer()
        install(self._tracer)
        return self._tracer

    def __exit__(self, exc_type, exc, tb):
        install(self._previous)
        return False


class _Span:
    """One open span; emits begin on ``__enter__`` and end on ``__exit__``."""

    __slots__ = ("_tracer", "name", "id", "_parent", "_attrs", "_started")

    def __init__(self, tracer, name, parent, attrs):
        self._tracer = tracer
        self.name = name
        self._parent = parent
        self._attrs = attrs
        self.id = None
        self._started = 0.0

    def __enter__(self):
        tracer = self._tracer
        self.id = tracer._new_span_id()
        parent = self._parent
        if parent is _UNSET:
            parent = tracer.current_span_id()
        self._parent = parent
        tracer._push(self.id, self.name)
        self._started = time.monotonic()
        tracer._emit("span_begin", {
            "id": self.id, "parent": parent, "name": self.name,
            "attrs": self._attrs,
        })
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.monotonic() - self._started
        tracer = self._tracer
        tracer._pop(self.id)
        end_attrs = {}
        if exc_type is not None:
            end_attrs["error"] = exc_type.__name__
        tracer._emit("span_end", {
            "id": self.id, "name": self.name, "dur": duration,
            "attrs": end_attrs,
        })
        return False


class Tracer:
    """Writes structured trace events to an append-only JSONL file.

    Parameters
    ----------
    path:
        Trace file path; opened for writing (truncating) immediately, so
        an empty trace file is evidence the run died before the first
        event, not after it.
    run_id:
        Stable identifier stamped on every event; generated when omitted.
        Resumed or sharded runs can pass the same id to make their traces
        mergeable.
    """

    def __init__(self, path, run_id=None):
        self.path = os.fspath(path)
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self._file = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0
        self._span_counter = 0
        self._artifact_counter = 0
        self._artifact_dir = None
        self._local = threading.local()
        self._closed = False
        self._emit("run_begin", {"attrs": {
            "pid": os.getpid(),
            "epoch": time.time(),
            "session": f"{os.getpid()}@{os.uname().nodename}"
            if hasattr(os, "uname") else str(os.getpid()),
        }})

    # -- emission --------------------------------------------------------

    def _emit(self, kind, fields):
        record = {
            "ev": kind,
            "ts": time.monotonic(),
            "run": self.run_id,
            "tid": threading.get_ident(),
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            record["trace"] = trace_id
        record.update(fields)
        flight = _FLIGHT
        if flight is not None:
            flight.tee(record)
        line = json.dumps(record, default=str, separators=(",", ":"))
        with self._lock:
            if self._closed:
                return
            # seq is allocated under the lock (write order == seq order);
            # everything else was serialized outside it.
            self._seq += 1
            line = line[:-1] + f',"seq":{self._seq}}}'
            self._file.write(line + "\n")
            self._file.flush()

    def _new_span_id(self):
        with self._lock:
            self._span_counter += 1
            return self._span_counter

    # -- span stack (thread-local) ---------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_id, name):
        self._stack().append((span_id, name))

    def _pop(self, span_id):
        stack = self._stack()
        # Defensive: pop through anything a leaked generator left open.
        while stack:
            popped = stack.pop()
            if popped[0] == span_id:
                return

    def current_span_id(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1][0] if stack else None

    def current_span_name(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1][1] if stack else None

    # -- public API ------------------------------------------------------

    def span(self, name, span_parent=_UNSET, **attrs):
        """A context manager emitting ``span_begin``/``span_end`` events.

        ``span_parent`` overrides the thread-local parent — pass the
        originating span's id when handing work to another thread.
        """
        return _Span(self, name, span_parent, attrs)

    def event(self, name, span_parent=_UNSET, **attrs):
        """Emit a point event parented to the current (or given) span."""
        parent = span_parent
        if parent is _UNSET:
            parent = self.current_span_id()
        self._emit("event", {"name": name, "parent": parent, "attrs": attrs})

    def artifact_path(self, stem):
        """A unique path under the trace's artifact directory.

        Artifacts (counterexample VCDs, resume handles, ...) live in
        ``<trace>-artifacts/`` next to the JSONL so a trace directory can
        be archived as one unit; events reference artifacts by this path.
        """
        with self._lock:
            if self._artifact_dir is None:
                base, _ = os.path.splitext(self.path)
                self._artifact_dir = base + "-artifacts"
                os.makedirs(self._artifact_dir, exist_ok=True)
            self._artifact_counter += 1
            ordinal = self._artifact_counter
        return os.path.join(self._artifact_dir, f"{ordinal:04d}-{stem}")

    def close(self):
        with self._lock:
            if not self._closed:
                self._closed = True
                self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
