"""``SynthesisService``: the long-lived, crash-safe synthesis daemon.

The service composes the layer below into one process:

* a :class:`~repro.service.store.JobStore` (WAL + snapshots) so a
  ``kill -9`` at any instant loses no *accepted* job;
* an :class:`~repro.service.admission.AdmissionController` so overload
  produces typed backpressure instead of an unbounded queue;
* a :class:`~repro.service.runner.Supervisor` of checkpointing runners
  with crash containment and poison-job detection;
* idempotency keys doubling as a content-addressed result cache.

Lifecycle::

    service = SynthesisService(state_dir)
    service.start()        # replay journal, re-admit interrupted jobs
    service.serve(...)     # JSON-lines over a Unix or TCP socket
    service.shutdown()     # graceful: drain, checkpoint, flush, park

``start`` is where kill-resume recovery happens: the store's replay
reports every job a previous incarnation stranded in ``accepted``,
``running`` or ``checkpointed``; the service moves the latter two back to
``accepted`` (their resume handles survive on ``checkpoint_path``) and
requeues all of them, so the restarted daemon finishes exactly the work
the dead one owed.

``SIGTERM`` and ``SIGINT`` both trigger the same graceful drain: stop
admitting (``"draining"`` rejections), let in-flight runners stop at
their next engine checkpoint, flush the journal, exit.  The engine's own
SIGTERM degradation (PR satellite) covers the *non*-service path; here
the drain event reaches runners through their checkpoint callbacks
because jobs execute on worker threads where signals never arrive.
"""

from __future__ import annotations

import itertools
import os
import signal
import socket
import threading
import time

from repro.obs import flight as _flight
from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.service.admission import AdmissionController
from repro.service.jobs import INTERRUPTED_STATES, Job
from repro.service.problems import build_problem, idempotency_key
from repro.service.protocol import (
    encode_line,
    error_response,
    ok_response,
    read_lines,
)
from repro.service.runner import JobRunner, Supervisor
from repro.service.store import JobStore

__all__ = ["SynthesisService"]


class SynthesisService:
    """The synthesis daemon: durable jobs, admission control, recovery."""

    def __init__(self, state_dir, config=None, threads=1,
                 max_queue_depth=32, max_active_per_tenant=8,
                 tenant_conflict_cap=None, max_crashes=3, fsync=True,
                 stall=0.0, compact_every=256, retry_policy=None):
        self.config = config
        self.store = JobStore(state_dir, fsync=fsync,
                              compact_every=compact_every)
        self.admission = AdmissionController(
            max_queue_depth=max_queue_depth,
            max_active_per_tenant=max_active_per_tenant,
            tenant_conflict_cap=tenant_conflict_cap,
        )
        self.drain_event = threading.Event()
        self.runner = JobRunner(self.store, self.admission, config=config,
                                drain_event=self.drain_event, stall=stall)
        self.supervisor = Supervisor(self.store, self.runner,
                                     threads=threads,
                                     max_crashes=max_crashes,
                                     retry_policy=retry_policy)
        self.recovery_report = None
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        # One submission commits at a time: the dedup lookup, admission
        # decision and durable store.submit must be atomic against
        # concurrent connection threads, or two submissions with the
        # same idempotency key can both miss the dedup check (duplicate
        # solving) and queue/tenant caps can be overshot.
        self._submit_lock = threading.Lock()
        self._serve_stop = threading.Event()
        self._started = False
        # The flight recorder is the always-on half of observability: it
        # captures recent spans/events even with JSONL tracing off, and
        # is dumped on poison verdicts, crash storms and unhandled
        # daemon errors.  Installing replaces any prior recorder — one
        # daemon, one ring.
        self.flight = _flight.install_flight(
            dump_dir=os.path.join(self.store.state_dir, "flight"))

    # -- lifecycle -------------------------------------------------------

    def start(self):
        """Open the store, replay the journal, re-admit stranded jobs."""
        with _obs.span("service.recovery"):
            report = self.store.open()
            self.supervisor.start()
            requeued = 0
            for job in self.store.interrupted():
                if job.state in ("running", "checkpointed"):
                    self.store.transition(job.job_id, "accepted",
                                          reason="recovered")
                    _METRICS.inc("service.recovery.requeued")
                self.supervisor.submit(job.job_id)
                requeued += 1
            report["requeued"] = requeued
        self.recovery_report = report
        self._started = True
        return report

    def shutdown(self, timeout=30.0):
        """Graceful drain: reject new work, park runners, flush, close.

        In-flight jobs stop at their next checkpoint (state
        ``checkpointed``, handle on disk); queued jobs stay ``accepted``;
        both complete on the next ``start``.  Returns ``True`` when every
        runner parked within ``timeout``.
        """
        self.drain_event.set()
        self._serve_stop.set()
        parked = self.supervisor.drain(timeout=timeout)
        self.store.close()
        _obs.event("service.recovery", shutdown=True, parked=parked,
                   states=str(sorted(self.store.counts().items())))
        _METRICS.inc("service.shutdowns")
        return parked

    # -- the service API -------------------------------------------------

    def _new_job_id(self):
        with self._lock:
            serial = next(self._counter)
        return f"job-{serial:05d}-{os.urandom(3).hex()}"

    def _queue_depth(self):
        counts = self.store.counts()
        return sum(counts.get(state, 0) for state in INTERRUPTED_STATES)

    def submit(self, design, mode="per_instruction", tenant="default",
               timeout=None, trace_id=None):
        """Admit one job; returns an ack dict the caller may rely on.

        The ack is sent only after the job's record is durable in the
        journal — a :class:`JournalFault` propagates instead, and by the
        WAL contract the job was then never accepted.

        ``trace_id`` is the client-minted cross-process trace context;
        one is minted here when the caller did not send one, so every
        accepted job carries a correlation id.  It is persisted on the
        job record — a restarted daemon resumes the job under the *same*
        trace id, which is what makes a kill-resume job one trace.
        """
        trace_id = trace_id or _obs.new_trace_id()
        with _obs.trace_context(trace_id):
            problem = build_problem(design)  # typed rejection if unknown
            key = idempotency_key(problem, mode=mode, config=self.config)
            with self._submit_lock:
                cached = self.store.cached_result(key)
                if cached is not None:
                    _METRICS.inc("service.cache.hits")
                    _obs.event("service.admission", decision="cache-hit",
                               job_id=cached.job_id, tenant=tenant)
                    return {"job_id": cached.job_id, "state": "done",
                            "cached": True, "result": cached.result,
                            "trace_id": cached.trace_id or trace_id}
                live = self.store.find_by_key(key)
                if live is not None:
                    _METRICS.inc("service.cache.joined")
                    return {"job_id": live.job_id, "state": live.state,
                            "cached": False, "deduplicated": True,
                            "trace_id": live.trace_id or trace_id}
                job = Job(job_id=self._new_job_id(), design=design,
                          mode=mode, tenant=tenant, timeout=timeout,
                          idempotency_key=key, submitted_at=time.time(),
                          trace_id=trace_id)
                self.admission.admit(
                    job, queue_depth=self._queue_depth(),
                    tenant_active=self.store.active_for_tenant(tenant),
                    draining=self.drain_event.is_set(),
                )
                self.store.submit(job)  # durability point: ack past here
            self.supervisor.submit(job.job_id)
            return {"job_id": job.job_id, "state": "accepted",
                    "cached": False, "trace_id": trace_id}

    def status(self, job_id):
        job = self.store.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        view = job.public_view()
        if job.state == "done" and job.result is not None:
            view["result"] = job.result
        return view

    def wait(self, job_id, timeout=120.0):
        """Block until the job is terminal (or ``timeout`` elapses).

        Wakes on the store's terminal transition; after ``timeout`` the
        current view comes back with ``timed_out: True``.
        """
        job = self.store.wait_terminal(job_id, timeout)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.terminal:
            return self.status(job_id)
        view = job.public_view()
        view["timed_out"] = True
        return view

    def stats(self):
        counts = self.store.counts()
        return {
            "jobs": counts,
            "queue_depth": self._queue_depth(),
            "draining": self.drain_event.is_set(),
            "recovery": self.recovery_report,
        }

    def telemetry(self):
        """The live metrics surface: snapshot + flight recorder status."""
        return {
            "metrics": _METRICS.snapshot(),
            "flight": {
                "entries": len(self.flight),
                "capacity": self.flight.capacity,
                "dumps": len(self.flight.dumps),
            },
        }

    def health(self):
        """Typed health checks; ``status`` is ``ok`` or ``degraded``.

        Each check is independently ``ok``-flagged so an operator (or
        the chaos harness) can gate on exactly the property it cares
        about — e.g. ``recovery.requeued`` after a kill -9 restart.
        """
        checks = {}
        checks["journal"] = self.store.journal_health()
        depth = self._queue_depth()
        cap = self.admission.max_queue_depth
        checks["queue"] = {"ok": depth <= cap, "depth": depth, "cap": cap}
        alive = self.supervisor.alive_threads()
        total = len(self.supervisor._threads)
        draining = self.drain_event.is_set()
        checks["supervisor"] = {
            "ok": draining or alive == total,
            "alive": alive,
            "threads": total,
        }
        last_crash = self.supervisor.last_crash_at
        age = None if last_crash is None else round(
            time.time() - last_crash, 3)
        checks["last_crash"] = {
            # A runner crash in the last minute means the daemon is
            # likely still crash-looping something: degraded, not down.
            "ok": age is None or age >= 60.0,
            "age_seconds": age,
            "crashes": _METRICS.get("service.runner.crashes"),
        }
        report = self.recovery_report or {}
        checks["recovery"] = {
            "ok": self._started,
            "requeued": report.get("requeued", 0),
            "replayed": report.get("replayed", 0),
            "torn_tail": report.get("torn_tail", False),
        }
        checks["flight"] = {
            "ok": True,
            "entries": len(self.flight),
            "dumps": len(self.flight.dumps),
        }
        status = "ok" if all(c["ok"] for c in checks.values()) \
            else "degraded"
        return {"status": status, "checks": checks, "draining": draining}

    # -- protocol --------------------------------------------------------

    def handle_request(self, request):
        """One request dict in, one response dict out (never raises).

        Every request runs under a ``service.request`` span (inside the
        client's trace context when the request carried one) and charges
        its wall time to the ``service.request`` and
        ``service.request.<op>`` latency histograms.  An error the
        taxonomy calls ``service.internal`` — a daemon bug, not a typed
        rejection — additionally dumps the flight recorder.
        """
        op = request.get("op")
        op_name = op if isinstance(op, str) else "invalid"
        trace_id = request.get("trace")
        if not isinstance(trace_id, str):
            trace_id = None
        started = time.monotonic()
        try:
            with _obs.trace_context(trace_id), \
                    _obs.span("service.request", op=op_name):
                try:
                    return self._dispatch(op, request)
                except Exception as exc:  # noqa: BLE001 - protocol boundary
                    response = error_response(exc)
                    if response["error"]["type"] == "service.internal":
                        _METRICS.inc("service.request.internal_errors")
                        _flight.flight_dump(f"daemon-error-{op_name}")
                    return response
        finally:
            wall = time.monotonic() - started
            _METRICS.observe("service.request", wall)
            _METRICS.observe(f"service.request.{op_name}", wall)

    def _dispatch(self, op, request):
        if op == "ping":
            return ok_response(pong=True, started=self._started)
        if op == "submit":
            return ok_response(**self.submit(
                request["design"],
                mode=request.get("mode", "per_instruction"),
                tenant=request.get("tenant", "default"),
                timeout=request.get("timeout"),
                trace_id=request.get("trace"),
            ))
        if op == "status":
            return ok_response(job=self.status(request["job_id"]))
        if op == "wait":
            return ok_response(job=self.wait(
                request["job_id"],
                timeout=float(request.get("timeout", 120.0)),
            ))
        if op == "stats":
            return ok_response(**self.stats())
        if op == "telemetry":
            return ok_response(**self.telemetry())
        if op == "health":
            return ok_response(**self.health())
        if op == "shutdown":
            # Ack first; the drain happens after the response flushes.
            threading.Thread(target=self.shutdown, daemon=True).start()
            return ok_response(draining=True)
        raise ValueError(f"unknown op {op!r}")

    # -- serving ---------------------------------------------------------

    def _bind(self, socket_path=None, host=None, port=None):
        if socket_path is not None:
            try:
                os.unlink(socket_path)
            except FileNotFoundError:
                pass
            server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            server.bind(socket_path)
        else:
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((host or "127.0.0.1", port or 0))
        server.listen(16)
        server.settimeout(0.2)
        return server

    def _handle_connection(self, conn):
        try:
            with conn, conn.makefile("rb") as reader:
                for request in read_lines(reader):
                    response = self.handle_request(request)
                    conn.sendall(encode_line(response))
        except (ValueError, OSError) as exc:
            _obs.event("service.admission", connection_error=str(exc))

    def serve(self, socket_path=None, host=None, port=None,
              install_signals=True, ready=None):
        """Accept JSON-lines connections until shutdown.

        ``ready`` (optional callable) receives the bound address once the
        socket is listening — the smoke/chaos harnesses use it to learn
        an ephemeral TCP port.  With ``install_signals`` (main thread
        only), SIGTERM and SIGINT both trigger the graceful drain.
        """
        if not self._started:
            self.start()
        server = self._bind(socket_path=socket_path, host=host, port=port)
        if install_signals and \
                threading.current_thread() is threading.main_thread():
            def _graceful(signum, frame):
                self.drain_event.set()
                self._serve_stop.set()
            signal.signal(signal.SIGTERM, _graceful)
            signal.signal(signal.SIGINT, _graceful)
        if ready is not None:
            ready(server.getsockname())
        handlers = []
        try:
            while not self._serve_stop.is_set():
                try:
                    conn, _addr = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._handle_connection, args=(conn,),
                    daemon=True,
                )
                thread.start()
                handlers.append(thread)
        finally:
            server.close()
            if socket_path is not None:
                try:
                    os.unlink(socket_path)
                except FileNotFoundError:
                    pass
            self.shutdown()
