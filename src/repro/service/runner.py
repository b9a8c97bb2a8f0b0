"""Job execution: checkpointing runners and the crash-restarting supervisor.

:class:`JobRunner` executes one job end to end — build the problem from
the registry, resume from the job's on-disk handle if one survived a
crash, run the engine with a periodic checkpoint hook, and record the
terminal transition.  Every durability step happens in the safe order:
the resume handle is written crash-atomically *first*, then the
``checkpointed`` transition is journaled, so the journal never points at
a handle that does not exist.

:class:`Supervisor` owns the worker threads that drain the run queue.
A runner that raises *unexpectedly* (a bug, an injected crash — anything
other than the engine's typed degradation path) does not take the
service down: the supervisor logs the crash, requeues the job with
decorrelated-jitter backoff, and after ``max_crashes`` crashes declares
it poison (``failed-permanent``, reason ``"poisoned"``) so one bad job
cannot crash-loop the daemon forever.
"""

from __future__ import annotations

import queue
import random
import threading
import time
import traceback

from repro.obs import flight as _flight
from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.oyster import print_design
from repro.runtime.retry import RetryPolicy, decorrelated_jitter
from repro.service.problems import build_problem
from repro.synthesis import (
    MalformedResumeHandle,
    load_resume_handle,
    save_resume_handle,
    synthesize,
)

__all__ = ["JobRunner", "Supervisor"]


class JobRunner:
    """Executes one job under the store's durability contract."""

    def __init__(self, store, admission, config=None, drain_event=None,
                 stall=0.0):
        self.store = store
        self.admission = admission
        self.config = config
        self.drain_event = drain_event or threading.Event()
        #: per-checkpoint sleep (seconds) — the chaos harness uses this to
        #: make "killed mid-job with checkpoints on disk" deterministic.
        self.stall = stall

    def _load_resume(self, job):
        """The job's surviving resume handle, or ``None`` to start fresh.

        A torn/corrupt handle is not fatal: the journal is the source of
        truth for the job's existence, the handle only saves re-solving.
        """
        if not job.checkpoint_path:
            return None
        try:
            return load_resume_handle(job.checkpoint_path)
        except FileNotFoundError:
            return None
        except MalformedResumeHandle as exc:
            _METRICS.inc("service.recovery.bad_handles")
            _obs.event("service.recovery", job_id=job.job_id,
                       bad_handle=str(exc), reason=exc.reason)
            return None

    def run(self, job_id):
        """Run the job to a terminal or ``checkpointed``-for-drain state.

        Raises only on *unexpected* failure (the supervisor treats that
        as a runner crash); typed synthesis outcomes are absorbed into
        job transitions here.
        """
        job = self.store.get(job_id)
        if job.submitted_at:
            # Admission-queue wait: submission ack to runner pickup.  A
            # crash-requeued job charges again from its original
            # submission — the operator-facing truth is "how long did
            # accepted work sit unserved", retries included.
            _METRICS.observe("service.queue_wait",
                             max(0.0, time.time() - job.submitted_at))
        with _obs.trace_context(job.trace_id), \
                _obs.span("service.job", job_id=job_id, design=job.design,
                          tenant=job.tenant, mode=job.mode):
            self.store.transition(job_id, "running")
            problem = build_problem(job.design)
            resume = self._load_resume(job)
            tenant_budget = self.admission.tenant_budget(job.tenant)
            budget = tenant_budget.child(timeout=job.timeout)
            handle_path = self.store.checkpoint_path(job_id)

            def checkpoint(partial):
                # Handle first (crash-atomic), then journal: the journal
                # must never reference a handle that is not on disk.
                save_resume_handle(partial, handle_path,
                                   fsync=self.store.fsync)
                self.store.transition(
                    job_id, "checkpointed",
                    checkpoint_path=handle_path,
                    instructions_done=partial.completed_count,
                )
                if self.stall:
                    time.sleep(self.stall)
                if self.drain_event.is_set():
                    return False
                return True

            result = synthesize(
                problem, mode=job.mode, budget=budget,
                config=self.config, resume_from=resume,
                checkpoint=checkpoint, on_timeout="partial",
            )
            if not getattr(result, "is_partial", False):
                payload = {
                    "design": print_design(result.completed_design),
                    "instructions": len(problem.spec.instructions),
                }
                self.store.transition(job_id, "done", result=payload,
                                      reason="done")
                _METRICS.inc("service.jobs.done")
                return self.store.get(job_id)
            if result.reason == "drained":
                # The drain checkpoint already journaled the handle; the
                # job stays `checkpointed` and resumes on the next start.
                _METRICS.inc("service.jobs.drained")
                return self.store.get(job_id)
            self.store.transition(
                job_id, "failed", reason=result.reason,
                error=f"synthesis stopped: {result.reason} "
                      f"({result.completed_count} instruction(s) done)",
            )
            _METRICS.inc("service.jobs.failed")
            return self.store.get(job_id)


class Supervisor:
    """Worker threads + crash containment around :class:`JobRunner`.

    The queue carries job ids (the store owns the state).  ``submit``
    enqueues; worker threads run jobs; a crash requeues with backoff
    until the poison cap.  ``drain`` stops the workers at the next job
    boundary and lets in-flight jobs stop at their next checkpoint.
    """

    def __init__(self, store, runner, threads=1, max_crashes=3,
                 retry_policy=None):
        self.store = store
        self.runner = runner
        self.max_crashes = max_crashes
        self.retry_policy = retry_policy or RetryPolicy()
        self._queue = queue.Queue()
        self._rng = random.Random(self.retry_policy.seed)
        self._stop = threading.Event()
        self._previous_backoff = 0.0
        self._timers = []         # pending delayed requeues
        self._timer_lock = threading.Lock()
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"service-runner-{i}")
            for i in range(max(1, threads))
        ]
        self._started = False
        #: wall-clock time of the most recent runner crash (health op).
        self.last_crash_at = None

    def start(self):
        if not self._started:
            self._started = True
            for thread in self._threads:
                thread.start()

    def submit(self, job_id):
        self._queue.put(job_id)

    def pending(self):
        return self._queue.unfinished_tasks

    def alive_threads(self):
        """How many worker threads are still running (health op)."""
        return sum(1 for thread in self._threads if thread.is_alive())

    def _worker(self):
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            try:
                self._run_one(job_id)
            finally:
                self._queue.task_done()

    def _run_one(self, job_id):
        job = self.store.get(job_id)
        if job is None or job.terminal:
            return
        try:
            self.runner.run(job_id)
        except Exception as exc:  # noqa: BLE001 - crash containment
            try:
                self._on_crash(job_id, exc)
            except Exception as handler_exc:  # noqa: BLE001
                # The crash handler is the last line of containment: if
                # it raises, the worker thread dies and (threads=1) the
                # daemon silently stops draining the queue.  Log, leave
                # the job interrupted (the next start re-admits it).
                _METRICS.inc("service.runner.crash_handler_errors")
                _obs.event("service.job", job_id=job_id,
                           crash_handler_error=str(handler_exc))

    def _on_crash(self, job_id, exc):
        """Contain a runner crash: requeue with backoff, or poison.

        Must not propagate — the store calls below journal transitions
        and can themselves fault (e.g. an injected journal fault crashed
        the runner in the first place).  A requeue whose transition could
        not be journaled still requeues: the in-memory state is
        unchanged and the self-edges in the job state machine make the
        re-run legal.
        """
        job = self.store.get(job_id)
        if job is None:
            return
        with _obs.trace_context(job.trace_id):
            self._contain_crash(job, exc)

    def _contain_crash(self, job, exc):
        job_id = job.job_id
        crashes = job.crashes + 1
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        self.last_crash_at = time.time()
        _METRICS.inc("service.runner.crashes")
        _obs.event("service.job", job_id=job_id, crash=detail,
                   crashes=crashes)
        if job.terminal:
            return
        if crashes >= self.max_crashes:
            # Poison is a post-mortem moment by definition: the ring
            # holds the crash-looping job's last attempts.  Dump before
            # the verdict, which wakes the job's waiters: a client that
            # sees ``failed-permanent`` must find the dump.
            _flight.flight_dump(f"poison-{job_id}")
            try:
                self.store.transition(
                    job_id, "failed-permanent", crashes=crashes,
                    reason="poisoned",
                    error=f"poison job: runner crashed {crashes} "
                          f"time(s), last: {detail}",
                )
                _METRICS.inc("service.jobs.poisoned")
            except Exception as store_exc:  # noqa: BLE001
                # The poison verdict could not be made durable; park the
                # job (still interrupted, re-admitted on next start)
                # rather than kill the worker or retry past the cap.
                _METRICS.inc("service.runner.crash_handler_errors")
                _obs.event("service.job", job_id=job_id,
                           crash_handler_error=str(store_exc))
            return
        pause = decorrelated_jitter(
            self._rng, self.retry_policy.backoff,
            self.retry_policy.backoff_ceiling, self._previous_backoff,
        )
        self._previous_backoff = pause
        try:
            self.store.transition(job_id, "accepted", crashes=crashes,
                                  reason="requeued", error=detail)
        except Exception as store_exc:  # noqa: BLE001
            _METRICS.inc("service.runner.crash_handler_errors")
            _obs.event("service.job", job_id=job_id,
                       crash_handler_error=str(store_exc))
        _METRICS.inc("service.runner.requeues")
        self._requeue_later(job_id, pause)

    def _requeue_later(self, job_id, pause):
        """Requeue after the backoff without blocking a worker thread.

        Sleeping the backoff on the worker would stall every other job
        (with the default single worker, the whole daemon); a timer
        re-enqueues instead.  A timer still pending at drain is
        cancelled — the job stays ``accepted`` and the next start
        re-admits it.
        """
        if not pause or pause <= 0:
            self._queue.put(job_id)
            return
        timer = threading.Timer(pause, self._queue.put, args=(job_id,))
        timer.daemon = True
        with self._timer_lock:
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)
        timer.start()

    def drain(self, timeout=30.0):
        """Stop pulling new jobs; wait for in-flight runners to park.

        In-flight jobs stop at their next engine checkpoint (the runner's
        drain event makes the checkpoint callback return ``False``);
        queued-but-unstarted jobs simply stay ``accepted``.  Both resume
        on the next daemon start.
        """
        self._stop.set()
        with self._timer_lock:
            for timer in self._timers:
                timer.cancel()
            self._timers = []
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            if not thread.is_alive():
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(remaining)
        return all(not thread.is_alive() for thread in self._threads)
