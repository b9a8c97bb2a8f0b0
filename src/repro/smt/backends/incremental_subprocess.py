"""The incremental-subprocess backend: the sandboxed solver backend.

A check that runs here cannot take the engine down with it: each
``Solver`` gets ONE long-lived child process (``python -m
repro.runtime.incremental_worker``) hosting a persistent ``SatSolver``
under rlimit caps.  Clauses stream over the wire once as the facade
encodes them, and every check is an assumption solve against the
accumulated state, so learned clauses and trail reuse survive across
checks exactly as they do in-process.  ``supports_incremental`` is true:
the facade makes this backend its encoding core and the engine process
never holds the clause database.

Containment, from the child outwards:

* **Sandbox.**  ``RLIMIT_DATA``/``RLIMIT_CPU`` caps are applied in the
  child before the first clause arrives; a memory blow-up breaches the
  *child's* rlimit and it exits with ``EXIT_OOM``.
* **Watchdog.**  The child beats while it solves; the await loop in
  :meth:`IncrementalSubprocessBackend.check` kills a child that stays
  silent for ``watchdog_grace`` heartbeat intervals or overshoots the
  check's deadline by as much.
* **Replay.**  The parent mirrors every clause it has sent (plain int
  lists — cheap next to the child's watcher structures), so a crashed,
  hung or OOM-killed child is replayed into a fresh process on the next
  check.  The check that saw the fault reports a classified ``unknown``
  and the retry machinery above the facade re-asks.
* **Circuit breaker.**  After :data:`BREAKER_THRESHOLD` consecutive
  faulted checks the backend stops spawning children: it replays the
  mirror into an in-process core once and answers there from then on.

Deaths are classified into the canonical reasons
(``repro.runtime.reasons``):

========================  ==================  =========
observation               reason              retryable
========================  ==================  =========
exit ``EXIT_OOM``         ``worker-oom``      yes
death by ``SIGXCPU``      ``worker-cpu``      no
any other death           ``worker-crashed``  yes
watchdog: silent child    ``heartbeat-lost``  yes
watchdog: past deadline   ``deadline``        no
========================  ==================  =========

Every child is reaped with its owner: when the backend is garbage
collected, when :meth:`IncrementalSubprocessBackend.close` runs, and at
the end of any :func:`reap_children` block it was spawned in (the engine
wraps each synthesis run in one).  Health lands in
:data:`repro.obs.metrics.METRICS` under ``worker.*`` (spawned, reaped,
requests, crashes, watchdog kills, fallbacks, crash storms), with
``worker.death``/``worker.killed``/``worker.fallback`` obs events, and a
burst of deaths dumps the flight recorder.

Literals on the wire are the core's internal encoding (``2*var``,
``2*var + 1``); the parent allocates variable ids and the child follows
via ``alloc``, so both sides agree by construction.  See
``repro.runtime.incremental_worker`` for the line protocol.

``command=`` (argv list or string) overrides the spawned command — how
the differential tests run the wire protocol against the scripted fake
solver — and the ``REPRO_INCREMENTAL_WORKER`` environment variable does
the same process-wide.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import sys
import threading
import time
import weakref
from contextlib import contextmanager
from queue import Empty, Queue

import repro
from repro.obs import flight as _flight
from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.runtime import faults as _faults
from repro.runtime.incremental_worker import EXIT_OOM
from repro.smt.backends.base import BackendResult, CheckLimits, SolverBackend
from repro.smt.backends.inprocess import InProcessBackend

__all__ = ["IncrementalSubprocessBackend", "WORKER_ENV", "reap_children"]

#: Environment variable overriding the worker command (shell-split).
WORKER_ENV = "REPRO_INCREMENTAL_WORKER"

#: Consecutive faulted checks after which a backend answers in-process.
BREAKER_THRESHOLD = 2

#: This many child deaths inside :data:`STORM_WINDOW` seconds dump the
#: flight recorder (at most once per window).
STORM_THRESHOLD = 3
STORM_WINDOW = 10.0

#: How often the await loop polls cancellation/deadline (seconds).
_POLL_INTERVAL = 0.05

#: The directory holding the ``repro`` package, prepended to the child's
#: ``PYTHONPATH`` so the worker module resolves from a bare checkout.
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _worker_command(command, mem_limit_mb, cpu_limit_s, heartbeat_interval):
    if command is not None:
        if isinstance(command, str):
            return shlex.split(command)
        return list(command)
    env = os.environ.get(WORKER_ENV)
    if env:
        return shlex.split(env)
    argv = [sys.executable, "-m", "repro.runtime.incremental_worker",
            "--heartbeat-interval", str(heartbeat_interval)]
    if mem_limit_mb:
        argv += ["--mem-limit-mb", str(mem_limit_mb)]
    if cpu_limit_s:
        argv += ["--cpu-limit-s", str(cpu_limit_s)]
    return argv


def _child_env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        _SRC_DIR if not existing else _SRC_DIR + os.pathsep + existing
    )
    return env


# -- run-scoped reaping ----------------------------------------------------

_scope = threading.local()


@contextmanager
def reap_children():
    """Reap every child spawned on this thread inside the block.

    Solvers can outlive the run that made them (a traceback, a partial
    result or a test fixture may still hold one), so the engine does not
    rely on garbage collection: whatever the run spawned is gone when
    the block exits, however it exits.  A backend whose child was reaped
    here respawns and replays on its next check.
    """
    outer = getattr(_scope, "children", None)
    children = _scope.children = []
    try:
        yield
    finally:
        _scope.children = outer
        for child in children:
            child.reap()


# -- crash storms ----------------------------------------------------------

class _StormWatch:
    """Dumps the flight recorder when child deaths cluster.

    A single death is routine (the taxonomy absorbs it); several inside
    the window mean something systemic — a query killing every child it
    touches, an environment change — and the ring holds the evidence.
    Process-wide, because every solver's child counts toward a storm.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._deaths = []
        self._last_dump = None

    def note_death(self):
        now = time.monotonic()
        with self._lock:
            self._deaths = [t for t in self._deaths
                            if now - t <= STORM_WINDOW]
            self._deaths.append(now)
            storm = len(self._deaths) >= STORM_THRESHOLD and (
                self._last_dump is None
                or now - self._last_dump >= STORM_WINDOW)
            if storm:
                self._last_dump = now
        if storm:
            _METRICS.inc("worker.crash_storms")
            _flight.flight_dump("worker-crash-storm")


_STORMS = _StormWatch()


# -- one child process -----------------------------------------------------

def _drain(stream, lines):
    try:
        for line in stream:
            lines.put(line)
    except (OSError, ValueError):
        pass  # stdout closed under the reader during teardown
    lines.put(None)  # EOF sentinel: the child is gone


class _Child:
    """One live worker process plus the thread draining its stdout.

    Holds no reference to its backend, so a backend can be collected
    (and its finalizer reap the child) while the reader still runs.
    """

    def __init__(self, command):
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1,
            env=_child_env(),
        )
        self.pid = self.proc.pid
        self.lines = Queue()
        self.reader = threading.Thread(
            target=_drain, args=(self.proc.stdout, self.lines),
            name="incremental-worker-reader", daemon=True,
        )
        self.reader.start()
        self._reaped = False
        self._reap_lock = threading.Lock()
        _METRICS.inc("worker.spawned")
        children = getattr(_scope, "children", None)
        if children is not None:
            children.append(self)

    def alive(self):
        return not self._reaped and self.proc.poll() is None

    def send(self, line):
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
            return True
        except (OSError, ValueError):
            return False

    def reap(self):
        """Kill (if needed) and collect the child; returns its exit code.

        Idempotent, and safe from a finalizer on any thread: a run's
        reaping scope and a collected backend may both get here.
        """
        proc = self.proc
        with self._reap_lock:
            if self._reaped:
                return proc.returncode
            self._reaped = True
        if proc.poll() is None:
            try:
                proc.kill()
            except OSError:
                pass
        try:
            code = proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            code = None
        if self.reader is not threading.current_thread():
            self.reader.join(timeout=5.0)
        for stream in (proc.stdin, proc.stdout):
            try:
                stream.close()
            except (OSError, ValueError):
                pass
        _METRICS.inc("worker.reaped")
        return code


class IncrementalSubprocessBackend(SolverBackend):
    """One persistent sandboxed child per solver, clauses shipped once."""

    name = "incremental-subprocess"
    supports_incremental = True

    def __init__(self, command=None, mem_limit_mb=None, cpu_limit_s=None,
                 heartbeat_interval=0.25, watchdog_grace=4.0,
                 spawn_timeout=20.0):
        self._command = _worker_command(command, mem_limit_mb, cpu_limit_s,
                                        heartbeat_interval)
        self._heartbeat_interval = heartbeat_interval
        self._watchdog_grace = watchdog_grace
        self._spawn_timeout = spawn_timeout
        self._num_vars = 0
        self._clauses = []        # parent mirror: replay source of truth
        self._conflicts = 0
        self._assignment = {}
        self._pending_seed = None
        self._child = None
        self._reap_child = None   # weakref.finalize reaping _child
        self._faults = 0          # consecutive faulted checks (breaker)
        self._core = None         # in-process core once the breaker opens
        self.respawns = 0         # fresh spawns after a fault (tests/obs)
        self._sent_ctx = None     # trace context last shipped to the child
        self.last_wire_ctx = None  # trace context echoed on the last result

    def describe(self):
        return f"{self.name} ({' '.join(self._command)})"

    # -- incremental clause feeding -------------------------------------

    def new_var(self):
        self._num_vars += 1
        if self._core is not None:
            self._core.new_var()
        return self._num_vars

    def add_clause(self, lits):
        clause = list(lits)
        self._clauses.append(clause)
        if self._core is not None:
            self._core.add_clause(clause)
        elif self._child is not None:
            # Keep the live child in sync; a failed send leaves the
            # corpse for the next check to notice and replay over.
            self._child.send("a " + " ".join(map(str, clause)) + " 0")

    def assignment(self):
        return dict(self._assignment)

    def reseed(self, seed):
        self._pending_seed = seed

    @property
    def num_vars(self):
        return self._num_vars

    @property
    def clauses(self):
        return self._clauses

    @property
    def conflicts(self):
        return self._conflicts

    def close(self):
        self._shutdown()

    # -- child lifecycle -------------------------------------------------

    def _spawn(self):
        child = _Child(self._command)
        self._child = child
        self._reap_child = weakref.finalize(self, child.reap)
        # Wait for the ready line so rlimits are in place before clauses
        # flow; a child that cannot even boot fails this check.
        deadline = time.monotonic() + self._spawn_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._shutdown()
                raise OSError("incremental worker did not report ready")
            try:
                line = child.lines.get(
                    timeout=min(_POLL_INTERVAL, remaining))
            except Empty:
                continue
            if line is None:
                self._shutdown()
                raise OSError("incremental worker died at boot")
            if line.split()[:1] == ["ready"]:
                return

    def _ensure_worker(self):
        if self._child is not None and self._child.alive():
            return
        if self._child is not None:
            self._shutdown()
            self.respawns += 1
        self._spawn()
        # Replay the mirrored state into the fresh child.  The fresh
        # child holds no trace context yet, whatever we sent before.
        self._sent_ctx = None
        self._child.send(f"alloc {self._num_vars}")
        for clause in self._clauses:
            self._child.send("a " + " ".join(map(str, clause)) + " 0")

    def _shutdown(self):
        """Reap the current child (if any); returns its exit code."""
        child, finalizer = self._child, self._reap_child
        self._child = self._reap_child = None
        if child is None:
            return None
        finalizer.detach()
        return child.reap()

    def _take_seed(self, limits):
        """The seed for this check: the per-call one, else a pending
        ``reseed``; either way the pending one is consumed."""
        seed, self._pending_seed = self._pending_seed, None
        return limits.seed if limits.seed is not None else seed

    def inject_fault(self, kind):
        """Arm a containment-test fault (``crash``/``hang``/``oom``) in
        the live child; spawns one if needed."""
        self._ensure_worker()
        self._child.send(f"fault {kind}")

    # -- the check itself ------------------------------------------------

    def check(self, cnf=None, assumptions=(), limits=None):
        if cnf is not None:
            raise ValueError(
                "the incremental-subprocess backend solves its streamed "
                "state; pass cnf=None"
            )
        if limits is None:
            limits = CheckLimits()
        if self._core is None and self._faults >= BREAKER_THRESHOLD:
            self._open_breaker()
        if self._core is not None:
            return self._check_in_process(assumptions, limits)
        try:
            try:
                self._ensure_worker()
            except OSError:
                self._faults += 1
                return BackendResult("unknown", reason="backend-error")
            _METRICS.inc("worker.requests")
            return self._solve_on_child(assumptions, limits)
        except BaseException:
            # An interrupt mid-check leaves the child half-replayed or
            # holding a query nobody will read; a later check must start
            # from a fresh child, not take its answer.
            self._shutdown()
            raise

    def _solve_on_child(self, assumptions, limits):
        child = self._child
        injector = _faults.active_injector()
        if injector is not None:
            directive = injector.on_worker_request()
            if directive is not None:
                child.send(f"fault {directive}")
        seed = self._take_seed(limits)
        if seed is not None:
            child.send(f"reseed {seed}")
        max_conflicts = "-" if limits.max_conflicts is None else str(
            int(limits.max_conflicts))
        timeout = limits.timeout()
        timeout_tok = "-" if timeout is None else f"{timeout:.3f}"
        # Cross-process trace propagation: ship the current context when
        # it changed since the last solve; the child echoes it on every
        # result line, proving the persistent child's work is attributed
        # to the submitting job even across respawns.
        ctx = _obs.current_trace_id()
        if ctx != self._sent_ctx:
            child.send(f"ctx {ctx or '-'}")
            self._sent_ctx = ctx
        child.send(f"alloc {self._num_vars}")
        child.send("assume " + " ".join(map(str, assumptions)) + " 0")
        if not child.send(f"solve {max_conflicts} {timeout_tok}"):
            return self._death()
        return self._await_result(child.lines, limits, timeout)

    def _await_result(self, lines, limits, timeout):
        """Consume child lines until a result; watchdog in the gaps.

        The child enforces its own solve timeout, so the parent deadline
        only backstops a wedged child: heartbeat silence beyond
        ``watchdog_grace`` intervals, or running past the deadline by
        the same grace, kills it.
        """
        assignment = {}
        silence_cap = self._watchdog_grace * self._heartbeat_interval
        hard_deadline = None
        if timeout is not None:
            hard_deadline = time.monotonic() + timeout + silence_cap
        last_line = time.monotonic()
        cancel = limits.cancel
        while True:
            if cancel is not None and cancel.is_set():
                self._shutdown()
                return BackendResult("unknown", reason="cancelled")
            now = time.monotonic()
            if hard_deadline is not None and now > hard_deadline:
                return self._kill("deadline")
            if now - last_line > silence_cap:
                return self._kill("heartbeat-lost")
            try:
                line = lines.get(timeout=_POLL_INTERVAL)
            except Empty:
                continue
            if line is None:
                return self._death()
            last_line = time.monotonic()
            tokens = line.split()
            if not tokens or tokens[0] == "hb":
                continue
            if tokens[0] == "v":
                for tok in tokens[1:-1]:
                    lit = int(tok)
                    assignment[abs(lit)] = 0 if lit < 0 else 1
                continue
            if tokens[0] == "r":
                return self._result(tokens, assignment)
            # Unknown chatter: tolerated (a future worker may add lines).

    def _result(self, tokens, assignment):
        try:
            verdict = tokens[1]
            reason = tokens[2]
            conflicts = int(tokens[3])
            internals = {}
            wire_ctx = None
            for pair in tokens[4:]:
                key, _, value = pair.partition("=")
                if key == "ctx":
                    # The echoed trace context: a string, not an
                    # internals counter.
                    wire_ctx = value
                    continue
                internals[key] = int(value)
        except (IndexError, ValueError):
            self._shutdown()
            self._faults += 1
            return BackendResult("unknown", reason="backend-error")
        self._faults = 0
        self.last_wire_ctx = wire_ctx
        if wire_ctx is not None and wire_ctx != _obs.current_trace_id():
            # The child answered under a stale context (e.g. a result
            # raced a context switch) — count it; attribution reports
            # treat the echo as advisory.
            _METRICS.inc("incremental.ctx_mismatches")
        self._conflicts += conflicts
        if verdict == "sat":
            self._assignment = assignment
            return BackendResult("sat", conflicts=conflicts,
                                 internals=internals)
        if verdict == "unsat":
            return BackendResult("unsat", conflicts=conflicts,
                                 internals=internals)
        return BackendResult("unknown",
                             reason="" if reason == "-" else reason,
                             conflicts=conflicts, internals=internals)

    # -- faults ------------------------------------------------------------

    def _kill(self, reason):
        """Watchdog kill of a silent or overdue child."""
        _METRICS.inc("worker.watchdog_kills")
        _METRICS.inc("worker.kills." + reason.replace("-", "_"))
        _obs.event("worker.killed", reason=reason, pid=self._child.pid)
        return self._death(reason)

    def _death(self, kill_reason=None):
        """Reap a child that died (or was killed) mid-check and report a
        classified per-check unknown; the next check replays."""
        pid = self._child.pid
        code = self._shutdown()
        self.respawns += 1
        self._faults += 1
        _METRICS.inc("worker.crashes")
        _obs.event("worker.death", pid=pid, exit_code=code,
                   kill_reason=kill_reason or "")
        _STORMS.note_death()
        if kill_reason is not None:
            reason = kill_reason
        elif code == EXIT_OOM:
            _METRICS.inc("worker.crashes.oom")
            reason = "worker-oom"
        elif code == -signal.SIGXCPU:
            reason = "worker-cpu"
        else:
            reason = "worker-crashed"
        return BackendResult("unknown", reason=reason)

    def _open_breaker(self):
        """Stop spawning children: replay the mirror in-process."""
        self._shutdown()
        core = InProcessBackend()
        for _ in range(self._num_vars):
            core.new_var()
        for clause in self._clauses:
            core.add_clause(clause)
        self._core = core
        _METRICS.inc("worker.fallbacks")
        _obs.event("worker.fallback", failures=self._faults)

    def _check_in_process(self, assumptions, limits):
        seed = self._take_seed(limits)
        if seed is not None:
            self._core.reseed(seed)
        result = self._core.check(None, assumptions, limits)
        self._conflicts += result.conflicts
        if result.verdict == "sat":
            self._assignment = self._core.assignment()
        return result
