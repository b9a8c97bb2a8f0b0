"""Entry point of a sandboxed, persistent solver worker process.

Run as ``python -m repro.runtime.incremental_worker [--mem-limit-mb N]
[--cpu-limit-s N] [--heartbeat-interval F]``.  The worker keeps ONE
``SatSolver`` alive for its whole life: the parent
(:class:`repro.smt.backends.incremental_subprocess
.IncrementalSubprocessBackend`) streams clauses into it once and then
issues many assumption solves against the accumulated state — learned
clauses, variable activities and the kept assumption trail all survive
across checks, out of process.

The wire protocol is an IPASIR-flavoured *text* line protocol (JSON per
clause would dominate the encode cost at clause-stream rates).  Literals
are the solver core's internal encoding (``2*var`` positive,
``2*var + 1`` negated) — the parent mirrors the core's numbering, so no
translation happens on either side.

* parent -> worker (stdin)::

    alloc <num_vars>             allocate variables up to this count
    a <lit> ... 0                add one clause
    assume <lit> ... 0           stage assumptions for the next solve
    solve <max_conflicts|-> <timeout_s|->
                                 solve under the staged assumptions
    reseed <seed>                perturb decision order (retries)
    ctx <token|->                set (or with ``-`` clear) the trace
                                 context echoed on every result line
    fault crash|hang|oom         fault injection (containment tests)
    quit                         exit cleanly

* worker -> parent (stdout)::

    ready <pid>                  once, after rlimits are applied
    hb                           heartbeats while a solve is in flight
    v <+var|-var> ... 0          assignment lines (before a sat result)
    r sat|unsat|unknown <reason|-> <conflicts> [key=value ...]
                                 one result per solve; key=value pairs
                                 are the per-solve internals deltas,
                                 plus ``ctx=<token>`` when a trace
                                 context is set

Sandboxing is applied before the first request: ``RLIMIT_DATA`` (heap)
caps memory so a bit-blasting or clause-database blow-up raises
``MemoryError`` *here* instead of OOM-killing the engine, and
``RLIMIT_CPU`` backstops runaway solving with a kernel ``SIGXCPU``.  A
heartbeat thread keeps the parent's watchdog fed during long solves, and
a ``MemoryError`` anywhere exits with :data:`EXIT_OOM` — the heap is not
trustworthy afterwards, so the parent respawns (and replays its mirrored
clause list) rather than reuse the process.

Fault directives (``fault crash|hang|oom``) come from the parent-side
:class:`repro.runtime.FaultInjector` plan and make the containment
claims testable: crash exits at once with :data:`EXIT_CRASH`, hang goes
silent so the watchdog must reap the process, oom allocates until the
rlimit breaches.
"""

from __future__ import annotations

import os
import sys
import threading
import time

try:  # pragma: no cover - platform gate
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = ["main", "EXIT_CRASH", "EXIT_OOM"]

#: Exit code for an injected crash (mid-check process death).
EXIT_CRASH = 70
#: Exit code for a memory-rlimit breach (caught ``MemoryError``).
EXIT_OOM = 71

#: Injected OOM stops allocating past this many bytes even when no rlimit
#: is configured, so a mis-configured test cannot eat the whole machine.
_OOM_ALLOCATION_CEILING = 1 << 31


def _apply_rlimits(mem_limit_mb, cpu_limit_s):
    if _resource is None:
        return
    if mem_limit_mb:
        limit = int(mem_limit_mb) * 1024 * 1024
        # RLIMIT_DATA caps the heap (brk + private mmap on Linux >= 4.7)
        # without constraining the interpreter's shared mappings the way
        # RLIMIT_AS would; breaches surface as MemoryError.
        kind = getattr(_resource, "RLIMIT_DATA", _resource.RLIMIT_AS)
        try:
            _resource.setrlimit(kind, (limit, limit))
        except (ValueError, OSError):
            pass
    if cpu_limit_s:
        seconds = int(cpu_limit_s)
        try:
            _resource.setrlimit(_resource.RLIMIT_CPU, (seconds, seconds + 1))
        except (ValueError, OSError):
            pass


class _Heartbeat:
    """Writes ``hb`` lines on an interval while a solve is in flight.

    A thread (not a solver checkpoint) so heartbeats keep flowing
    between the solver's checkpoints; the interpreter's switch interval
    guarantees it gets scheduled even while the main thread solves.  ``silence()`` is the injected-hang hook: the process stays
    alive but goes quiet, which is exactly the failure mode the parent
    watchdog exists to catch.
    """

    def __init__(self, write, interval):
        self._write = write
        self._interval = interval
        self._busy = False
        self._silent = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            time.sleep(self._interval)
            with self._lock:
                beat = self._busy and not self._silent
            if beat:
                self._write("hb")

    def begin(self):
        with self._lock:
            self._busy = True
            self._silent = False

    def end(self):
        with self._lock:
            self._busy = False

    def silence(self):
        with self._lock:
            self._silent = True


def _inject_oom(mem_limit_mb):
    """Allocate until the rlimit breaches (or a hard ceiling is hit).

    The hoard is released before re-raising, so the exit path does not
    thrash against a heap pinned at the rlimit long enough for the
    watchdog to misclassify the breach as a hang.
    """
    ceiling = _OOM_ALLOCATION_CEILING
    if mem_limit_mb:
        ceiling = min(ceiling, int(mem_limit_mb) * 1024 * 1024 * 4)
    hoard = []
    total = 0
    chunk = 16 * 1024 * 1024
    try:
        while total < ceiling:
            hoard.append(bytearray(chunk))
            total += chunk
    finally:
        hoard.clear()
    # No rlimit stopped us: simulate the breach so the parent still sees
    # a classified OOM instead of a successful check.
    raise MemoryError("injected oom (allocation ceiling reached)")


def _run_loop(write, heartbeat, mem_limit_mb):
    # Imported here, not at module top: the parent backend imports this
    # module for its exit codes, and the runtime layer must not drag
    # repro.smt in with it.
    from repro.smt.sat.solver import SatSolver

    solver = SatSolver()
    assumptions = []
    trace_ctx = None

    def ensure_vars(count):
        while solver.num_vars < count:
            solver.new_var()

    for line in sys.stdin:
        tokens = line.split()
        if not tokens:
            continue
        cmd = tokens[0]
        if cmd == "a":
            lits = [int(tok) for tok in tokens[1:-1]]
            if lits:
                ensure_vars(max(lit >> 1 for lit in lits))
            solver.add_clause(lits)
        elif cmd == "assume":
            assumptions = [int(tok) for tok in tokens[1:-1]]
            if assumptions:
                ensure_vars(max(lit >> 1 for lit in assumptions))
        elif cmd == "alloc":
            ensure_vars(int(tokens[1]))
        elif cmd == "solve":
            max_conflicts = None if tokens[1] == "-" else int(tokens[1])
            timeout = None if tokens[2] == "-" else float(tokens[2])
            deadline = None if timeout is None else time.monotonic() + timeout
            heartbeat.begin()
            before = solver.conflicts
            internals_before = solver.internals()
            verdict = solver.solve(
                assumptions=assumptions,
                max_conflicts=max_conflicts,
                deadline=deadline,
            )
            heartbeat.end()
            assumptions = []
            spent = solver.conflicts - before
            internals = solver.internals()
            deltas = " ".join(
                f"{key}={value - internals_before[key]}"
                for key, value in internals.items()
            )
            # Echo the cross-process trace context on every result: the
            # parent attributes this solve to the submitting job's trace.
            suffix = f" ctx={trace_ctx}" if trace_ctx else ""
            if verdict is None:
                reason = solver.stop_reason or "-"
                write(f"r unknown {reason} {spent} {deltas}{suffix}")
            elif verdict:
                model = solver.model()
                write("v " + " ".join(
                    str(var if value else -var)
                    for var, value in model.items()
                ) + " 0")
                write(f"r sat - {spent} {deltas}{suffix}")
            else:
                write(f"r unsat - {spent} {deltas}{suffix}")
        elif cmd == "ctx":
            trace_ctx = None if tokens[1] == "-" else tokens[1]
        elif cmd == "reseed":
            solver.reseed(int(tokens[1]))
        elif cmd == "fault":
            kind = tokens[1]
            if kind == "crash":
                os._exit(EXIT_CRASH)
            elif kind == "hang":
                heartbeat.begin()
                heartbeat.silence()
                time.sleep(3600)
            elif kind == "oom":
                _inject_oom(mem_limit_mb)
        elif cmd == "quit":
            break


def main(argv=None):
    import argparse  # child-only; the parent imports this module lightly

    parser = argparse.ArgumentParser(
        prog="repro.runtime.incremental_worker")
    parser.add_argument("--mem-limit-mb", type=int, default=0)
    parser.add_argument("--cpu-limit-s", type=int, default=0)
    parser.add_argument("--heartbeat-interval", type=float, default=0.25)
    args = parser.parse_args(argv)

    _apply_rlimits(args.mem_limit_mb, args.cpu_limit_s)

    stdout_lock = threading.Lock()

    def write(text):
        with stdout_lock:
            sys.stdout.write(text + "\n")
            sys.stdout.flush()

    # Beat at twice the nominal rate: sleep-based beats drift under load,
    # so a 1:1 cadence would sit right on the parent's kill threshold.
    heartbeat = _Heartbeat(write, args.heartbeat_interval / 2.0)
    write(f"ready {os.getpid()}")
    try:
        _run_loop(write, heartbeat, args.mem_limit_mb)
    except MemoryError:
        # The heap is suspect: report nothing more and die with the
        # dedicated exit code so the parent respawns and replays.
        os._exit(EXIT_OOM)
    return 0


if __name__ == "__main__":
    sys.exit(main())
