"""Tests for the sandboxed solver child behind ``incremental-subprocess``.

Each test drives real child processes through the ``Solver`` facade (no
mocks): the containment claims — crash classification, watchdog reaping
bounds, the circuit breaker, reaping every child with its owner — are
only meaningful against live processes.
"""

import _thread
import gc
import os
import signal
import threading
import time

import pytest

from repro.obs import METRICS
from repro.runtime import FaultInjector
from repro.runtime.reasons import WORKER_REASONS, is_canonical
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.backends import IncrementalSubprocessBackend
from repro.smt.backends import incremental_subprocess as _backend
from repro.smt.solver import SAT, UNSAT

from tests.runtime.worker_procs import live_worker_pids, reader_threads


def _sandboxed(**kwargs):
    return Solver(backend=IncrementalSubprocessBackend(**kwargs))


def _sat_query(solver, name="x"):
    x = T.bv_var(name, 4)
    solver.add(T.bv_eq(x, T.bv_const(9, 4)))
    return x


def test_clean_check_decodes_model():
    solver = _sandboxed()
    try:
        x = _sat_query(solver)
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
        solver.add(T.bv_ult(x, T.bv_const(3, 4)))
        assert solver.check() is UNSAT
    finally:
        solver.backend.close()


def test_injected_crash_classified_and_pool_recovers():
    before = METRICS.snapshot()
    solver = _sandboxed()
    try:
        x = _sat_query(solver)
        injector = FaultInjector().inject_worker_crash(at_request=1)
        with injector.installed():
            verdict = solver.check()
        assert verdict.reason == "worker-crashed"
        assert verdict.reason in WORKER_REASONS
        # The next check respawns a child and replays the clause mirror.
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
    finally:
        solver.backend.close()
    delta = METRICS.delta_since(before)
    assert delta["worker.spawned"] == 2
    assert delta["worker.crashes"] == 1


def test_injected_oom_is_classified_not_raw_memoryerror():
    # A roomier heartbeat interval than the other tests: allocation up to
    # the rlimit stalls the child's beats enough that a tight threshold
    # would race the watchdog against the OOM exit.
    solver = _sandboxed(heartbeat_interval=0.5, mem_limit_mb=256)
    try:
        _sat_query(solver)
        injector = FaultInjector().inject_worker_oom(at_request=1)
        with injector.installed():
            verdict = solver.check()
        # Machine-readable classification, never a raw MemoryError —
        # and always a canonical reason (repro.runtime.reasons).
        assert verdict.reason == "worker-oom"
        assert is_canonical(verdict.reason)
        assert solver.check() is SAT
    finally:
        solver.backend.close()


def test_hung_worker_reaped_within_watchdog_bound():
    interval, grace = 0.1, 3.0
    solver = _sandboxed(heartbeat_interval=interval, watchdog_grace=grace)
    try:
        _sat_query(solver)
        injector = FaultInjector().inject_worker_hang(at_request=1)
        started = time.monotonic()
        with injector.installed():
            verdict = solver.check()
        elapsed = time.monotonic() - started
        assert verdict.reason == "heartbeat-lost"
        assert verdict.reason in WORKER_REASONS
        # Killed within watchdog_grace heartbeat intervals, plus poll and
        # process-teardown slack — not the 3600 s hang.
        assert elapsed < grace * interval + 1.0, elapsed
        assert solver.check() is SAT
    finally:
        solver.backend.close()


def test_sigxcpu_is_classified_as_worker_cpu(monkeypatch, tmp_path):
    # The kernel's RLIMIT_CPU enforcement is a SIGXCPU; deliver it to a
    # hung child directly so the test does not burn a second of CPU.
    # (SIGXCPU may dump core: keep any core file out of the checkout.)
    monkeypatch.chdir(tmp_path)
    solver = _sandboxed(heartbeat_interval=5.0)
    backend = solver.backend
    try:
        _sat_query(solver)
        assert solver.check() is SAT
        backend.inject_fault("hang")
        pid = backend._child.pid
        timer = threading.Timer(0.5, os.kill, (pid, signal.SIGXCPU))
        timer.start()
        verdict = solver.check()
        timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert verdict.reason == "worker-cpu"
        assert is_canonical(verdict.reason)
    finally:
        backend.close()


def test_interrupt_teardown_classified_as_interrupted():
    # Watchdog effectively disabled: the KeyboardInterrupt must reach the
    # caller as itself (the engine classifies it as "interrupted"), never
    # as a retryable child fault, and the abandoned child must be reaped
    # so a later check cannot read its stale answer.
    before = live_worker_pids()
    solver = _sandboxed(heartbeat_interval=30.0)
    backend = solver.backend
    try:
        x = _sat_query(solver)
        assert solver.check() is SAT
        backend.inject_fault("hang")
        timer = threading.Timer(0.3, _thread.interrupt_main)
        timer.start()
        with pytest.raises(KeyboardInterrupt):
            solver.check()
        timer.join(timeout=10.0)
        assert not timer.is_alive()
        assert live_worker_pids() - before == set()
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
    finally:
        backend.close()


def test_circuit_breaker_falls_back_in_process():
    before = METRICS.snapshot()
    solver = _sandboxed()
    try:
        x = _sat_query(solver)
        injector = FaultInjector().inject_worker_crash(at_request="all")
        with injector.installed():
            for _ in range(_backend.BREAKER_THRESHOLD):
                assert solver.check().reason == "worker-crashed"
            # The breaker is open: the mirror is replayed into an
            # in-process core, which answers despite the persistent
            # directive — and no further child is spawned.
            assert solver.check() is SAT
            assert solver.check() is SAT
        assert solver.model().value(x) == 9
    finally:
        solver.backend.close()
    delta = METRICS.delta_since(before)
    assert delta["worker.fallbacks"] == 1
    assert delta["worker.spawned"] == _backend.BREAKER_THRESHOLD


def test_crash_storm_dumps_flight_recorder(monkeypatch):
    dumps = []
    monkeypatch.setattr(_backend._flight, "flight_dump", dumps.append)
    monkeypatch.setattr(_backend, "_STORMS", _backend._StormWatch())
    solver = _sandboxed()
    try:
        _sat_query(solver)
        injector = FaultInjector().inject_worker_crash(at_request=[1, 3, 5])
        with injector.installed():
            verdicts = [solver.check() for _ in range(6)]
    finally:
        solver.backend.close()
    assert [v.name for v in verdicts] == ["unknown", "sat"] * 3
    assert dumps == ["worker-crash-storm"]


def test_starts_from_a_checkout_without_pythonpath(monkeypatch, tmp_path):
    # The child must find the package even when nothing on the parent's
    # environment names the source tree.
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    solver = _sandboxed()
    try:
        x = _sat_query(solver)
        for _ in range(3):
            assert solver.check() is SAT
        assert solver.model().value(x) == 9
    finally:
        solver.backend.close()


def test_dropped_solvers_reap_their_children():
    pids_before, threads_before = live_worker_pids(), reader_threads()
    solvers = [_sandboxed() for _ in range(5)]
    for index, solver in enumerate(solvers):
        _sat_query(solver, f"drop{index}")
        assert solver.check() is SAT
    assert len(live_worker_pids() - pids_before) == 5
    del solver, solvers
    gc.collect()
    assert live_worker_pids() - pids_before == set()
    assert reader_threads() - threads_before == set()


def test_shutdown_accounting_balances():
    before = METRICS.snapshot()
    solver = _sandboxed()
    _sat_query(solver)
    assert solver.check() is SAT
    solver.backend.close()
    delta = METRICS.delta_since(before)
    assert delta["worker.spawned"] == delta["worker.reaped"] == 1
    assert delta["worker.requests"] == 1
