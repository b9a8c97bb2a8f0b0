"""Sandboxed-worker health metrics and obs events under injected faults.

Each test drives a real ``incremental-subprocess`` child through a fault
scenario (crash, hang, oom — the same scenarios
``tests/runtime/test_workers.py`` uses for containment) and asserts the
unified :data:`repro.obs.METRICS` registry counted exactly what
happened, and that the tracer saw the corresponding events with correct
attribution.
"""

from repro.obs import (
    METRICS,
    Tracer,
    installed,
    new_trace_id,
    span,
    trace_context,
)
from repro.obs.schema import load_events
from repro.runtime import FaultInjector
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.backends import IncrementalSubprocessBackend
from repro.smt.solver import SAT


def _sandboxed(**kwargs):
    solver = Solver(backend=IncrementalSubprocessBackend(**kwargs))
    x = T.bv_var("wm", 4)
    solver.add(T.bv_eq(x, T.bv_const(9, 4)))
    return solver


def test_crash_metrics_and_recovery_accounting():
    before = METRICS.snapshot()
    solver = _sandboxed()
    try:
        injector = FaultInjector().inject_worker_crash(at_request=1)
        with injector.installed():
            assert solver.check().reason == "worker-crashed"
        assert solver.check() is SAT
    finally:
        solver.backend.close()
    delta = METRICS.delta_since(before)
    assert delta["worker.requests"] == 2
    assert delta["worker.crashes"] == 1
    assert delta.get("worker.crashes.oom", 0) == 0
    assert delta.get("worker.watchdog_kills", 0) == 0
    # The first child + the respawned replacement; both reaped.
    assert delta["worker.spawned"] == 2
    assert delta["worker.spawned"] == delta["worker.reaped"]


def test_hang_metrics_attribute_watchdog_kill():
    before = METRICS.snapshot()
    solver = _sandboxed(heartbeat_interval=0.1, watchdog_grace=3.0)
    try:
        injector = FaultInjector().inject_worker_hang(at_request=1)
        with injector.installed():
            assert solver.check().reason == "heartbeat-lost"
    finally:
        solver.backend.close()
    delta = METRICS.delta_since(before)
    assert delta["worker.watchdog_kills"] == 1
    assert delta["worker.kills.heartbeat_lost"] == 1
    assert delta.get("worker.kills.deadline", 0) == 0
    # The kill surfaces through death classification too.
    assert delta["worker.crashes"] == 1


def test_oom_metrics_classified_separately():
    before = METRICS.snapshot()
    solver = _sandboxed(heartbeat_interval=0.5, mem_limit_mb=256)
    try:
        injector = FaultInjector().inject_worker_oom(at_request=1)
        with injector.installed():
            assert solver.check().reason == "worker-oom"
    finally:
        solver.backend.close()
    delta = METRICS.delta_since(before)
    assert delta["worker.crashes.oom"] == 1
    assert delta["worker.crashes"] >= 1


def test_fallback_counted_once_per_breaker_trip():
    before = METRICS.snapshot()
    solver = _sandboxed()
    try:
        injector = FaultInjector().inject_worker_crash(at_request="all")
        with injector.installed():
            verdicts = [solver.check() for _ in range(4)]
    finally:
        solver.backend.close()
    assert [v.name for v in verdicts] == ["unknown", "unknown", "sat", "sat"]
    delta = METRICS.delta_since(before)
    assert delta["worker.fallbacks"] == 1


def test_traced_pool_forwards_worker_provenance(tmp_path):
    # The child's own account of each solve (conflicts, solver internals,
    # the echoed trace context) rides its result line and lands on the
    # parent's solver.check event, parented to the owning span.
    path = tmp_path / "worker.jsonl"
    tracer = Tracer(path)
    solver = Solver(backend=IncrementalSubprocessBackend())
    x, y = T.bv_var("wm_p", 4), T.bv_var("wm_q", 4)
    # A query that needs search, so the child's internals are nonzero.
    solver.add(T.bv_eq(T.bv_mul(x, y), T.bv_const(6, 4)))
    solver.add(T.bv_ugt(x, T.bv_const(1, 4)))
    solver.add(T.bv_ugt(y, T.bv_const(1, 4)))
    tid = new_trace_id()
    try:
        with installed(tracer), trace_context(tid):
            with span("owner") as owner:
                assert solver.check() is SAT
                owner_id = owner.id
        assert solver.backend.last_wire_ctx == tid
    finally:
        solver.backend.close()
        tracer.close()
    events, summary = load_events(path)
    assert summary["unclosed"] == []
    checks = [e for e in events
              if e["ev"] == "event" and e["name"] == "solver.check"]
    assert len(checks) == 1
    check = checks[0]
    assert check["parent"] == owner_id
    assert check["trace"] == tid
    assert check["attrs"]["backend"] == "incremental-subprocess"
    assert check["attrs"]["result"] == "sat"
    assert check["attrs"]["clauses"] > 0
    assert check["attrs"]["propagations"] > 0
    assert check["attrs"]["wall"] >= 0


def test_traced_watchdog_kill_emits_event(tmp_path):
    path = tmp_path / "kill.jsonl"
    tracer = Tracer(path)
    solver = _sandboxed(heartbeat_interval=0.1, watchdog_grace=3.0)
    try:
        injector = FaultInjector().inject_worker_hang(at_request=1)
        with installed(tracer):
            with injector.installed():
                assert solver.check().reason == "heartbeat-lost"
    finally:
        solver.backend.close()
        tracer.close()
    events, _ = load_events(path)
    names = [e["name"] for e in events if e["ev"] == "event"]
    killed = next(e for e in events
                  if e["ev"] == "event" and e["name"] == "worker.killed")
    assert killed["attrs"]["reason"] == "heartbeat-lost"
    assert killed["attrs"]["pid"] > 0
    assert "worker.death" in names
    # Fault-injector provenance (satellite: seed + fired log as events).
    installed_ev = next(e for e in events
                        if e["ev"] == "event"
                        and e["name"] == "fault.installed")
    assert installed_ev["attrs"]["seed"] == 0
    assert installed_ev["attrs"]["planned_workers"] == 1
    uninstalled = next(e for e in events
                       if e["ev"] == "event"
                       and e["name"] == "fault.uninstalled")
    assert uninstalled["attrs"]["fired"] == ["worker:hang@1"]
    injected = next(e for e in events
                    if e["ev"] == "event"
                    and e["name"] == "fault.injected")
    assert injected["attrs"]["kind"] == "worker:hang"
    assert injected["attrs"]["ordinal"] == 1
    assert injected["attrs"]["seed"] == 0
