"""The in-process service: lifecycle, caching, drain, crash containment.

These tests drive :class:`SynthesisService` directly (no sockets) with
the fast accumulator problem; the socket layer has its own test module
and the full kill -9 story lives in ``scripts/chaos_service.py``.
"""

import sys
import threading
import time
import types

import pytest

from repro.runtime import FaultInjector
from repro.runtime.retry import RetryPolicy
from repro.service import (
    AdmissionRejected,
    Job,
    SynthesisService,
    daemon,
    idempotency_key,
    register_problem,
)
from repro.service.problems import PROBLEMS, build_problem
from repro.smt.backends import IncrementalSubprocessBackend, SolverConfig
from repro.smt.backends.registry import BACKEND_ENV

_FAST_RETRY = RetryPolicy(backoff=0.001, backoff_ceiling=0.002)


@pytest.fixture
def service(tmp_path):
    svc = SynthesisService(tmp_path / "state", fsync=False,
                           retry_policy=_FAST_RETRY)
    svc.start()
    yield svc
    svc.shutdown(timeout=10.0)


def test_submit_runs_to_done_with_result(service):
    ack = service.submit("accumulator")
    assert ack["state"] == "accepted" and not ack["cached"]
    job = service.wait(ack["job_id"], timeout=60)
    assert job["state"] == "done"
    assert job["instructions_done"] >= 1
    assert job["result"]["design"].startswith("design ")


def test_idempotent_resubmission_hits_the_cache(service):
    first = service.submit("accumulator")
    service.wait(first["job_id"], timeout=60)
    second = service.submit("accumulator")
    assert second["cached"]
    assert second["job_id"] == first["job_id"]
    assert "design" in second["result"]


def test_unknown_design_is_a_typed_rejection(service):
    with pytest.raises(AdmissionRejected) as excinfo:
        service.submit("no_such_design")
    assert excinfo.value.reason == "unknown-design"
    assert not excinfo.value.retryable


def test_journal_fault_means_no_ack_and_no_job(service):
    from repro.service import JournalFault

    injector = FaultInjector()
    injector.inject_journal_fault(at_append="all")
    with injector.installed():
        with pytest.raises(JournalFault):
            service.submit("accumulator")
    assert service.stats()["jobs"] == {}


def test_draining_service_rejects_submissions(service):
    service.drain_event.set()
    with pytest.raises(AdmissionRejected) as excinfo:
        service.submit("accumulator")
    assert excinfo.value.reason == "draining"


@pytest.fixture
def idle_service(tmp_path):
    """A service whose store is open but whose runners never start, so
    only the test moves its jobs."""
    svc = SynthesisService(tmp_path / "state", fsync=False)
    svc.store.open()
    svc.store.submit(Job(job_id="j1", design="accumulator"))
    yield svc
    svc.store.close()


def test_wait_wakes_on_the_terminal_transition(idle_service, monkeypatch):
    def no_sleep(_seconds):
        raise AssertionError("wait slept instead of blocking")

    monkeypatch.setattr(daemon, "time", types.SimpleNamespace(
        monotonic=time.monotonic, time=time.time, sleep=no_sleep))

    def finish():
        time.sleep(0.2)
        idle_service.store.transition("j1", "running")
        idle_service.store.transition("j1", "done",
                                      result={"design": "design x"})

    finisher = threading.Thread(target=finish)
    finisher.start()
    try:
        job = idle_service.wait("j1", timeout=30)
    finally:
        finisher.join(30)
    assert not finisher.is_alive()
    assert job["state"] == "done"
    assert job["result"] == {"design": "design x"}
    assert "timed_out" not in job


def test_every_waiter_wakes_under_contention(idle_service):
    """More waiters than cores, each on its own job, with thread switches
    forced often: a lost notification leaves a waiter timed out."""
    store = idle_service.store
    job_ids = [f"w{i}" for i in range(8)]
    for job_id in job_ids:
        store.submit(Job(job_id=job_id, design="accumulator"))
    views = {}

    def waiter(job_id):
        views[job_id] = idle_service.wait(job_id, timeout=30)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=waiter, args=(job_id,))
                   for job_id in job_ids]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let the waiters block
        for job_id in job_ids:
            store.transition(job_id, "failed", error="stress")
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert {view["state"] for view in views.values()} == {"failed"}
    assert sorted(views) == job_ids


def test_wait_times_out_with_the_current_view(idle_service):
    started = time.monotonic()
    job = idle_service.wait("j1", timeout=0.2)
    assert time.monotonic() - started >= 0.2
    assert job["timed_out"] is True
    assert job["state"] == "accepted"
    with pytest.raises(KeyError):
        idle_service.wait("no-such-job", timeout=0.2)


def test_handle_request_shapes_typed_errors():
    # No daemon needed: handle_request is the protocol boundary.
    import tempfile

    with tempfile.TemporaryDirectory() as state:
        svc = SynthesisService(state, fsync=False)
        svc.start()
        try:
            response = svc.handle_request({"op": "submit",
                                           "design": "no_such_design"})
            assert not response["ok"]
            assert response["error"]["type"] == "service.admission"
            assert response["error"]["reason"] == "unknown-design"
            response = svc.handle_request({"op": "bogus"})
            assert response["error"]["type"] == "service.request"
            response = svc.handle_request({"op": "status",
                                           "job_id": "nope"})
            assert not response["ok"]
        finally:
            svc.shutdown(timeout=5.0)


class _FlakyFactory:
    """Succeeds for key computation, crashes the first N runner calls."""

    def __init__(self, crashes):
        self.crashes = crashes
        self.calls = 0

    def __call__(self):
        self.calls += 1
        # Call 1 is the submit path (idempotency key); later calls are
        # runner attempts.
        if 1 < self.calls <= 1 + self.crashes:
            raise RuntimeError("injected runner crash")
        from repro.designs.accumulator import build_problem as factory
        return factory()


@pytest.fixture
def flaky_design():
    name = "flaky_test_design"
    yield name
    PROBLEMS.pop(name, None)


def test_runner_crashes_are_requeued_then_succeed(service, flaky_design):
    register_problem(flaky_design, _FlakyFactory(crashes=2))
    ack = service.submit(flaky_design)
    job = service.wait(ack["job_id"], timeout=60)
    assert job["state"] == "done"
    assert job["crashes"] == 2


def test_crash_before_running_durable_still_requeues(service):
    """A journal fault on the 'running' transition must not kill the
    worker: the job is still 'accepted', so the requeue takes the
    accepted self-edge and the job completes on the retry."""
    injector = FaultInjector()
    injector.inject_journal_fault(at_append=2)  # 1=submit, 2=running
    with injector.installed():
        ack = service.submit("accumulator")
        job = service.wait(ack["job_id"], timeout=60)
    assert job["state"] == "done"
    assert job["crashes"] == 1


def test_concurrent_duplicate_submissions_create_one_job(service):
    import threading

    acks = []
    barrier = threading.Barrier(8)

    def submit():
        barrier.wait()
        acks.append(service.submit("accumulator"))

    threads = [threading.Thread(target=submit) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(acks) == 8
    assert len({ack["job_id"] for ack in acks}) == 1
    assert sum(service.stats()["jobs"].values()) == 1
    service.wait(acks[0]["job_id"], timeout=60)


def test_poison_job_fails_permanent_after_crash_cap(tmp_path, flaky_design):
    svc = SynthesisService(tmp_path / "state", fsync=False, max_crashes=2,
                           retry_policy=_FAST_RETRY)
    svc.start()
    try:
        register_problem(flaky_design, _FlakyFactory(crashes=99))
        ack = svc.submit(flaky_design)
        job = svc.wait(ack["job_id"], timeout=60)
        assert job["state"] == "failed-permanent"
        assert job["reason"] == "poisoned"
        assert job["crashes"] == 2
        # The post-mortem is on disk by the time the verdict is visible.
        assert svc.health()["checks"]["flight"]["dumps"] >= 1
    finally:
        svc.shutdown(timeout=5.0)


def test_drain_checkpoints_inflight_job_and_restart_finishes(tmp_path):
    state = tmp_path / "state"
    svc = SynthesisService(state, fsync=False, stall=0.2,
                           retry_policy=_FAST_RETRY)
    svc.start()
    ack = svc.submit("alu_machine")
    job_id = ack["job_id"]
    # Wait for the first durable checkpoint, then drain mid-job.
    import time
    deadline = time.monotonic() + 30
    while svc.store.get(job_id).instructions_done < 1:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert svc.shutdown(timeout=30.0)
    parked = svc.store.get(job_id)
    assert parked.state == "checkpointed"
    assert 1 <= parked.instructions_done < 4

    svc2 = SynthesisService(state, fsync=False, retry_policy=_FAST_RETRY)
    report = svc2.start()
    assert report["requeued"] == 1
    try:
        job = svc2.wait(job_id, timeout=120)
        assert job["state"] == "done"
        assert job["instructions_done"] == 4
    finally:
        svc2.shutdown(timeout=10.0)


def test_idempotency_key_is_content_addressed(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    problem = build_problem("accumulator")
    again = build_problem("accumulator")
    assert idempotency_key(problem) == idempotency_key(again)
    assert idempotency_key(problem) != idempotency_key(
        problem, mode="monolithic")
    assert idempotency_key(problem) != idempotency_key(
        problem, config=SolverConfig(backend="incremental-subprocess"))
    # A backend instance addresses the same results as its name.
    assert idempotency_key(
        problem, config=SolverConfig(backend=IncrementalSubprocessBackend())
    ) == idempotency_key(
        problem, config=SolverConfig(backend="incremental-subprocess"))
    other = build_problem("alu_machine")
    assert idempotency_key(problem) != idempotency_key(other)
    # ``None`` keys exactly as the default config it runs under.
    default = idempotency_key(problem)
    assert default == idempotency_key(problem, config=SolverConfig())
    assert default == idempotency_key(
        problem, config=SolverConfig(pipeline="incremental"))
    assert default != idempotency_key(
        problem, config=SolverConfig(pipeline="fresh"))
    # Under $REPRO_BACKEND a ``None`` config runs that backend.
    monkeypatch.setenv(BACKEND_ENV, "incremental-subprocess")
    assert idempotency_key(problem) == idempotency_key(
        problem, config=SolverConfig(backend="incremental-subprocess"))
    assert idempotency_key(problem) != default
