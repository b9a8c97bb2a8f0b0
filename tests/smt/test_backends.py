"""The backend seam itself: registry, config resolution, external solvers.

Three layers under test:

* the registry (``available_backends`` / ``register_backend`` /
  ``resolve_backend``) and the capability table it reports;
* ``SolverConfig`` — the one way to say how checks run (a backend and
  one of three pipelines, nothing else);
* the ``subprocess-dimacs`` backend's full failure taxonomy, driven
  hermetically by ``fake_sat_solver.py``'s misbehavior flags.
"""

import os
import sys

import pytest

from repro.runtime.reasons import (
    CANONICAL_REASONS,
    is_canonical,
    normalize_reason,
)
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.backends import (
    BackendResult,
    SolverBackend,
    SolverConfig,
    available_backends,
    backend_capabilities,
    register_backend,
    resolve_backend,
)
from repro.smt.backends import registry as _registry
from repro.smt.backends.inprocess import InProcessBackend
from repro.smt.backends.registry import (
    BACKEND_ENV,
    default_backend_name,
    resolve_backend_name,
)
from repro.smt.backends.subprocess_dimacs import (
    SOLVER_ENV,
    BackendUnavailable,
    SubprocessDimacsBackend,
)
from repro.smt.dimacs import solve_dimacs
from repro.smt.solver import SAT, UNSAT

FAKE_SOLVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fake_sat_solver.py")


def _fake_command(*flags):
    return [sys.executable, FAKE_SOLVER, *flags]


def _sat_query(solver):
    x = T.bv_var("x", 8)
    solver.add(T.bv_eq(T.bv_add(x, T.bv_const(1, 8)), T.bv_const(10, 8)))
    return x


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_builtin_backends_are_registered():
    assert available_backends() == (
        "inprocess", "subprocess-dimacs", "incremental-subprocess",
        "portfolio")


def test_capability_table_matches_the_docs():
    assert backend_capabilities() == {
        "inprocess": {"supports_incremental": True},
        "subprocess-dimacs": {"supports_incremental": False},
        "incremental-subprocess": {"supports_incremental": True},
        "portfolio": {"supports_incremental": False},
    }


def test_resolve_unknown_backend_raises_with_the_roster():
    with pytest.raises(ValueError, match="unknown solver backend 'no-such'"):
        resolve_backend("no-such")


def test_resolve_backend_instance_passes_through():
    backend = InProcessBackend()
    assert resolve_backend(backend) is backend
    assert resolve_backend_name(backend) == "inprocess"


def test_register_backend_rejects_duplicates():
    with pytest.raises(ValueError, match="already registered"):
        register_backend("inprocess", lambda: None)


def test_env_var_sets_the_process_default_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "subprocess-dimacs")
    assert default_backend_name() == "subprocess-dimacs"
    assert resolve_backend_name(None) == "subprocess-dimacs"
    assert SolverConfig().backend_name == "subprocess-dimacs"
    monkeypatch.delenv(BACKEND_ENV)
    assert default_backend_name() == "inprocess"


def test_custom_backend_registers_and_serves_checks():
    """The registration example from the registry docstring, end to end."""

    class EchoCdclBackend(SolverBackend):
        name = "echo-cdcl"

        def check(self, cnf, assumptions=(), limits=None):
            verdict, assignment, conflicts = solve_dimacs(cnf)
            return BackendResult(verdict, conflicts=conflicts,
                                 assignment=assignment)

    register_backend("echo-cdcl", EchoCdclBackend, cls=EchoCdclBackend)
    try:
        assert "echo-cdcl" in available_backends()
        solver = Solver(backend="echo-cdcl")
        x = _sat_query(solver)
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
        assert solver.backend_name == "echo-cdcl"
    finally:
        _registry._REGISTRY.pop("echo-cdcl", None)


# ---------------------------------------------------------------------------
# SolverConfig resolution
# ---------------------------------------------------------------------------


def test_solver_config_has_exactly_backend_and_pipeline():
    import dataclasses

    fields = [field.name for field in dataclasses.fields(SolverConfig)]
    assert fields == ["backend", "pipeline"]


def test_solver_config_defaults_to_incremental_and_takes_three_pipelines():
    assert SolverConfig().pipeline == "incremental"
    assert SolverConfig() == SolverConfig(pipeline="incremental")
    for pipeline in ("incremental", "fresh", "unfolded"):
        assert SolverConfig(pipeline=pipeline).pipeline == pipeline


@pytest.mark.parametrize("pipeline", [None, "", "Fresh", "substitution"])
def test_solver_config_rejects_none_and_unknown_pipelines(pipeline):
    with pytest.raises(ValueError, match="unknown pipeline"):
        SolverConfig(pipeline=pipeline)


def test_solver_config_backend_instance_reaches_solver():
    backend = SubprocessDimacsBackend(command=_fake_command())
    config = SolverConfig(backend=backend)
    solver = Solver(backend=config.backend)
    assert solver.backend is backend
    assert solver.backend_name == "subprocess-dimacs"


# ---------------------------------------------------------------------------
# subprocess-dimacs: discovery and the failure taxonomy
# ---------------------------------------------------------------------------


def test_solver_env_var_pins_the_command(monkeypatch):
    monkeypatch.setenv(
        SOLVER_ENV, f"{sys.executable} {FAKE_SOLVER}")
    backend = SubprocessDimacsBackend()
    assert backend.command == [sys.executable, FAKE_SOLVER]


def test_no_solver_anywhere_raises_backend_unavailable(monkeypatch):
    monkeypatch.delenv(SOLVER_ENV, raising=False)
    monkeypatch.setenv("PATH", "")
    with pytest.raises(BackendUnavailable, match="found no SAT solver"):
        SubprocessDimacsBackend()


def test_subprocess_happy_path_sat_and_unsat():
    solver = Solver(backend=SubprocessDimacsBackend(command=_fake_command()))
    x = _sat_query(solver)
    assert solver.check() is SAT
    assert solver.model().value(x) == 9
    solver.add(T.bv_eq(x, T.bv_const(3, 8)))
    assert solver.check() is UNSAT


@pytest.mark.parametrize("flag,reason", [
    ("--unknown", "backend-error"),
    ("--garbage", "backend-error"),
    ("--modelless", "backend-error"),
    ("--crash", "backend-error"),
])
def test_subprocess_misbehavior_degrades_to_canonical_unknown(flag, reason):
    solver = Solver(
        backend=SubprocessDimacsBackend(command=_fake_command(flag)))
    _sat_query(solver)
    verdict = solver.check()
    assert verdict.name == "unknown"
    assert verdict.reason == reason
    assert is_canonical(verdict.reason)


def test_subprocess_hang_is_killed_at_the_deadline():
    solver = Solver(
        backend=SubprocessDimacsBackend(command=_fake_command("--hang", "60")))
    _sat_query(solver)
    verdict = solver.check(timeout=0.5)
    assert verdict.name == "unknown"
    assert verdict.reason == "deadline"


def test_subprocess_kill_reaps_child_and_leaves_no_temp_files(
        tmp_path, monkeypatch):
    """Deadline-killing a hung solver must reap the child *before* the
    workdir is removed — a kill that raced the rmtree used to leak the
    ``repro-dimacs-*`` temp dir (minisat's result file lives there)."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    solver = Solver(backend=SubprocessDimacsBackend(
        command=_fake_command("--hang", "60")))
    _sat_query(solver)
    verdict = solver.check(timeout=0.3)
    assert verdict.name == "unknown"
    assert verdict.reason == "deadline"
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.name.startswith("repro-dimacs-")]
    assert leftovers == []


def test_lying_subprocess_sat_is_a_malformed_model():
    """``--flip`` answers SAT to an UNSAT query with a fabricated
    witness; the facade checks it against the CNF and refuses it."""
    solver = Solver(
        backend=SubprocessDimacsBackend(command=_fake_command("--flip")))
    x = _sat_query(solver)
    solver.add(T.bv_eq(x, T.bv_const(3, 8)))
    verdict = solver.check()
    assert verdict.name == "unknown"
    assert verdict.reason == "malformed-model"


# ---------------------------------------------------------------------------
# Witness checks on every stateless SAT
# ---------------------------------------------------------------------------


class BareSatBackend(SolverBackend):
    """A stateless backend that answers a bare "sat", with no witness."""

    name = "bare-sat"

    def check(self, cnf, assumptions=(), limits=None):
        return BackendResult("sat", conflicts=7)


def test_stateless_sat_without_a_witness_is_a_backend_error():
    solver = Solver(backend=BareSatBackend())
    x = _sat_query(solver)
    solver.add(T.bv_eq(x, T.bv_const(3, 8)))
    verdict = solver.check()
    assert verdict.name == "unknown"
    assert verdict.reason == "backend-error"
    assert solver.conflicts == 7  # the work is still charged


# ---------------------------------------------------------------------------
# incremental-subprocess: the persistent out-of-process core
# ---------------------------------------------------------------------------


def _incremental_solver(**kwargs):
    from repro.smt.backends import IncrementalSubprocessBackend

    return Solver(backend=IncrementalSubprocessBackend(**kwargs))


def test_incremental_subprocess_happy_path_and_assumptions():
    solver = _incremental_solver()
    try:
        x = _sat_query(solver)
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
        # Native assumptions: the base formula survives a failed probe.
        assert solver.check(
            assumptions=[T.bv_eq(x, T.bv_const(3, 8))]) is UNSAT
        assert solver.check() is SAT
        solver.add(T.bv_eq(x, T.bv_const(3, 8)))
        assert solver.check() is UNSAT
    finally:
        solver.backend.close()


def test_incremental_subprocess_echoes_trace_context():
    from repro.obs import new_trace_id, trace_context

    solver = _incremental_solver()
    backend = solver.backend
    tid = new_trace_id()
    try:
        x = _sat_query(solver)
        with trace_context(tid):
            assert solver.check() is SAT
        # The child echoed the shipped context on its result line: the
        # persistent subprocess's work is attributable to the submitter.
        assert backend.last_wire_ctx == tid
        assert solver.model().value(x) == 9
        # Outside any context the parent clears the child's token.
        assert solver.check() is SAT
        assert backend.last_wire_ctx is None
    finally:
        backend.close()


def test_incremental_subprocess_crash_is_contained_and_replayed():
    solver = _incremental_solver()
    backend = solver.backend
    try:
        x = _sat_query(solver)
        assert solver.check() is SAT
        backend.inject_fault("crash")
        # Depending on who wins the race, the next check either observes
        # the crash mid-solve (retryable unknown) or finds the corpse up
        # front and replays immediately (SAT) — both are containment.
        verdict = solver.check()
        if verdict is not SAT:
            assert verdict.name == "unknown"
            assert verdict.reason == "worker-crashed"
            assert is_canonical(verdict.reason)
        # The respawned child replays the clause mirror: same verdict,
        # same model, accumulated state intact.
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
        assert backend.respawns >= 1
    finally:
        backend.close()


def test_incremental_subprocess_hang_trips_the_watchdog():
    solver = _incremental_solver(heartbeat_interval=0.1, watchdog_grace=3.0)
    backend = solver.backend
    try:
        _sat_query(solver)
        backend.inject_fault("hang")
        verdict = solver.check()
        assert verdict.name == "unknown"
        assert verdict.reason == "heartbeat-lost"
        assert is_canonical(verdict.reason)
        assert solver.check() is SAT
    finally:
        backend.close()


def test_incremental_subprocess_oom_reports_memory():
    solver = _incremental_solver(mem_limit_mb=256)
    backend = solver.backend
    try:
        _sat_query(solver)
        backend.inject_fault("oom")
        verdict = solver.check()
        if verdict is not SAT:  # see the crash test for the race
            assert verdict.name == "unknown"
            # Three legitimate deaths: the allocator trips the rlimit
            # (worker-oom), the kernel kills the child outright
            # (worker-crashed), or the allocation stalls the heartbeat
            # thread long enough for the watchdog to fire first
            # (heartbeat-lost).  All are retryable; the next check must
            # respawn and replay either way.
            assert verdict.reason in (
                "worker-oom", "worker-crashed", "heartbeat-lost")
            assert is_canonical(verdict.reason)
        assert solver.check() is SAT
        assert backend.respawns >= 1
    finally:
        backend.close()


def test_incremental_subprocess_rejects_one_shot_cnf():
    from repro.smt.backends import IncrementalSubprocessBackend
    from repro.smt.dimacs import from_dimacs

    backend = IncrementalSubprocessBackend()
    with pytest.raises(ValueError, match="pass cnf=None"):
        backend.check(from_dimacs("p cnf 1 1\n1 0\n"))


def test_incremental_worker_env_var_pins_the_command(monkeypatch):
    from repro.smt.backends import IncrementalSubprocessBackend, WORKER_ENV

    monkeypatch.setenv(
        WORKER_ENV, f"{sys.executable} {FAKE_SOLVER} --incremental")
    solver = Solver(backend=IncrementalSubprocessBackend())
    try:
        assert FAKE_SOLVER in solver.backend.describe()
        x = _sat_query(solver)
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
        assert solver.check(
            assumptions=[T.bv_eq(x, T.bv_const(9, 8))]) is SAT
        assert solver.check(
            assumptions=[T.bv_eq(x, T.bv_const(3, 8))]) is UNSAT
    finally:
        solver.backend.close()


def test_fake_incremental_peer_crash_containment():
    """The independently written protocol peer dying mid-solve must look
    exactly like the real worker dying: retryable unknown, then replay."""
    from repro.smt.backends import IncrementalSubprocessBackend

    solver = Solver(backend=IncrementalSubprocessBackend(
        command=[sys.executable, FAKE_SOLVER, "--incremental", "--crash"]))
    backend = solver.backend
    try:
        x = _sat_query(solver)
        verdict = solver.check()
        assert verdict.name == "unknown"
        assert verdict.reason == "worker-crashed"
        # --crash only arms the first solve of a child; the respawned
        # peer answers honestly from the replayed mirror... except every
        # fresh child re-arms.  Pin the honest command for the retry.
        backend._command = [sys.executable, FAKE_SOLVER, "--incremental"]
        assert solver.check() is SAT
        assert solver.model().value(x) == 9
        assert backend.respawns >= 1
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Canonical unknown-reason taxonomy
# ---------------------------------------------------------------------------


def test_normalize_reason_aliases():
    assert normalize_reason("timeout") == "deadline"
    assert normalize_reason("garbage") == "backend-error"
    assert normalize_reason("") == "unspecified"
    assert normalize_reason(None) == "unspecified"


def test_normalize_reason_passes_canonical_through():
    for reason in CANONICAL_REASONS:
        assert normalize_reason(reason) == reason
        assert is_canonical(reason)


def test_unknown_verdicts_from_the_facade_are_canonical():
    # Pinned to the in-process core: the conflict cap is what trips.
    solver = Solver(backend="inprocess")
    x = T.bv_var("hard_p", 14)
    y = T.bv_var("hard_q", 14)
    solver.add(T.bv_eq(T.bv_mul(T.zero_extend(x, 28), T.zero_extend(y, 28)),
                       T.bv_const(9409 * 89, 28)))
    solver.add(T.bv_ugt(x, T.bv_const(1, 14)))
    solver.add(T.bv_ugt(y, T.bv_const(1, 14)))
    verdict = solver.check(max_conflicts=1)
    assert verdict.name == "unknown"
    assert is_canonical(verdict.reason)


# ---------------------------------------------------------------------------
# Obs attribution: zero unattributed solver queries
# ---------------------------------------------------------------------------


def test_every_solver_query_event_names_its_backend(tmp_path):
    from repro.obs import Tracer, installed
    from repro.obs.report import solver_queries
    from repro.obs.schema import load_events

    path = tmp_path / "backends.jsonl"
    tracer = Tracer(path, run_id="backend-attrib")
    with installed(tracer):
        for backend in ("inprocess", SubprocessDimacsBackend(
                command=_fake_command())):
            solver = Solver(backend=backend)
            _sat_query(solver)
            solver.check()
    tracer.close()
    events, _ = load_events(path)
    queries = solver_queries(events)
    assert len(queries) == 2
    seen = {q["backend"] for q in queries}
    assert seen == {"inprocess", "subprocess-dimacs"}
    for query in queries:
        assert query["backend"], "unattributed solver query"
        # One field names the backend; the old duplicate is gone.
        assert "execution" not in query
