"""End-to-end synthesis on the process-isolated (sandboxed) backend.

The acceptance property: a ``backend="incremental-subprocess"`` run
survives child deaths injected mid-synthesis — a hard crash and a hang —
and still completes correct, independently verified control logic, with
every child process accounted for and reaped by the time ``synthesize``
returns.
"""

import pytest

from repro.designs import alu_machine
from repro.obs import METRICS
from repro.runtime import FaultInjector
from repro.smt.backends import SolverConfig
from repro.smt.solver import SAT, UNSAT
from repro.synthesis import PartialSynthesisResult, synthesize, verify_design
from repro.synthesis.incremental import IncrementalContext

from tests.runtime.worker_procs import live_worker_pids, reader_threads

SANDBOXED = SolverConfig(backend="incremental-subprocess")


@pytest.fixture
def alu_problem():
    return alu_machine.build_problem()


def _assert_reference_values(result):
    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert result.hole_values_for(name) == expected, name


@pytest.mark.parametrize("check_independence", [True, False])
def test_isolated_survives_injected_crash_and_hang(alu_problem,
                                                   check_independence):
    before = METRICS.snapshot()
    injector = FaultInjector()
    injector.inject_worker_crash(at_request=2)
    injector.inject_worker_hang(at_request=4)
    with injector.installed():
        result = synthesize(alu_problem, config=SANDBOXED, timeout=300,
                            check_independence=check_independence)
    assert [kind for kind, _ in injector.fired] == [
        "worker:crash", "worker:hang",
    ]
    _assert_reference_values(result)
    verdict = verify_design(result.completed_design, alu_problem.spec,
                            alu_problem.alpha)
    assert verdict.ok, verdict.summary()
    delta = METRICS.delta_since(before)
    # Both deaths were contained and retried on a respawned child...
    assert delta["worker.crashes"] >= 2
    assert delta["worker.watchdog_kills"] >= 1
    # ...and nothing leaked: every spawned child was collected.
    assert delta["worker.spawned"] == delta["worker.reaped"]
    retries = delta.get("cegis.retries", 0)
    if check_independence:
        # The independence check's pair queries come first, so both
        # deaths land there and CEGIS never sees one.
        assert retries == 0
    else:
        # Without it, both deaths hit CEGIS queries and take its retry
        # path: an unknown verdict, a reseeded re-ask, a correct answer.
        assert retries >= 2


def test_isolated_matches_inprocess_solutions(alu_problem):
    inproc = synthesize(alu_problem, timeout=300)
    sandboxed = synthesize(alu_problem, config=SANDBOXED, timeout=300)
    assert sandboxed.stats["backend"] == "incremental-subprocess"
    for solution in inproc.per_instruction:
        assert sandboxed.hole_values_for(solution.instruction_name) \
            == solution.hole_values
    _assert_reference_values(sandboxed)


def test_engine_owned_pool_is_shut_down(alu_problem):
    # Every child the run spawned is reaped when synthesize returns —
    # observable as zero live worker processes and no reader threads,
    # without waiting for garbage collection.
    pids_before, threads_before = live_worker_pids(), reader_threads()
    before = METRICS.snapshot()
    result = synthesize(alu_problem, config=SANDBOXED, timeout=300)
    _assert_reference_values(result)
    assert live_worker_pids() - pids_before == set()
    assert reader_threads() - threads_before == set()
    delta = METRICS.delta_since(before)
    assert delta["worker.spawned"] > 0
    assert delta["worker.spawned"] == delta["worker.reaped"]


def test_run_reaps_children_of_solvers_that_outlive_it(alu_problem,
                                                      monkeypatch):
    # Reaping at the end of a run must not depend on garbage collection:
    # even when something keeps the run's solvers alive, their children
    # are gone once synthesize returns — and a kept solver respawns and
    # replays if it is ever checked again.  The context releases each
    # verifier when its instruction ends, so the test holds them itself.
    solvers = []
    original_folded_solver = IncrementalContext._folded_solver

    def keeping_folded_solver(self, formula):
        solver = original_folded_solver(self, formula)
        solvers.append(solver)
        return solver

    monkeypatch.setattr(IncrementalContext, "_folded_solver",
                        keeping_folded_solver)
    pids_before, threads_before = live_worker_pids(), reader_threads()
    synthesize(alu_problem, config=SANDBOXED, timeout=300)
    assert solvers
    assert live_worker_pids() - pids_before == set()
    assert reader_threads() - threads_before == set()
    solver = solvers[0]
    try:
        assert solver.check() in (SAT, UNSAT)
    finally:
        solver.backend.close()


def test_partial_run_reaps_its_children(alu_problem):
    # A run that stops early (drained at its first checkpoint) returns a
    # partial result — and still leaves no child or reader thread alive.
    pids_before, threads_before = live_worker_pids(), reader_threads()
    partial = synthesize(alu_problem, config=SANDBOXED, timeout=300,
                         checkpoint=lambda snapshot: False,
                         on_timeout="partial")
    assert isinstance(partial, PartialSynthesisResult)
    assert partial.reason == "drained"
    assert partial.completed_count == 1
    assert live_worker_pids() - pids_before == set()
    assert reader_threads() - threads_before == set()


def test_persistent_crasher_trips_breaker_and_completes(alu_problem):
    # Every child solve crashes; each solver's circuit breaker must open
    # and finish its checks in-process, and the run still completes.
    before = METRICS.snapshot()
    injector = FaultInjector().inject_worker_crash(at_request="all")
    with injector.installed():
        result = synthesize(alu_problem, config=SANDBOXED, timeout=300)
    _assert_reference_values(result)
    delta = METRICS.delta_since(before)
    assert delta["worker.fallbacks"] > 0
    assert delta["worker.spawned"] == delta["worker.reaped"]


def test_isolated_monolithic_mode(alu_problem):
    result = synthesize(alu_problem, mode="monolithic", config=SANDBOXED,
                        timeout=300)
    _assert_reference_values(result)


def test_isolated_verifier(alu_problem):
    completed = synthesize(alu_problem, timeout=300).completed_design
    verdict = verify_design(completed, alu_problem.spec, alu_problem.alpha,
                            config=SANDBOXED)
    assert verdict.ok, verdict.summary()
