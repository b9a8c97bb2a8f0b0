"""Graceful SIGINT: KeyboardInterrupt follows the degradation contract.

An interrupt mid-synthesis must behave exactly like budget exhaustion:
the engine hands back (or attaches) a ``PartialSynthesisResult`` with
reason ``"interrupted"`` carrying every completed instruction, the handle
resumes, and any sandboxed solver children are reaped rather than orphaned.
"""

import pytest

from repro.designs import alu_machine
from repro.smt.backends import SolverConfig
from repro.synthesis import (
    PartialSynthesisResult,
    synthesize,
    verify_design,
)

from tests.runtime.worker_procs import live_worker_pids, reader_threads


@pytest.fixture
def alu_problem():
    return alu_machine.build_problem()


class _InterruptAfter:
    """A progress callback that raises KeyboardInterrupt mid-run."""

    def __init__(self, count=1):
        self.remaining = count
        self.seen = []

    def __call__(self, name, solution):
        self.seen.append(name)
        self.remaining -= 1
        if self.remaining == 0:
            raise KeyboardInterrupt


def test_interrupt_returns_partial_like_budget_exhaustion(alu_problem):
    interrupter = _InterruptAfter(1)
    partial = synthesize(alu_problem, timeout=300, progress=interrupter,
                         on_timeout="partial")
    assert isinstance(partial, PartialSynthesisResult)
    assert partial.reason == "interrupted"
    assert partial.completed_count == 1
    assert partial.pending  # work genuinely remained

    # The handle resumes exactly like a budget-exhaustion handle.
    resumed = synthesize(alu_problem, timeout=300,
                         resume_from=partial.to_dict())
    assert sorted(resumed.stats["resumed_instructions"]) \
        == sorted(interrupter.seen)
    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert resumed.hole_values_for(name) == expected
    verdict = verify_design(resumed.completed_design, alu_problem.spec,
                            alu_problem.alpha)
    assert verdict.ok, verdict.summary()


def test_interrupt_reraises_with_partial_attached(alu_problem):
    with pytest.raises(KeyboardInterrupt) as excinfo:
        synthesize(alu_problem, timeout=300, progress=_InterruptAfter(1))
    partial = excinfo.value.partial
    assert isinstance(partial, PartialSynthesisResult)
    assert partial.reason == "interrupted"
    assert partial.completed_count == 1


def test_interrupt_during_isolated_run_terminates_workers(alu_problem):
    config = SolverConfig(backend="incremental-subprocess")
    pids_before, threads_before = live_worker_pids(), reader_threads()
    partial = synthesize(alu_problem, config=config, timeout=300,
                         progress=_InterruptAfter(1), on_timeout="partial")
    assert isinstance(partial, PartialSynthesisResult)
    assert partial.reason == "interrupted"
    assert partial.completed_count >= 1
    # The interrupted run left no child process or reader thread behind.
    assert live_worker_pids() - pids_before == set()
    assert reader_threads() - threads_before == set()
    # Resuming from the handle completes the design.
    resumed = synthesize(alu_problem, config=config, timeout=300,
                         resume_from=partial.to_dict())
    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert resumed.hole_values_for(name) == expected
    verdict = verify_design(resumed.completed_design, alu_problem.spec,
                            alu_problem.alpha)
    assert verdict.ok, verdict.summary()
    assert live_worker_pids() - pids_before == set()


def test_interrupt_in_monolithic_mode(alu_problem):
    # Monolithic has no per-instruction progress, so interrupt the run
    # via the fault-injection hook on the solver facade instead.
    from repro.runtime import FaultInjector

    class _Raiser(FaultInjector):
        def on_check(self):
            if self.check_count >= 1:
                raise KeyboardInterrupt
            return super().on_check()

    with _Raiser().installed():
        partial = synthesize(alu_problem, mode="monolithic", timeout=300,
                             on_timeout="partial")
    assert isinstance(partial, PartialSynthesisResult)
    assert partial.reason == "interrupted"
    assert partial.completed == []


def test_sigterm_degrades_exactly_like_sigint(alu_problem):
    # SIGTERM mid-run must follow the same degradation contract as
    # Ctrl-C: partial with reason "interrupted", resumable handle, and
    # the previous handler restored afterwards.
    import os
    import signal

    sentinel = object()
    previous = signal.signal(signal.SIGTERM, lambda s, f: sentinel)

    class _TermAfter:
        def __init__(self):
            self.seen = []

        def __call__(self, name, solution):
            self.seen.append(name)
            if len(self.seen) == 1:
                os.kill(os.getpid(), signal.SIGTERM)

    try:
        terminator = _TermAfter()
        partial = synthesize(alu_problem, timeout=300,
                             progress=terminator, on_timeout="partial")
        assert isinstance(partial, PartialSynthesisResult)
        assert partial.reason == "interrupted"
        assert partial.completed_count == 1
        assert partial.pending
        # The engine restored the handler it displaced.
        assert signal.getsignal(signal.SIGTERM)(None, None) is sentinel

        resumed = synthesize(alu_problem, timeout=300,
                             resume_from=partial.to_dict())
        assert sorted(resumed.stats["resumed_instructions"]) \
            == sorted(terminator.seen)
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_sigterm_handler_scope_is_run_local(alu_problem):
    # Outside synthesize() the process default is untouched.
    import signal

    before = signal.getsignal(signal.SIGTERM)
    synthesize(alu_problem, timeout=300)
    assert signal.getsignal(signal.SIGTERM) is before
