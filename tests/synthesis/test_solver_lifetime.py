"""Solver state lives for one CEGIS run, not for the whole engine run.

Per-instruction queries are independent (§3.3.1), so no instruction
reuses another's verifier: a finished instruction's SAT cores and, under
``incremental-subprocess``, its children must be gone before the next
instruction starts.  Liveness is read through weak references with the
cyclic collector off, so only reference counting can free what these
tests expect to be freed.
"""

import contextlib
import gc
import weakref

import pytest

from repro.designs import alu_machine
from repro.runtime import FaultInjector, SolverUnknown
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.bitblast import BitBlaster
from repro.smt.counters import COUNTERS
from repro.smt.sat.solver import SatSolver
from repro.synthesis import synthesize
from repro.synthesis.cegis import cegis_solve
from repro.synthesis.incremental import IncrementalContext
from repro.synthesis.result import SynthesisFailure, SynthesisTimeout

from tests.runtime.worker_procs import live_worker_pids, reader_threads

INCREMENTAL = SolverConfig(pipeline="incremental")


@contextlib.contextmanager
def _refcounting_only():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_no_sat_core_outlives_its_instruction(monkeypatch):
    cores = []
    original_init = SatSolver.__init__

    def tracking_init(self):
        original_init(self)
        cores.append(weakref.ref(self))

    monkeypatch.setattr(SatSolver, "__init__", tracking_init)
    problem = alu_machine.build_problem()
    live_at_checkpoints = []

    def checkpoint(snapshot):
        # Between instructions no CEGIS run is active, so every core
        # built so far (independence check, finished instructions'
        # guess and verify solvers) must already be freed.
        live_at_checkpoints.append(
            sum(ref() is not None for ref in cores))

    with _refcounting_only():
        result = synthesize(problem, timeout=300, checkpoint=checkpoint)
    assert len(result.per_instruction) == len(problem.spec.instructions)
    assert len(live_at_checkpoints) == len(problem.spec.instructions)
    assert cores
    assert live_at_checkpoints == [0] * len(live_at_checkpoints)


def test_no_worker_child_outlives_its_instruction():
    problem = alu_machine.build_problem()
    pids_before, threads_before = live_worker_pids(), reader_threads()
    leaked = []

    def checkpoint(snapshot):
        leaked.append((live_worker_pids() - pids_before,
                       reader_threads() - threads_before))

    with _refcounting_only():
        synthesize(problem, timeout=300, checkpoint=checkpoint,
                   config=SolverConfig(backend="incremental-subprocess"))
    assert len(leaked) == len(problem.spec.instructions)
    assert leaked == [(set(), set())] * len(leaked)


def _mixed_term():
    x = T.bv_var("life_x", 8)
    y = T.bv_var("life_y", 8)
    product = T.bv_mul(x, T.bv_add(y, T.bv_const(3, 8)))
    return T.bv_ite(T.bv_ult(x, y), product, T.bv_lshr(product, y))


def test_reblasting_after_a_memo_clear_builds_nothing():
    blaster = BitBlaster()
    first = blaster.blast(_mixed_term())
    nodes_before = COUNTERS.aig_nodes
    graph_before = len(blaster.aig)
    blaster.clear_memo()
    assert blaster._cache == {}
    # The term is rebuilt from scratch: the memo held the only strong
    # reference to the first one.
    again = blaster.blast(_mixed_term())
    assert again == first
    assert COUNTERS.aig_nodes == nodes_before
    assert len(blaster.aig) == graph_before


class _InterruptOnCheck(FaultInjector):
    def on_check(self):
        if self.check_count >= 1:
            raise KeyboardInterrupt
        return super().on_check()


def _solvable():
    h, x = T.bv_var("life_h", 8), T.bv_var("life_v", 8)
    return T.bv_eq(T.bv_add(x, h), T.bv_add(x, T.bv_const(5, 8))), h


def _unsolvable():
    h, x = T.bv_var("life_h2", 4), T.bv_var("life_v2", 4)
    return T.bv_eq(T.bv_add(x, h), T.bv_mul(x, x)), h


@pytest.mark.parametrize("outcome, make_formula, injector, raises", [
    ("solved", _solvable, None, None),
    ("failure", _unsolvable, None, SynthesisFailure),
    ("timeout", _solvable, lambda: FaultInjector().inject_deadline(1),
     SynthesisTimeout),
    ("unknown", _solvable,
     lambda: FaultInjector().inject_unknown(1, reason="backend-error"),
     SolverUnknown),
    ("interrupt", _solvable, _InterruptOnCheck, KeyboardInterrupt),
])
def test_every_exit_releases_the_verifier(outcome, make_formula, injector,
                                          raises):
    formula, hole = make_formula()
    ctx = IncrementalContext(INCREMENTAL)
    with contextlib.ExitStack() as stack:
        if injector is not None:
            stack.enter_context(injector().installed())
        if raises is not None:
            stack.enter_context(pytest.raises(raises))
        cegis_solve(formula, [hole], config=INCREMENTAL,
                    incremental_ctx=ctx)
    assert ctx._folded == {} and ctx._active == {}, outcome
    assert ctx.verifier_blaster._cache == {}, outcome
    assert ctx.guess_blaster._cache == {}, outcome
