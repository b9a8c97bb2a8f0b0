"""Differential testing across every registered solver backend.

The backend seam's contract is that the decision procedure is
interchangeable: the in-process CDCL core, the sandboxed persistent
child, an external DIMACS solver and a portfolio race must all return
the same SAT/UNSAT verdicts —
and, because CEGIS is deterministic given those verdicts, bit-identical
synthesized control logic — on the same designs.  Any divergence means a
backend is mistranslating queries or models.  One encoder (the facade's)
serves every backend, so the same query also charges the same encode
counters everywhere.

The external backend runs against the bundled fake solver (which really
solves, via the repo's own CDCL), so this suite is hermetic: no kissat
or minisat install is needed.
"""

import os
import sys

import pytest

from repro.designs import accumulator, alu_machine
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.backends.subprocess_dimacs import SubprocessDimacsBackend
from repro.smt.counters import COUNTERS
from repro.smt.solver import SAT, UNSAT
from repro.synthesis import synthesize, verify_design

FAKE_SOLVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fake_sat_solver.py")

BACKENDS = ("inprocess", "subprocess-dimacs", "incremental-subprocess",
            "portfolio")


def _make_config(backend_name):
    if backend_name == "incremental-subprocess":
        # By *name*, not instance: every Solver must get its own child
        # (the backend is stateful — it IS the solver's encoding core).
        # The default command is the repo's own worker, so this row is
        # hermetic too.
        return SolverConfig(backend="incremental-subprocess")
    if backend_name == "subprocess-dimacs":
        return SolverConfig(backend=SubprocessDimacsBackend(
            command=[sys.executable, FAKE_SOLVER]))
    if backend_name == "portfolio":
        # The acceptance-criteria chaos portfolio: the honest CDCL racing
        # a member that hangs forever and one that crashes instantly.
        from repro.smt.backends import PortfolioBackend

        return SolverConfig(backend=PortfolioBackend(members=[
            "inprocess",
            SubprocessDimacsBackend(
                command=[sys.executable, FAKE_SOLVER, "--hang", "60"]),
            SubprocessDimacsBackend(
                command=[sys.executable, FAKE_SOLVER, "--crash"]),
        ]))
    return SolverConfig(backend=backend_name)


@pytest.fixture(scope="module", params=[accumulator, alu_machine],
                ids=["accumulator", "alu_machine"])
def results_by_backend(request):
    """One synthesis result per registered backend, same problem."""
    design = request.param
    results = {}
    for name in BACKENDS:
        problem = design.build_problem()
        results[name] = synthesize(problem, timeout=300,
                                   config=_make_config(name))
    return design, results


def test_backends_report_their_own_name(results_by_backend):
    _, results = results_by_backend
    for name, result in results.items():
        assert result.stats["backend"] == name


def test_all_backends_solve_every_instruction(results_by_backend):
    _, results = results_by_backend
    reference = results["inprocess"]
    for name, result in results.items():
        assert len(result.per_instruction) == \
            len(reference.per_instruction), name


def test_control_logic_is_bit_identical_across_backends(results_by_backend):
    """The tentpole acceptance bar: identical hole values everywhere."""
    _, results = results_by_backend
    reference = results["inprocess"]
    for name, result in results.items():
        for solution in reference.per_instruction:
            assert result.hole_values_for(solution.instruction_name) \
                == solution.hole_values, (name, solution.instruction_name)


def test_backends_match_published_reference_values(results_by_backend):
    design, results = results_by_backend
    expected = getattr(design, "REFERENCE_HOLE_VALUES", None)
    if expected is None:
        pytest.skip(f"{design.__name__} publishes no reference values")
    for name, result in results.items():
        for instruction, values in expected.items():
            assert result.hole_values_for(instruction) == values, \
                (name, instruction)


def test_every_backend_result_verifies_independently(results_by_backend):
    design, results = results_by_backend
    problem = design.build_problem()
    for name, result in results.items():
        verdict = verify_design(result.completed_design, problem.spec,
                                problem.alpha)
        assert verdict.ok, (name, verdict.summary())


# ---------------------------------------------------------------------------
# Raw verdict differential: the same queries straight through the facade.
# ---------------------------------------------------------------------------


def _solver_for(backend_name):
    return Solver(backend=_make_config(backend_name).backend)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_sat_verdicts_and_models_agree(backend_name):
    solver = _solver_for(backend_name)
    x = T.bv_var("x", 8)
    solver.add(T.bv_eq(T.bv_add(x, T.bv_const(1, 8)), T.bv_const(10, 8)))
    assert solver.check() is SAT
    assert solver.model().value(x) == 9


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_unsat_verdicts_agree(backend_name):
    solver = _solver_for(backend_name)
    x = T.bv_var("x", 8)
    solver.add(T.bv_eq(x, T.bv_const(3, 8)))
    solver.add(T.bv_eq(x, T.bv_const(4, 8)))
    assert solver.check() is UNSAT


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_assumption_verdicts_agree(backend_name):
    """Assumptions work on every backend — natively on incremental ones,
    by re-encoding as unit constraints on stateless ones."""
    solver = _solver_for(backend_name)
    x = T.bv_var("x", 8)
    solver.add(T.bv_ult(x, T.bv_const(10, 8)))
    assert solver.check(
        assumptions=[T.bv_eq(x, T.bv_const(4, 8))]) is SAT
    assert solver.check(
        assumptions=[T.bv_eq(x, T.bv_const(12, 8))]) is UNSAT
    # The base formula is untouched by failed assumptions.
    assert solver.check() is SAT


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_query_folding_to_true_is_sat(backend_name):
    """A CNF with no clauses is satisfiable; its witness is empty."""
    solver = _solver_for(backend_name)
    x = T.bv_var("x", 8)
    solver.add(T.bv_eq(x, x))
    assert solver.check() is SAT


def _encode_counters(backend_name):
    """Encode counters charged by one fixed query: two assertions, then
    a plain check and two assumption checks."""
    fields = ("aig_nodes", "tseitin_clauses", "solver_instances")
    before = {name: getattr(COUNTERS, name) for name in fields}
    solver = _solver_for(backend_name)
    x = T.bv_var("x", 8)
    y = T.bv_var("y", 8)
    solver.add(T.bv_ult(x, T.bv_const(100, 8)))
    solver.add(T.bv_eq(T.bv_add(x, y), T.bv_const(42, 8)))
    assert solver.check() is SAT
    assert solver.check(assumptions=[T.bv_eq(y, T.bv_const(3, 8))]) is SAT
    assert solver.check(
        assumptions=[T.bv_eq(x, T.bv_const(200, 8))]) is UNSAT
    if backend_name == "incremental-subprocess":
        solver.backend.close()
    return {name: getattr(COUNTERS, name) - before[name]
            for name in fields}


def test_encode_counters_are_identical_across_backends():
    """One encoder serves every backend, so the same query charges the
    same AIG nodes, Tseitin clauses and solver instances everywhere."""
    reference = _encode_counters("inprocess")
    assert reference["tseitin_clauses"] > 0
    for name in BACKENDS[1:]:
        assert _encode_counters(name) == reference, name
