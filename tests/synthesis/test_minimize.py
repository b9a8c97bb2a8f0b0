"""Tests for the control-minimization post-pass."""

import pytest

from repro.designs import alu_machine
from repro.oyster import ast as oy
from repro.smt.backends import OneShotCdclBackend, SolverConfig
from repro.synthesis import synthesize, verify_design
from repro.synthesis.engine import splice_control
from repro.synthesis.minimize import minimize_solutions
from repro.synthesis.result import InstructionSolution
from repro.synthesis.union import control_union


@pytest.fixture(scope="module")
def problem():
    return alu_machine.build_problem()


def test_minimize_preserves_correctness(problem):
    result = synthesize(problem, timeout=300)
    minimized, report = minimize_solutions(problem, result.per_instruction)
    hole_exprs, stmts = control_union(problem, minimized)
    completed = splice_control(problem.sketch, stmts)
    verdict = verify_design(completed, problem.spec, problem.alpha)
    assert verdict.ok, verdict.summary()
    assert report.checks >= 0
    assert "control minimization" in report.summary()


def _dont_care_problem():
    """A sketch with a genuinely unused hole, plus artificially
    fragmented (but correct) solutions for it."""
    from repro import hdl
    from repro.abstraction import parse_abstraction
    from repro.ila import BvConst, Ila
    from repro.synthesis import SynthesisProblem

    ila = Ila("dc")
    op = ila.new_bv_input("op", 2)
    acc = ila.new_bv_state("acc", 8)
    for code, delta in ((0, 1), (1, 2), (2, 3)):
        instr = ila.new_instr(f"ADD{delta}")
        instr.set_decode(op == BvConst(code, 2))
        instr.set_update(acc, acc + delta)
    with hdl.Module("dc_dp") as module:
        op_w = hdl.Input(2, "op")
        acc_r = hdl.Register(8, "acc")
        amount = hdl.Hole(2, "amount", deps=[op_w])
        unused = hdl.Hole(2, "unused", deps=[op_w])
        delta = hdl.mux(amount, hdl.Const(0, 8), hdl.Const(1, 8),
                        hdl.Const(2, 8), hdl.Const(3, 8))
        sink = (unused ^ unused).label("sink")  # hole wired to nothing real
        acc_r.next <<= acc_r + delta
    problem = SynthesisProblem(
        module.to_oyster(), ila.validate(),
        parse_abstraction(
            "op: {name: 'op', type: input, [read: 1]}\n"
            "acc: {name: 'acc', type: register, [read: 1, write: 1]}\n"
            "with cycles: 1\n"
        ),
    )
    solutions = [
        InstructionSolution("ADD1", {"amount": 1, "unused": 0}, 1, 0.0),
        InstructionSolution("ADD2", {"amount": 2, "unused": 1}, 1, 0.0),
        InstructionSolution("ADD3", {"amount": 3, "unused": 2}, 1, 0.0),
    ]
    return problem, solutions


def test_minimize_merges_dont_cares():
    """A sketch with a genuinely unused hole must collapse to one group."""
    problem, solutions = _dont_care_problem()
    minimized, report = minimize_solutions(problem, solutions)
    values = {s.hole_values["unused"] for s in minimized}
    assert len(values) == 1  # don't-care fully merged
    assert {s.hole_values["amount"] for s in minimized} == {1, 2, 3}
    assert report.distinct_after["unused"] == 1
    assert report.merged >= 2
    # And the resulting union emits a bare constant for the unused hole.
    hole_exprs, _ = control_union(problem, minimized)
    assert isinstance(hole_exprs["unused"], oy.Const)


class CountingBackend(OneShotCdclBackend):
    name = "counting"

    def __init__(self):
        self.checks = 0

    def check(self, cnf, assumptions=(), limits=None):
        self.checks += 1
        return super().check(cnf, assumptions, limits)


@pytest.mark.parametrize("pipeline", ["fresh", "incremental"])
def test_minimize_probes_run_on_the_configured_backend(pipeline):
    backend = CountingBackend()
    problem, solutions = _dont_care_problem()
    minimized, report = minimize_solutions(
        problem, solutions,
        config=SolverConfig(backend=backend, pipeline=pipeline))
    assert len({s.hole_values["unused"] for s in minimized}) == 1
    # Probes that fold to a constant never reach a backend; every other
    # one must reach the configured backend.
    assert 0 < backend.checks <= report.checks
