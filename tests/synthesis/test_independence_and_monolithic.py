"""Tests for the instruction-independence checks and monolithic internals."""

import pytest

from repro import hdl
from repro.abstraction import parse_abstraction
from repro.designs import alu_machine
from repro.ila import BvConst, Ila
from repro.runtime import FaultInjector
from repro.smt import counters
from repro.smt.backends import OneShotCdclBackend, SolverConfig
from repro.smt.backends.incremental_subprocess import reap_children
from repro.synthesis import SynthesisProblem, synthesize
from repro.synthesis.independence import (
    IndependenceViolation,
    check_instruction_independence,
)
from repro.synthesis.monolithic import synthesize_monolithic_solutions
from repro.synthesis.result import SynthesisError


def test_alu_machine_passes_independence():
    problem = alu_machine.build_problem()
    notes = check_instruction_independence(problem)
    assert notes == []


def _overlapping_spec():
    """Two instructions whose decodes overlap (op == 1 vs op != 0)."""
    ila = Ila("overlap")
    op = ila.new_bv_input("op", 2)
    acc = ila.new_bv_state("acc", 8)
    first = ila.new_instr("FIRST")
    first.set_decode(op == BvConst(1, 2))
    first.set_update(acc, acc + 1)
    second = ila.new_instr("SECOND")
    second.set_decode(op != BvConst(0, 2))
    second.set_update(acc, acc - 1)
    return ila.validate()


def _tiny_sketch():
    with hdl.Module("tiny") as module:
        op = hdl.Input(2, "op")
        acc = hdl.Register(8, "acc")
        direction = hdl.Hole(1, "direction", deps=[op])
        acc.next <<= hdl.select(direction, acc + 1, acc - 1)
    return module.to_oyster()


_TINY_ALPHA = parse_abstraction(
    "op: {name: 'op', type: input, [read: 1]}\n"
    "acc: {name: 'acc', type: register, [read: 1, write: 1]}\n"
    "with cycles: 1\n"
)


def test_overlapping_decodes_detected():
    problem = SynthesisProblem(
        sketch=_tiny_sketch(), spec=_overlapping_spec(), alpha=_TINY_ALPHA
    )
    with pytest.raises(IndependenceViolation, match="simultaneously"):
        check_instruction_independence(problem)


def test_feedback_into_control_detected():
    """A decode-field binding computed from a hole violates no-feedback."""
    with hdl.Module("fb") as module:
        op_in = hdl.Input(2, "op_raw")
        acc = hdl.Register(8, "acc")
        scramble = hdl.Hole(2, "scramble")
        op = (op_in ^ scramble).label("op")  # control observes hole output
        direction = hdl.Hole(1, "direction", deps=[op])
        acc.next <<= hdl.select(direction, acc + 1, acc - 1)
    ila = Ila("fbspec")
    op_var = ila.new_bv_input("op", 2)
    acc_var = ila.new_bv_state("acc", 8)
    up = ila.new_instr("UP")
    up.set_decode(op_var == BvConst(1, 2))
    up.set_update(acc_var, acc_var + 1)
    alpha = parse_abstraction(
        "op: {name: 'op', type: input, [read: 1]}\n"
        "acc: {name: 'acc', type: register, [read: 1, write: 1]}\n"
        "with cycles: 1\n"
    )
    problem = SynthesisProblem(sketch=module.to_oyster(), spec=ila.validate(),
                               alpha=alpha)
    with pytest.raises(IndependenceViolation, match="depend on holes"):
        check_instruction_independence(problem)


class CountingBackend(OneShotCdclBackend):
    name = "counting"

    def __init__(self):
        self.checks = 0

    def check(self, cnf, assumptions=(), limits=None):
        self.checks += 1
        return super().check(cnf, assumptions, limits)


def test_pair_checks_run_on_the_configured_backend():
    backend = CountingBackend()
    problem = alu_machine.build_problem()
    notes = check_instruction_independence(
        problem, config=SolverConfig(backend=backend))
    assert notes == []
    # alu_machine's 4 instructions make 6 pairs; none folds to FALSE, so
    # every one is decided by the configured backend.
    assert backend.checks == 6


def test_pair_check_is_reasked_after_a_child_death():
    injector = FaultInjector().inject_worker_crash(at_request=1)
    with injector.installed(), reap_children():
        notes = check_instruction_independence(
            alu_machine.build_problem(),
            config=SolverConfig(backend="incremental-subprocess"))
    assert notes == []
    assert [kind for kind, _ in injector.fired] == ["worker:crash"]


def test_independence_builds_one_solver():
    problem = alu_machine.build_problem()
    before = counters.snapshot()
    check_instruction_independence(problem)
    assert counters.delta_since(before)["solver_instances"] == 1


def test_pairwise_budget_note():
    problem = alu_machine.build_problem()
    notes = check_instruction_independence(problem, max_pairwise=1)
    assert notes and "skipped" in notes[0]


# ---------------------------------------------------------------------------
# Monolithic internals
# ---------------------------------------------------------------------------


def test_monolithic_produces_per_instruction_solutions():
    problem = alu_machine.build_problem()
    solutions, stats = synthesize_monolithic_solutions(problem, timeout=600)
    assert {s.instruction_name for s in solutions} == set(
        alu_machine.OPCODES
    )
    for solution in solutions:
        expected = alu_machine.REFERENCE_HOLE_VALUES[
            solution.instruction_name
        ]
        assert solution.hole_values == expected
    assert stats.iterations >= 1


def test_monolithic_rejects_hole_dependent_decode():
    """Decodes must not observe holes (Equation (1) precondition)."""
    with hdl.Module("hd") as module:
        op = hdl.Input(2, "op")
        acc = hdl.Register(8, "acc")
        tweak = hdl.Hole(2, "tweak")
        mixed = (op ^ tweak).label("mixed")
        acc.next <<= acc + mixed.zext(8)
    ila = Ila("hdspec")
    op_var = ila.new_bv_input("op", 2)
    acc_var = ila.new_bv_state("acc", 8)
    instr = ila.new_instr("I")
    instr.set_decode(op_var == BvConst(1, 2))
    instr.set_update(acc_var, acc_var + 1)
    alpha = parse_abstraction(
        "op: {name: 'mixed', type: output, [read: 1]}\n"
        "acc: {name: 'acc', type: register, [read: 1, write: 1]}\n"
        "with cycles: 1\n"
    )
    problem = SynthesisProblem(sketch=module.to_oyster(), spec=ila.validate(),
                               alpha=alpha)
    with pytest.raises(SynthesisError, match="depends on holes"):
        synthesize_monolithic_solutions(problem, timeout=60)


def test_unknown_mode_rejected():
    problem = alu_machine.build_problem()
    with pytest.raises(ValueError, match="unknown synthesis mode"):
        synthesize(problem, mode="psychic")
