"""Instruction-independence checks (Section 3.3.1).

The per-instruction optimization is sound only when:

1. **Mutually exclusive preconditions** — no two instructions can decode at
   once (checked with the solver over a shared symbolic trace);
2. **No feedback into control** — the signals the generated control logic
   observes (the decode-field bindings) must not themselves depend on holes,
   except through the valid wires named by the abstraction function's
   ``assume`` clause.
"""

from __future__ import annotations

from repro.ila.compiler import ConstraintCompiler
from repro.oyster.analysis import transitive_dependencies
from repro.oyster.symbolic import SymbolicEvaluator
from repro.runtime import RetryPolicy, SolverUnknown, run_with_retry
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.solver import Solver, SAT, UNKNOWN
from repro.synthesis.result import SynthesisError

__all__ = [
    "check_instruction_independence",
    "IndependenceViolation",
]


class IndependenceViolation(SynthesisError):
    """The sketch/spec pair violates the instruction-independence property."""


def check_instruction_independence(problem, timeout_per_pair=5.0,
                                   max_pairwise=4096, config=None):
    """Raise ``IndependenceViolation`` if either condition fails.

    The pairwise-exclusion check is skipped (with a returned note) when the
    number of instruction pairs exceeds ``max_pairwise``.  ``config`` is a
    :class:`repro.smt.backends.SolverConfig` (``None`` means
    ``SolverConfig()``); its backend decides every pair, whatever its
    pipeline.
    """
    config = config or SolverConfig()
    notes = []
    _check_no_feedback(problem)
    pair_count = len(problem.spec.instructions) ** 2
    if pair_count > max_pairwise:
        notes.append(
            f"skipped pairwise exclusion ({pair_count} pairs exceeds the "
            f"budget of {max_pairwise})"
        )
        return notes
    _check_mutual_exclusion(problem, timeout_per_pair, config)
    return notes


def _check_no_feedback(problem):
    sketch = problem.sketch
    alpha = problem.alpha
    spec = problem.spec
    hole_names = {hole.name for hole in sketch.holes}
    assume_signals = {signal for signal, _ in alpha.assumes}
    observed = set()
    for field_name in spec.decode_fields:
        binding = alpha.binding(field_name)
        observed.add(binding)
    for name, var in list(spec.inputs.items()) + list(spec.states.items()):
        if alpha.has_entry(name):
            for mapping in alpha.entries_for(name):
                if mapping.dp_type != "memory":
                    observed.add(mapping.dp_name)
    reachable = transitive_dependencies(
        sketch, observed, stop_names=assume_signals
    )
    feedback = reachable & hole_names
    if feedback:
        raise IndependenceViolation(
            f"control logic inputs {sorted(observed & reachable)} depend on "
            f"holes {sorted(feedback)}; only signals assumed in the "
            "abstraction function may close that loop"
        )


def _check_mutual_exclusion(problem, timeout_per_pair, config):
    evaluator = SymbolicEvaluator(
        problem.sketch, const_mems=problem.const_mems, prefix="x!"
    )
    trace = evaluator.run(problem.alpha.cycles)
    compiler = ConstraintCompiler(problem.spec, problem.alpha, trace,
                                  prefix="x!")
    preconditions = [
        (instruction.name, compiler.compile_expr(instruction.decode))
        for instruction in problem.spec.instructions
    ]
    solver = Solver(backend=config.backend)
    solver.add(T.and_(*trace.side_conditions))
    for i in range(len(preconditions)):
        for j in range(i + 1, len(preconditions)):
            name_i, pre_i = preconditions[i]
            name_j, pre_j = preconditions[j]
            if T.and_(pre_i, pre_j) is T.FALSE:
                continue
            try:
                verdict = _decide(solver, [pre_i, pre_j], timeout_per_pair)
            except SolverUnknown as fault:
                raise IndependenceViolation(
                    f"could not decide exclusion of {name_i!r}/{name_j!r} "
                    f"within the budget ({fault.reason})"
                ) from fault
            if verdict is SAT:
                raise IndependenceViolation(
                    f"instructions {name_i!r} and {name_j!r} can decode "
                    "simultaneously; per-instruction synthesis is unsound "
                    "for this specification"
                )


def _decide(solver, assumptions, timeout):
    """One pair check.  A retryable UNKNOWN, such as the death of a
    sandboxed backend's child, is re-asked under the standard
    :class:`RetryPolicy`, as CEGIS re-asks its own checks."""
    def attempt_check(_attempt):
        verdict = solver.check(timeout=timeout, assumptions=assumptions)
        if verdict == UNKNOWN:
            raise SolverUnknown(reason=verdict.reason)
        return verdict

    return run_with_retry(attempt_check, RetryPolicy())
