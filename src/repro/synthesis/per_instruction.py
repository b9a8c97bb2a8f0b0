"""Per-instruction control logic synthesis (Section 3.3.1).

Synthesizes the hole constants of Equation (2) for one instruction at a
time: symbolically evaluate the sketch with fresh hole variables, compile the
instruction's pre/postconditions through the abstraction function, and run
CEGIS for the formula ``(side ∧ pre ∧ assumes) → (posts ∧ frames)``.
"""

from __future__ import annotations

import time

from repro.ila.compiler import ConstraintCompiler
from repro.obs import trace as _obs
from repro.oyster.symbolic import SymbolicEvaluator
from repro.smt import counters as _counters
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.synthesis.cegis import cegis_solve, CegisStats
from repro.synthesis.preprocess import resolve_equalities
from repro.synthesis.result import InstructionSolution, SynthesisError

__all__ = ["synthesize_instruction", "instruction_formula"]


def instruction_formula(problem, instruction, prefix):
    """Build (formula, trace, compiled) for one instruction.

    The formula is ``(side_conditions ∧ pre ∧ assumes) → (posts ∧ frames)``
    with the sketch's holes appearing as the free variables named
    ``{prefix}hole!<name>``.
    """
    evaluator = SymbolicEvaluator(
        problem.sketch, const_mems=problem.const_mems, prefix=prefix
    )
    trace = evaluator.run(problem.alpha.cycles)
    compiler = ConstraintCompiler(problem.spec, problem.alpha, trace,
                                  prefix=prefix)
    compiled = compiler.compile_instruction(instruction)
    # Side conditions must be harvested *after* compilation: compiling the
    # postconditions performs additional memory reads (fresh frame
    # addresses), which append Ackermann constraints.
    side = T.and_(*trace.side_conditions)
    antecedent = T.bv_and(side, compiled.antecedent())
    consequent = compiled.consequent()
    hole_names = {
        term.name for term in trace.hole_values.values() if term.is_var
    }
    antecedent, consequent = resolve_equalities(
        antecedent, consequent, protected_names=hole_names
    )
    formula = T.implies(antecedent, consequent)
    return formula, trace, compiled


def synthesize_instruction(problem, instruction, index, timeout=None,
                           max_iterations=256, budget=None,
                           retry_policy=None, incremental_ctx=None,
                           config=None):
    """Solve the hole constants for one instruction; returns a solution.

    ``budget`` is a ``repro.runtime.Budget`` slice for this instruction
    (shared caps are enforced through its parent chain); ``retry_policy``
    governs restart-with-escalation on retryable UNKNOWNs.

    ``config`` (a :class:`repro.smt.backends.SolverConfig`; ``None``
    means ``SolverConfig()``) selects the decision procedure — e.g.
    ``SolverConfig(backend="incremental-subprocess")`` routes every
    solver check through sandboxed child processes — and the pipeline:
    ``"incremental"`` (the problem's shared
    :class:`~repro.synthesis.incremental.TraceCache` trace + the
    persistent-verifier mode) or ``"fresh"``/``"unfolded"``
    (per-instruction symbolic evaluation + per-iteration verifiers).
    ``incremental_ctx`` shares one encode-once verifier across a serial
    run of instructions.
    """
    started = time.monotonic()
    config = config or SolverConfig()
    with _obs.span("synthesis.instruction", instr=instruction.name,
                   pipeline=config.pipeline, backend=config.backend_name):
        return _synthesize_instruction(
            problem, instruction, index, started, timeout, max_iterations,
            budget, retry_policy, config, incremental_ctx,
        )


def _synthesize_instruction(problem, instruction, index, started, timeout,
                            max_iterations, budget, retry_policy, config,
                            incremental_ctx):
    encode_before = _counters.snapshot()
    if config.pipeline == "incremental":
        entry = problem.trace_cache().entry(problem)
        formula = entry.formulas[instruction.name]
        trace_holes = entry.trace.hole_values
    else:
        prefix = f"i{index}!"
        with _obs.span("synthesis.evaluate", instr=instruction.name):
            formula, trace, _ = instruction_formula(problem, instruction,
                                                    prefix)
        trace_holes = trace.hole_values
    hole_vars = [
        trace_holes[hole.name] for hole in problem.sketch.holes
    ]
    for var in hole_vars:
        if not var.is_var:
            raise SynthesisError(
                "per-instruction synthesis requires fresh hole variables"
            )
    stats = CegisStats()
    values_by_var = cegis_solve(
        formula, hole_vars, timeout=timeout, stats=stats,
        max_iterations=max_iterations, budget=budget,
        retry_policy=retry_policy, config=config,
        incremental_ctx=incremental_ctx,
    )
    hole_values = {
        hole.name: values_by_var[trace_holes[hole.name].name]
        for hole in problem.sketch.holes
    }
    encode_delta = _counters.delta_since(encode_before)
    return InstructionSolution(
        instruction_name=instruction.name,
        hole_values=hole_values,
        iterations=stats.iterations,
        solve_time=time.monotonic() - started,
        conflicts=stats.conflicts,
        retries=stats.retries,
        solver_instances=encode_delta["solver_instances"],
        aig_nodes=encode_delta["aig_nodes"],
        tseitin_clauses=encode_delta["tseitin_clauses"],
        trace_cache_hits=encode_delta["trace_cache_hits"],
    )
