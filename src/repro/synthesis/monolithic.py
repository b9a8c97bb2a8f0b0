"""Monolithic control logic synthesis: the unoptimized Equation (1).

One symbolic evaluation of the sketch; one formula conjoining every
instruction's ``pre → post``; holes filled with an if-then-else expression
over the decode preconditions whose leaves are per-instruction constants —
the same expression grammar the control union ⊔ targets, but solved in a
single ∃∀ query.  This reproduces the scaling blow-up of the paper's
Table 1 † rows: the verify step of CEGIS must reason about all instructions'
datapaths at once, and RV32I at 37 instructions exceeds any reasonable
budget while 3-instruction AES merely slows down.
"""

from __future__ import annotations

import time

from repro.ila.compiler import ConstraintCompiler
from repro.oyster.symbolic import SymbolicEvaluator
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.synthesis.cegis import cegis_solve, CegisStats
from repro.synthesis.result import InstructionSolution, SynthesisError

__all__ = ["synthesize_monolithic_solutions"]


def synthesize_monolithic_solutions(problem, timeout=None,
                                    max_iterations=256, budget=None,
                                    retry_policy=None, config=None):
    """Solve all instructions in one CEGIS query.

    Returns ``(solutions, stats)`` where ``solutions`` is one
    ``InstructionSolution`` per instruction (so the control union applies
    unchanged downstream).  ``budget``/``retry_policy`` are threaded into
    the underlying CEGIS run; ``config`` (a
    :class:`repro.smt.backends.SolverConfig`; ``None`` means
    ``SolverConfig()``) selects the decision procedure and the pipeline.

    ``config.pipeline="incremental"`` reuses the problem's shared
    :class:`~repro.synthesis.incremental.TraceCache` evaluation (instead
    of a private ``m!``-prefixed one) and runs the assumption-based CEGIS
    verify.  Conjoining the per-instruction formulas over the shared
    trace is sound because ∀ distributes over ∧: each conjunct constrains
    the shared state exactly as its standalone query would.  ``"fresh"``
    and ``"unfolded"`` build the formula from a private evaluation; they
    differ only in CEGIS's verify query.
    """
    started = time.monotonic()
    spec = problem.spec
    config = config or SolverConfig()
    if config.pipeline == "incremental":
        entry = problem.trace_cache().entry(problem)
        prefix = entry.prefix
        trace = entry.trace
        compiled = [
            entry.compiled[instruction.name]
            for instruction in spec.instructions
        ]
        # Shared side conditions plus every instruction's fresh-read
        # delta; the restored fresh counter makes cross-instruction
        # duplicates identical interned terms, so dedup keeps the
        # conjunction linear.
        side_terms = list(entry.base_conditions)
        for instruction in spec.instructions:
            side_terms.extend(entry.deltas[instruction.name])
        side_terms = list(dict.fromkeys(side_terms))
    else:
        prefix = "m!"
        evaluator = SymbolicEvaluator(
            problem.sketch, const_mems=problem.const_mems, prefix=prefix
        )
        trace = evaluator.run(problem.alpha.cycles)
        compiler = ConstraintCompiler(spec, problem.alpha, trace,
                                      prefix=prefix)
        compiled = [
            compiler.compile_instruction(instruction)
            for instruction in spec.instructions
        ]
        side_terms = list(trace.side_conditions)

    # The holes must not influence the decode preconditions (the no-feedback
    # condition); otherwise the if-tree construction below is circular.
    hole_names = {
        term.name for term in trace.hole_values.values() if term.is_var
    }
    for item in compiled:
        decode_vars = {v.name for v in T.free_variables(item.precondition)}
        overlap = decode_vars & hole_names
        if overlap:
            raise SynthesisError(
                f"instruction {item.instruction.name!r} has a decode that "
                f"depends on holes {sorted(overlap)}; Equation (1) requires "
                "control-free preconditions"
            )

    # Existential variables: one constant per (instruction, hole).
    constants = {}
    for j, instruction in enumerate(spec.instructions):
        for hole in problem.sketch.holes:
            constants[(j, hole.name)] = T.bv_var(
                f"{prefix}c{j}!{hole.name}", hole.width
            )

    # Fill each hole with ite(pre_0, c_0, ite(pre_1, c_1, ... c_last)).
    substitution = {}
    for hole in problem.sketch.holes:
        expr = constants[(len(spec.instructions) - 1, hole.name)]
        for j in range(len(spec.instructions) - 2, -1, -1):
            expr = T.bv_ite(compiled[j].precondition,
                            constants[(j, hole.name)], expr)
        substitution[trace.hole_values[hole.name]] = expr

    side = T.and_(*side_terms)
    conjunction = T.and_(
        *[item.formula() for item in compiled]
    )
    formula = T.implies(side, conjunction)
    formula = T.substitute(formula, substitution)

    stats = CegisStats()
    values = cegis_solve(
        formula, list(constants.values()), timeout=timeout, stats=stats,
        max_iterations=max_iterations, budget=budget,
        retry_policy=retry_policy, config=config,
    )
    elapsed = time.monotonic() - started
    solutions = []
    for j, instruction in enumerate(spec.instructions):
        solutions.append(
            InstructionSolution(
                instruction_name=instruction.name,
                hole_values={
                    hole.name: values[constants[(j, hole.name)].name]
                    for hole in problem.sketch.holes
                },
                iterations=stats.iterations,
                solve_time=elapsed / len(spec.instructions),
                conflicts=stats.conflicts // len(spec.instructions),
                retries=stats.retries,
            )
        )
    return solutions, stats
