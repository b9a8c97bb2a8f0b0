"""Control minimization: shrink the generated logic (Section 5.3's wish).

Per-instruction synthesis assigns every hole a concrete value for every
instruction — including *don't-care* signals, where the solver's arbitrary
pick fragments the control union into needless if-tree branches (the paper
notes its generated HDL is ~3.5x the hand-written size for this reason).

``minimize_solutions`` greedily re-homogenizes the solutions: for each hole
it walks values from most- to least-popular and asks, per instruction, "is
this instruction still correct if its value for this hole is replaced by
the popular one?"  Each check is a single concrete verification query (the
cheap direction of CEGIS — no search).  Signals that were don't-cares
collapse into one group; the union then emits a bare constant or a much
smaller dispatch tree.

Soundness: every accepted change re-proves the instruction's full
Equation (2) formula with the new constants, so the minimized solutions are
exactly as correct-by-construction as the originals.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.solver import Solver, UNSAT
from repro.synthesis.incremental import (
    IncrementalContext,
    candidate_assumptions,
)
from repro.synthesis.per_instruction import instruction_formula
from repro.synthesis.result import InstructionSolution

__all__ = ["minimize_solutions", "MinimizationReport"]


@dataclass
class MinimizationReport:
    checks: int = 0
    merged: int = 0
    elapsed: float = 0.0
    distinct_before: dict = field(default_factory=dict)
    distinct_after: dict = field(default_factory=dict)

    def summary(self):
        lines = [
            f"control minimization: {self.merged} values merged in "
            f"{self.checks} checks ({self.elapsed:.1f}s)"
        ]
        for hole in sorted(self.distinct_before):
            before = self.distinct_before[hole]
            after = self.distinct_after[hole]
            if before != after:
                lines.append(f"  {hole}: {before} -> {after} groups")
        return "\n".join(lines)


def _verifies(formula, trace, hole_values, timeout, probe_hole, config,
              ctx=None):
    if ctx is not None:
        # Scan path: fold every hole except the one being merged into
        # the formula's persistent verifier (staged once per
        # instruction-and-fixed-values, reused across merge targets),
        # then decide this probe as a pure assumption check on the
        # merged hole's bits.
        solver, sel = ctx.assert_scan(
            formula, hole_values, trace.hole_values, probe_hole)
        assumptions = [sel] + candidate_assumptions(
            {probe_hole: trace.hole_values[probe_hole]},
            {probe_hole: hole_values[probe_hole]},
        )
        return solver.check(timeout=timeout,
                            assumptions=assumptions) is UNSAT
    substitution = {
        trace.hole_values[name]: T.bv_const(
            value, trace.hole_values[name].width
        )
        for name, value in hole_values.items()
    }
    solver = Solver(backend=config.backend)
    solver.add(T.bv_not(T.substitute(formula, substitution)))
    return solver.check(timeout=timeout) is UNSAT


def minimize_solutions(problem, solutions, timeout_per_check=20.0,
                       max_targets=3, config=None):
    """Return (new solutions, report) with don't-care values merged.

    ``solutions`` come from per-instruction synthesis (or the monolithic
    mode); the originals are not mutated.  ``max_targets`` bounds how many
    candidate merge values are tried per hole (most popular first) — the
    don't-care collapse almost always lands on the first.

    ``config`` is a :class:`repro.smt.backends.SolverConfig` (``None``
    means ``SolverConfig()``): its backend serves every probe, and
    ``config.pipeline="incremental"`` (the default) serves every formula
    from the problem's shared trace cache — free when synthesis already
    ran incrementally — and runs all merge probes as assumption checks
    against per-formula persistent verifiers; ``"fresh"`` and
    ``"unfolded"`` re-derive each formula under a ``min{index}!`` prefix
    and build a solver per probe.
    """
    started = time.monotonic()
    config = config or SolverConfig()
    report = MinimizationReport()
    instructions = {i.name: i for i in problem.spec.instructions}
    formulas = {}
    ctx = None
    if config.pipeline == "incremental":
        ctx = IncrementalContext(config)
        entry = problem.trace_cache().entry(problem)
        for solution in solutions:
            formulas[solution.instruction_name] = (
                entry.formulas[solution.instruction_name], entry.trace
            )
    else:
        # Re-derive each instruction's formula (prefix matches synthesis).
        for index, solution in enumerate(solutions):
            instruction = instructions[solution.instruction_name]
            formula, trace, _ = instruction_formula(
                problem, instruction, f"min{index}!"
            )
            formulas[solution.instruction_name] = (formula, trace)

    current = {
        solution.instruction_name: dict(solution.hole_values)
        for solution in solutions
    }
    hole_names = [hole.name for hole in problem.sketch.holes]
    for hole in hole_names:
        values = [current[name][hole] for name in current]
        report.distinct_before[hole] = len(set(values))
        popularity = [value for value, _ in Counter(values).most_common()]
        for target in popularity[:max_targets]:
            for name in current:
                if current[name][hole] == target:
                    continue
                candidate = dict(current[name])
                candidate[hole] = target
                formula, trace = formulas[name]
                report.checks += 1
                if _verifies(formula, trace, candidate,
                             timeout_per_check, hole, config, ctx=ctx):
                    current[name] = candidate
                    report.merged += 1
        report.distinct_after[hole] = len(
            {current[name][hole] for name in current}
        )
    new_solutions = [
        InstructionSolution(
            instruction_name=solution.instruction_name,
            hole_values=current[solution.instruction_name],
            iterations=solution.iterations,
            solve_time=solution.solve_time,
        )
        for solution in solutions
    ]
    report.elapsed = time.monotonic() - started
    return new_solutions, report
