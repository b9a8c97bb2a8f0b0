"""Independent verification of (completed) designs against an ILA spec.

``verify_design`` re-derives the Equation (1) conditions for a hole-free
design and asks the solver for a violating initial state per instruction.
This is deliberately *not* the synthesizer's own claim: it re-runs symbolic
evaluation and compilation from scratch, so tests can use it as an oracle
for generated control logic — and it doubles as a classical bounded
correctness checker for hand-written control (the Table 2 references).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ila.compiler import ConstraintCompiler
from repro.obs import trace as _obs
from repro.oyster.symbolic import SymbolicEvaluator
from repro.runtime import BudgetExhausted
from repro.runtime.reasons import normalize_reason
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.solver import Solver, SAT, UNSAT, UNKNOWN
from repro.synthesis.preprocess import resolve_equalities

__all__ = ["verify_design", "VerificationResult", "InstructionVerdict"]


@dataclass
class InstructionVerdict:
    instruction_name: str
    status: str  # "proved", "violated", "unknown"
    counterexample: dict = field(default_factory=dict)
    time: float = 0.0
    #: Why an "unknown" is unknown: always a canonical reason from
    #: ``repro.runtime.reasons`` ("deadline", "conflicts", "memory", ...).
    reason: str = ""


@dataclass
class VerificationResult:
    design_name: str
    verdicts: list

    @property
    def ok(self):
        return all(v.status == "proved" for v in self.verdicts)

    @property
    def violations(self):
        return [v for v in self.verdicts if v.status == "violated"]

    def summary(self):
        lines = [f"verification of {self.design_name!r}:"]
        for verdict in self.verdicts:
            detail = f" [{verdict.reason}]" if verdict.reason else ""
            lines.append(
                f"  {verdict.instruction_name}: {verdict.status}{detail} "
                f"({verdict.time:.2f}s)"
            )
        return "\n".join(lines)


def verify_design(design, spec, alpha, const_mems=None, hole_values=None,
                  timeout_per_instruction=None, instructions=None,
                  budget=None, config=None):
    """Check every instruction's pre→post on ``design``.

    ``hole_values`` allows verifying a sketch under concrete hole constants
    (used by tests); completed designs have no holes.  ``instructions``
    restricts the check to the named subset.

    ``budget`` is a shared ``repro.runtime.Budget`` across all
    instructions.  Verification is sound under resource exhaustion: a
    budget that trips (before or mid-check) yields a verdict of
    ``"unknown"`` whose ``reason`` names the exhausted cap (canonical, per
    ``repro.runtime.reasons``) — never a ``"proved"`` the solver did not
    actually establish.  ``config`` (a
    :class:`repro.smt.backends.SolverConfig`; ``None`` means
    ``SolverConfig()``) selects the decision procedure exactly as in
    synthesis; every pipeline runs the same query here.
    """
    spec.validate()
    config = config or SolverConfig()
    verdicts = []
    chosen = spec.instructions
    if instructions is not None:
        wanted = set(instructions)
        chosen = [i for i in spec.instructions if i.name in wanted]
    for index, instruction in enumerate(chosen):
        started = time.monotonic()
        prefix = f"v{index}!"
        term_holes = None
        if hole_values:
            term_holes = {
                name: T.bv_const(value, _hole_width(design, name))
                for name, value in hole_values.items()
            }
        try:
            if budget is not None:
                # Pre-check: an already-spent budget must not silently
                # skip work and report success.
                budget.check()
            # A span of its own: verification queries are attributable
            # even when verify_design is called standalone (the trace
            # report's zero-orphan-queries invariant covers the oracle).
            with _obs.span("verify.instruction", instr=instruction.name):
                evaluator = SymbolicEvaluator(
                    design, hole_values=term_holes,
                    const_mems=const_mems or {}, prefix=prefix,
                )
                trace = evaluator.run(alpha.cycles)
                compiler = ConstraintCompiler(spec, alpha, trace,
                                              prefix=prefix)
                compiled = compiler.compile_instruction(instruction)
                side = T.and_(*trace.side_conditions)
                antecedent, consequent = resolve_equalities(
                    T.bv_and(side, compiled.antecedent()),
                    compiled.consequent()
                )
                violation = T.and_(antecedent, T.bv_not(consequent))
                solver = Solver(backend=config.backend)
                solver.add(violation)
                verdict = solver.check(timeout=timeout_per_instruction,
                                       budget=budget)
        except BudgetExhausted as fault:
            verdicts.append(
                InstructionVerdict(
                    instruction.name, "unknown", {},
                    time.monotonic() - started,
                    reason=normalize_reason(fault.reason),
                )
            )
            continue
        elapsed = time.monotonic() - started
        if verdict is UNSAT:
            verdicts.append(
                InstructionVerdict(instruction.name, "proved", {}, elapsed)
            )
        elif verdict is SAT:
            verdicts.append(
                InstructionVerdict(
                    instruction.name, "violated",
                    solver.model().as_dict(), elapsed,
                )
            )
        else:
            verdicts.append(
                InstructionVerdict(
                    instruction.name, "unknown", {}, elapsed,
                    reason=normalize_reason(
                        getattr(verdict, "reason", "") or ""
                    ),
                )
            )
    return VerificationResult(design.name, verdicts)


def _hole_width(design, name):
    decl = design.decl_of(name)
    if decl is None:
        raise KeyError(f"no hole named {name!r} in {design.name!r}")
    return decl.width
