"""Control logic synthesis (Section 3.3).

``synthesize`` is the main entry point: given a ``SynthesisProblem`` (datapath
sketch + ILA spec + abstraction function) it fills every hole with
correct-by-construction control logic, using either the per-instruction
strategy with the control union ⊔ (the paper's optimization, Section 3.3.1)
or the monolithic Equation-(1) formulation (the † rows of Table 1).
"""

from repro.synthesis.problem import SynthesisProblem
from repro.synthesis.engine import synthesize
from repro.synthesis.result import (
    SynthesisResult,
    PartialSynthesisResult,
    InstructionSolution,
    SynthesisError,
    SynthesisTimeout,
    SynthesisFailure,
    MalformedResumeHandle,
)
from repro.synthesis.handles import load_resume_handle, save_resume_handle
from repro.synthesis.cegis import cegis_solve
from repro.synthesis.diagnosis import diagnose_instruction, InstructionDiagnosis
from repro.synthesis.incremental import IncrementalContext, TraceCache
from repro.synthesis.minimize import minimize_solutions, MinimizationReport
from repro.synthesis.verifier import verify_design, VerificationResult

__all__ = [
    "SynthesisProblem",
    "synthesize",
    "SynthesisResult",
    "PartialSynthesisResult",
    "InstructionSolution",
    "SynthesisError",
    "SynthesisTimeout",
    "SynthesisFailure",
    "MalformedResumeHandle",
    "save_resume_handle",
    "load_resume_handle",
    "cegis_solve",
    "diagnose_instruction",
    "InstructionDiagnosis",
    "IncrementalContext",
    "TraceCache",
    "minimize_solutions",
    "MinimizationReport",
    "verify_design",
    "VerificationResult",
]
