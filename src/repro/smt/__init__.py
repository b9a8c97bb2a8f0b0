"""A self-contained QF_BV SMT substrate.

The paper's toolchain leans on Rosette with Boolector/CVC4 underneath.  This
package replaces that stack with a from-scratch pipeline:

``terms``      hash-consed bitvector term DAG with rewriting constructors
``aig``        and-inverter graph with structural hashing
``bitblast``   terms -> AIG literals
``sat``        a CDCL SAT solver (watched literals, VSIDS, restarts)
``solver``     a solver facade: assert terms, check satisfiability, get models
``backends``   pluggable decision procedures behind the facade (the bundled
               CDCL core, a sandboxed child process hosting it, external
               DIMACS solvers, a portfolio race)

Everything is a bitvector; booleans are width-1 bitvectors.  This matches the
Oyster IR (Section 3.1 of the paper), which also models every value as a
bitvector.
"""

from repro.smt.terms import (
    Term,
    bv_const,
    bv_var,
    TRUE,
    FALSE,
    evaluate,
)
from repro.smt.backends import (
    BackendResult,
    CheckLimits,
    SolverBackend,
    SolverConfig,
    available_backends,
    backend_capabilities,
    register_backend,
    resolve_backend,
)
from repro.smt.solver import (
    Solver,
    SolverResult,
    SAT,
    UNSAT,
    UNKNOWN,
    Unknown,
    Model,
    UnknownModelVariableError,
    UnknownModelVariableWarning,
)

__all__ = [
    "SolverBackend",
    "BackendResult",
    "CheckLimits",
    "SolverConfig",
    "available_backends",
    "backend_capabilities",
    "register_backend",
    "resolve_backend",
    "Term",
    "bv_const",
    "bv_var",
    "TRUE",
    "FALSE",
    "evaluate",
    "Solver",
    "SolverResult",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Unknown",
    "Model",
    "UnknownModelVariableError",
    "UnknownModelVariableWarning",
]
