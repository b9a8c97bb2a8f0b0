"""The in-process backend: the bundled CDCL core behind the seam.

This is the migration target of the old ``Solver._check_inprocess`` path:
the facade used to own a ``SatSolver`` directly; now the same core lives
behind the :class:`~repro.smt.backends.base.SolverBackend` protocol as
an incremental, assumption-capable backend.  The facade feeds it Tseitin
clauses as assertions arrive (``new_var``/``add_clause``) and each
``check`` solves the accumulated state — learned clauses and variable
activities survive across calls, which is what the incremental CEGIS
pipeline's encode-once verifier is built on.
"""

from __future__ import annotations

from repro.runtime.reasons import normalize_reason
from repro.smt.backends.base import BackendResult, CheckLimits, SolverBackend
from repro.smt.dimacs import solve_dimacs
from repro.smt.sat.solver import SatSolver

__all__ = ["InProcessBackend", "OneShotCdclBackend"]


class InProcessBackend(SolverBackend):
    """The bundled CDCL SAT core, solving in the engine process."""

    name = "inprocess"
    supports_incremental = True

    def __init__(self):
        self._sat = SatSolver()

    # -- incremental clause feeding -------------------------------------

    def new_var(self):
        return self._sat.new_var()

    def add_clause(self, lits):
        self._sat.add_clause(lits)

    def assignment(self):
        return self._sat.model()

    def reseed(self, seed):
        self._sat.reseed(seed)

    @property
    def num_vars(self):
        return self._sat.num_vars

    @property
    def clauses(self):
        return self._sat.clauses

    @property
    def conflicts(self):
        return self._sat.conflicts

    # -- the check itself ------------------------------------------------

    def check(self, cnf=None, assumptions=(), limits=None):
        """Solve the accumulated clause state (``cnf`` must be ``None``).

        The budget rides along only for its cooperative memory-cap polls
        at the core's checkpoints; conflict accounting is returned in the
        result and charged by the facade.
        """
        if cnf is not None:
            raise ValueError(
                "the in-process backend solves its incremental state; "
                "pass cnf=None (use solve_dimacs for one-shot CNF replay)"
            )
        if limits is None:
            limits = CheckLimits()
        before = self._sat.conflicts
        internals_before = self._sat.internals()
        verdict = self._sat.solve(
            assumptions=list(assumptions),
            max_conflicts=limits.max_conflicts,
            deadline=limits.deadline,
            budget=limits.budget,
            cancel=limits.cancel,
        )
        spent = self._sat.conflicts - before
        internals = {
            key: value - internals_before[key]
            for key, value in self._sat.internals().items()
        }
        if verdict is None:
            return BackendResult(
                "unknown",
                reason=normalize_reason(self._sat.stop_reason),
                conflicts=spent,
                internals=internals,
            )
        return BackendResult("sat" if verdict else "unsat", conflicts=spent,
                             internals=internals)


class OneShotCdclBackend(SolverBackend):
    """The bundled CDCL core as a *stateless* backend.

    Same decision procedure as :class:`InProcessBackend`, but speaking
    the stateless protocol: every check solves the facade's
    :class:`~repro.smt.dimacs.DimacsCnf` on a fresh ``SatSolver`` and
    returns the raw assignment.  This is the trusted member of a
    portfolio race — it shares no process, file or clause state with the
    external members it races, can be cancelled cooperatively at the
    CDCL checkpoints, and is always available (no binary discovery, no
    pool).
    """

    name = "inprocess-oneshot"

    def check(self, cnf, assumptions=(), limits=None):
        if limits is None:
            limits = CheckLimits()
        solver = SatSolver()
        verdict, assignment, conflicts = solve_dimacs(
            cnf,
            max_conflicts=limits.max_conflicts,
            deadline=limits.deadline,
            budget=limits.budget,
            seed=limits.seed,
            solver=solver,
            cancel=limits.cancel,
        )
        internals = solver.internals()  # fresh solver: totals == this check
        if verdict.startswith("unknown"):
            _, _, reason = verdict.partition(":")
            return BackendResult("unknown",
                                 reason=normalize_reason(reason),
                                 conflicts=conflicts,
                                 internals=internals)
        if verdict == "unsat":
            return BackendResult("unsat", conflicts=conflicts,
                                 internals=internals)
        return BackendResult("sat", conflicts=conflicts,
                             assignment=assignment, internals=internals)
