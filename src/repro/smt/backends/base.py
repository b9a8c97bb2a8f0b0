"""The ``SolverBackend`` seam: one protocol for every way to run a check.

The solver facade (``repro.smt.solver.Solver``) owns the term-to-CNF
pipeline — bit-blasting, Tseitin encoding, model decoding — and delegates
the *decision procedure* to a backend.  A backend is anything that can
answer "is this CNF satisfiable?":

* :class:`~repro.smt.backends.inprocess.InProcessBackend` — the bundled
  CDCL core, fed clauses incrementally by the facade;
* :class:`~repro.smt.backends.incremental_subprocess
  .IncrementalSubprocessBackend` — the same core in a sandboxed,
  persistent child process, clauses streamed over a line protocol;
* :class:`~repro.smt.backends.subprocess_dimacs.SubprocessDimacsBackend`
  — any installed DIMACS solver (kissat, cryptominisat, minisat, ...),
  shelled out per query;
* :class:`~repro.smt.backends.portfolio.PortfolioBackend` — a race over
  stateless members.

One capability flag tells the facade how to drive a backend:

``supports_incremental``
    The backend keeps clause state between checks.  The facade encodes
    assertion cones into it via :meth:`SolverBackend.new_var` /
    :meth:`SolverBackend.add_clause`, passes ``cnf=None`` to
    :meth:`SolverBackend.check` with the assumptions as SAT literals, and
    reads the model back through :meth:`SolverBackend.assignment`.
    A stateless backend instead receives, on every call, the facade's
    own clause log plus one unit clause per assumption as a
    :class:`~repro.smt.dimacs.DimacsCnf`, and returns its witness in
    :attr:`BackendResult.assignment`.  The facade checks that witness
    against the CNF (:func:`vet_witness`) before decoding it.

Verdicts are plain strings here (``"sat"``/``"unsat"``/``"unknown"``);
the facade maps them onto its ``SAT``/``UNSAT``/``Unknown`` singletons.
This keeps the backend layer import-light — backends must never import
``repro.smt.solver`` (the facade imports *them*).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

__all__ = ["BackendResult", "CheckLimits", "SolverBackend", "vet_witness"]


@dataclass
class CheckLimits:
    """Per-check resource caps, pre-folded by the facade.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp (the
    facade has already taken the min of the caller's timeout and the
    budget's remaining wall clock); ``max_conflicts`` likewise already
    reflects the budget's remaining conflicts.  ``budget`` is passed
    through so cooperative backends can poll its memory cap mid-solve —
    backends must *not* charge conflicts to it (the facade charges once,
    from :attr:`BackendResult.conflicts`).  ``seed`` deterministically
    perturbs decision order where the backend supports it.  ``cancel``
    (a ``threading.Event``, set by a portfolio race once a winner is in)
    asks the backend to abandon the check: in-process members observe it
    at the CDCL checkpoints, subprocess members kill their child.
    """

    max_conflicts: int = None
    deadline: float = None
    budget: object = None
    seed: int = None
    cancel: object = None

    def timeout(self):
        """Remaining seconds until ``deadline`` (``None`` if uncapped)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())


@dataclass
class BackendResult:
    """One backend's answer to one check."""

    verdict: str            # "sat" | "unsat" | "unknown"
    reason: str = ""        # canonical unknown reason (see runtime.reasons)
    conflicts: int = 0      # conflicts spent (facade charges the budget)
    assignment: dict = None  # raw DIMACS {var: 0/1} witness of a stateless
    #                          SAT verdict; the facade decodes it
    internals: dict = None  # per-check solver work deltas (propagations,
    #                         restarts, learned, deleted, trail-reuse...);
    #                         the facade charges them to repro.smt.counters
    #                         and surfaces them on solver.check obs events


class SolverBackend:
    """Base class for pluggable decision procedures.

    Subclasses set ``supports_incremental`` and implement :meth:`check`;
    incremental backends additionally implement the clause-feeding
    sub-interface (:meth:`new_var`, :meth:`add_clause`,
    :meth:`assignment`, ``reseed``, plus the ``num_vars`` /
    ``clauses`` / ``conflicts`` properties).
    """

    #: Registry name; also what obs events and Table 1 rows record.
    name = "abstract"
    supports_incremental = False

    # -- the decision procedure -----------------------------------------

    def check(self, cnf, assumptions=(), limits=None):
        """Decide one query; returns a :class:`BackendResult`.

        ``cnf`` is the query as a :class:`~repro.smt.dimacs.DimacsCnf`
        for stateless backends, or ``None`` for incremental backends
        (solve the accumulated clause state).  ``assumptions`` are
        internal SAT literals, only passed to incremental backends
        (stateless ones get them as unit clauses).  Faults are reported as
        ``unknown`` verdicts with a canonical reason — the retry
        machinery above the facade decides what to re-ask.
        """
        raise NotImplementedError

    def close(self):
        """Release backend-owned resources (child processes, temp dirs).
        No-op by default; the facade never calls this on shared
        backends."""

    # -- incremental sub-interface (supports_incremental only) ----------

    def new_var(self):
        raise NotImplementedError(
            f"backend {self.name!r} is not incremental"
        )

    def add_clause(self, lits):
        raise NotImplementedError(
            f"backend {self.name!r} is not incremental"
        )

    def assignment(self):
        """Raw SAT assignment after a SAT check (incremental backends)."""
        raise NotImplementedError(
            f"backend {self.name!r} is not incremental"
        )

    def describe(self):
        """One-line capability summary (docs, ``available_backends``)."""
        kind = "incremental" if self.supports_incremental else "stateless"
        return f"{self.name} ({kind})"


def vet_witness(cnf, result):
    """``result``, or the fault it hides when its SAT witness is unusable.

    A stateless SAT claim certifies itself: its assignment must satisfy
    every clause of ``cnf``.  A missing assignment becomes
    ``unknown(backend-error)`` and one that falsifies a clause
    ``unknown(malformed-model)``; the conflicts and internals stay, so
    the work is still charged.
    """
    if result.verdict != "sat":
        return result
    if result.assignment is None:
        reason = "backend-error"
    elif cnf.satisfied_by(result.assignment):
        return result
    else:
        reason = "malformed-model"
    return replace(result, verdict="unknown", reason=reason,
                   assignment=None)
