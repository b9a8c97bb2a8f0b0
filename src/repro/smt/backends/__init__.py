"""Pluggable solver backends: one seam for every decision procedure.

The paper's engine is solver-agnostic in principle (Rosette retargets
Boolector or CVC4 per query); this package makes the reproduction match.
A :class:`SolverBackend` answers CNF queries; the facade
(``repro.smt.solver.Solver``) owns encoding and model decoding and
delegates the decision to whichever backend is selected — per solver,
per run (``SolverConfig``), or process-wide (``$REPRO_BACKEND``).

Exposed interfaces
------------------

* :class:`SolverConfig` — the one way to choose how checks run: a
  ``backend`` (registered name, instance, or ``None`` for the process
  default) and a ``pipeline`` (``"incremental"``, the default,
  ``"fresh"``, or ``"unfolded"``, the rewriter ablation).  Entry points
  take it as ``config=`` and pass it down unchanged; a solver is built
  as ``Solver(backend=config.backend)``.
* The built-in backends, by registered name: ``inprocess`` (the bundled
  CDCL core, incremental), ``subprocess-dimacs`` (any installed DIMACS
  solver, kissat/cryptominisat/minisat-style), ``incremental-subprocess``
  (the sandboxed backend: a persistent child hosting the CDCL core, with
  rlimits, a heartbeat watchdog, clause-mirror replay and a circuit
  breaker), and ``portfolio`` (hedged racing over member backends with
  health scoring and a disagreement sentinel).
* :class:`SolverBackend`, :class:`BackendResult` and
  :class:`CheckLimits` — the seam a new decision procedure implements;
  :func:`register_backend` adds it without touching engine code.
* Introspection: :func:`available_backends`,
  :func:`backend_capabilities`, :func:`default_backend_name`.

Internal helpers
----------------

:func:`resolve_backend` / :func:`resolve_backend_name` (name to
instance, used by the facade), :class:`OneShotCdclBackend` (the
portfolio's trusted member), :class:`HealthLedger` /
:class:`MemberHealth` (portfolio health), and
:func:`~repro.smt.backends.incremental_subprocess.reap_children` (the
engine's run-scoped child reaping).
"""

from repro.smt.backends.base import BackendResult, CheckLimits, SolverBackend
from repro.smt.backends.config import PIPELINES, SolverConfig
from repro.smt.backends.health import HealthLedger, MemberHealth
from repro.smt.backends.incremental_subprocess import (
    WORKER_ENV,
    IncrementalSubprocessBackend,
)
from repro.smt.backends.inprocess import InProcessBackend, OneShotCdclBackend
from repro.smt.backends.portfolio import (
    PORTFOLIO_ENV,
    PortfolioBackend,
    shared_portfolio,
)
from repro.smt.backends.registry import (
    BACKEND_ENV,
    available_backends,
    backend_capabilities,
    default_backend_name,
    register_backend,
    resolve_backend,
    resolve_backend_name,
)
from repro.smt.backends.subprocess_dimacs import (
    BackendUnavailable,
    KNOWN_SOLVERS,
    SubprocessDimacsBackend,
)

__all__ = [
    "SolverBackend",
    "BackendResult",
    "CheckLimits",
    "SolverConfig",
    "PIPELINES",
    "InProcessBackend",
    "OneShotCdclBackend",
    "SubprocessDimacsBackend",
    "IncrementalSubprocessBackend",
    "WORKER_ENV",
    "PortfolioBackend",
    "shared_portfolio",
    "PORTFOLIO_ENV",
    "HealthLedger",
    "MemberHealth",
    "BackendUnavailable",
    "KNOWN_SOLVERS",
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
    "available_backends",
    "backend_capabilities",
    "default_backend_name",
    "BACKEND_ENV",
]
