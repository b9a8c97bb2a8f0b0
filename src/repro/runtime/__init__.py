"""Resilient synthesis runtime: budgets, retries, fault injection.

This package is the resource-control spine under the synthesis stack:

* :class:`Budget` — nestable wall-clock / conflict / memory caps, threaded
  cooperatively from the engine down into the CDCL core's cancellation
  checkpoints;
* the typed failure taxonomy (:class:`BudgetExhausted`,
  :class:`SolverUnknown`, :class:`ResourceExceeded`,
  :class:`MalformedModel`) that replaces opaque UNKNOWNs with
  machine-actionable reasons;
* :class:`RetryPolicy` — restart-with-escalation (bigger conflict budget,
  reseeded decision order, capped exponential backoff) for UNKNOWNs that
  retrying can actually fix;
* :class:`FaultInjector` — deterministic UNKNOWN / timeout / malformed-model
  / worker-crash / worker-hang / worker-OOM injection, so degradation and
  containment paths are testable;
* ``incremental_worker`` — the sandboxed solver child (rlimit caps,
  heartbeats, fault directives, exit codes) that the
  ``incremental-subprocess`` backend spawns and supervises;
* ``reasons`` — the canonical machine-readable reason taxonomy
  (:func:`normalize_reason`) every UNKNOWN verdict, child death and
  backend result is mapped through.

It deliberately imports nothing from ``repro.smt`` or ``repro.synthesis``;
those layers import *it*.  (The worker *child* process hosts the CDCL
core and therefore imports ``repro.smt`` — but only inside the child's
request loop, never at parent import time.)
"""

from repro.runtime.budget import Budget
from repro.runtime.errors import (
    BudgetExhausted,
    MalformedModel,
    ResourceExceeded,
    RuntimeFault,
    SolverUnknown,
    SoundnessViolation,
)
from repro.runtime.faults import FaultInjector, active_injector
from repro.runtime.reasons import (
    CANONICAL_REASONS,
    RETRYABLE_REASONS,
    is_canonical,
    normalize_reason,
)
from repro.runtime.retry import (
    Attempt,
    RetryPolicy,
    decorrelated_jitter,
    run_with_retry,
)

__all__ = [
    "CANONICAL_REASONS",
    "RETRYABLE_REASONS",
    "is_canonical",
    "normalize_reason",
    "Budget",
    "RuntimeFault",
    "BudgetExhausted",
    "ResourceExceeded",
    "SolverUnknown",
    "MalformedModel",
    "SoundnessViolation",
    "RetryPolicy",
    "Attempt",
    "run_with_retry",
    "decorrelated_jitter",
    "FaultInjector",
    "active_injector",
]
