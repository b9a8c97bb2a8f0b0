"""Typed failure taxonomy for resource-bounded solving.

The synthesis stack distinguishes *why* a query came back without an
answer, because the recovery differs:

``BudgetExhausted(reason="deadline")``
    wall-clock budget spent — retrying is pointless, degrade to a partial
    result and report honestly (the paper's Timeout rows);
``BudgetExhausted(reason="conflicts")`` / ``SolverUnknown(reason="conflicts")``
    a conflict cap was hit — a restart with a larger cap and a reseeded
    decision order often succeeds (see ``repro.runtime.retry``);
``ResourceExceeded``
    a memory cap tripped — escalation must *not* retry with a bigger
    budget on the same box;
``MalformedModel``
    the solver claimed SAT but produced an assignment violating variable
    widths — a solver bug (or an injected fault); treated as UNKNOWN so a
    bad backend cannot silently corrupt synthesized control logic.
``SolverUnknown(reason="worker-crashed")`` (and ``worker-oom``,
``worker-cpu``, ``heartbeat-lost``)
    a sandboxed solver child died (crash, rlimit breach) or was killed by
    its watchdog; the query itself is unharmed, so most of these are
    retryable on a respawned child (see ``repro.runtime.reasons``).
``SoundnessViolation``
    two solver backends returned contradictory SAT/UNSAT verdicts on the
    same query — one of them is *wrong*, and synthesis must abort rather
    than emit control logic derived from an unverified verdict.  This is
    deliberately **not** a ``SolverUnknown``: retry machinery must never
    absorb it, and the engine's degradation paths must never convert it
    into a partial result.

All of these derive from ``RuntimeFault`` so orchestration layers can
catch the whole family with one handler while still branching on
``.reason``.
"""

from __future__ import annotations

__all__ = [
    "RuntimeFault",
    "BudgetExhausted",
    "ResourceExceeded",
    "SolverUnknown",
    "MalformedModel",
    "SoundnessViolation",
]


class RuntimeFault(Exception):
    """Base class for resource and solver faults raised by the runtime."""

    reason = "unspecified"


class BudgetExhausted(RuntimeFault):
    """A :class:`repro.runtime.Budget` cap was hit.

    ``reason`` is machine-readable: ``"deadline"``, ``"conflicts"``,
    ``"memory"`` or ``"iterations"``.
    """

    def __init__(self, message="", reason="deadline"):
        super().__init__(message or f"budget exhausted ({reason})")
        self.reason = reason


class ResourceExceeded(BudgetExhausted):
    """A process-level resource cap (memory) was exceeded."""

    def __init__(self, message="", reason="memory"):
        super().__init__(message or f"resource cap exceeded ({reason})",
                         reason=reason)


class SolverUnknown(RuntimeFault):
    """The solver gave up without a verdict and retries did not help."""

    def __init__(self, message="", reason="unknown"):
        super().__init__(message or f"solver returned unknown ({reason})")
        self.reason = reason


class MalformedModel(SolverUnknown):
    """A SAT verdict came with an assignment that violates the encoding."""

    def __init__(self, message=""):
        super().__init__(message or "solver produced a malformed model",
                         reason="malformed-model")


class SoundnessViolation(RuntimeFault):
    """Solver backends returned contradictory SAT/UNSAT verdicts.

    Raised by the portfolio backend's disagreement sentinel after a
    re-check on the trusted member fails to exonerate anyone.  Carries
    the full evidence: ``verdicts`` maps each member name to the verdict
    it claimed, ``trusted`` names the member whose re-check was used as
    the tiebreaker (``None`` if none was available).

    Subclasses ``RuntimeFault`` directly — **not** ``SolverUnknown`` —
    so retry policies (which only catch ``SolverUnknown``) re-raise it
    immediately and it propagates loudly out of ``synthesize``.
    """

    reason = "disagreement"

    def __init__(self, message="", verdicts=None, trusted=None):
        super().__init__(
            message or "solver backends disagree on a SAT/UNSAT verdict"
        )
        self.verdicts = dict(verdicts or {})
        self.trusted = trusted
