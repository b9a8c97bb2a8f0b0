"""Canonical taxonomy of UNKNOWN-verdict reasons.

Every path that gives up without a SAT/UNSAT answer — the in-process CDCL
core's cancellation checkpoints, the sandboxed backend's watchdog and
crash classifier, the subprocess DIMACS backend's output parser, the
budget layer, and fault injection — tags its verdict with a *reason*
string.  Historically each layer minted its own spellings, so downstream
consumers (the verifier's unknown-verdict mapping, retry policies, obs
reports) had to pattern-match variants of the same fact.  This module is
the single source of truth: the canonical vocabulary, the alias table
mapping legacy spellings onto it, and :func:`normalize_reason`, which
every producer funnels through.

The taxonomy, grouped by who stopped the query:

========================  ===================================================
reason                    meaning
========================  ===================================================
``deadline``              a wall-clock cap expired (budget, per-call timeout,
                          or the worker watchdog's deadline kill)
``conflicts``             a conflict cap was hit (retry-with-escalation helps)
``memory``                a memory cap tripped at a cooperative checkpoint
``iterations``            a CEGIS/loop iteration cap was hit
``injected``              a :class:`repro.runtime.FaultInjector` forced it
``worker-crashed``        a sandboxed child died for no classified cause
``worker-oom``            a child breached its memory rlimit
``worker-cpu``            a child breached its CPU rlimit
``heartbeat-lost``        the watchdog reaped a silent (hung) child
``interrupted``           SIGINT teardown stopped the run mid-flight
``backend-error``         an external solver produced garbage or crashed
``backend-missing``       no usable external solver binary was found
``malformed-model``       a SAT verdict's witness falsified the query's CNF,
                          or a model value was out of width
``cancelled``             a portfolio race winner made this member's answer
                          moot (internal; never surfaces as a verdict)
``disagreement``          portfolio members returned contradictory verdicts
                          (carried by :class:`SoundnessViolation`)
``checkpoint``            a mid-run durability snapshot (not a stop; the
                          reason on periodic engine checkpoint partials)
``drained``               a graceful shutdown stopped the run at a clean
                          checkpoint boundary (resumable by construction)
``journal-fault``         the service's write-ahead journal could not make
                          a record durable (carried by ``JournalFault``)
``poisoned``              a service job crashed its runner too many times
                          and was marked failed-permanent
``unspecified``           the producer gave no reason (should be rare)
========================  ===================================================

This module is deliberately a leaf: it imports nothing, so any layer —
``repro.runtime``, ``repro.smt``, worker children — can use it without
layering concerns.
"""

from __future__ import annotations

__all__ = [
    "BUDGET_REASONS",
    "WORKER_REASONS",
    "BACKEND_REASONS",
    "PORTFOLIO_REASONS",
    "SERVICE_REASONS",
    "CANONICAL_REASONS",
    "RETRYABLE_REASONS",
    "normalize_reason",
    "is_canonical",
]

#: Caps enforced by ``repro.runtime.Budget`` / the CDCL checkpoints.
BUDGET_REASONS = frozenset({"deadline", "conflicts", "memory", "iterations"})

#: Classified deaths of sandboxed solver children.
WORKER_REASONS = frozenset({
    "worker-crashed", "worker-oom", "worker-cpu",
    "heartbeat-lost", "interrupted",
})

#: Failures of pluggable solver backends themselves.
BACKEND_REASONS = frozenset({
    "backend-error", "backend-missing",
})

#: Portfolio-race outcomes (internal bookkeeping, never a final verdict).
PORTFOLIO_REASONS = frozenset({"cancelled", "disagreement"})

#: Lifecycle outcomes of the long-lived synthesis service.
SERVICE_REASONS = frozenset({
    "checkpoint", "drained", "journal-fault", "poisoned",
})

#: The full canonical vocabulary.
CANONICAL_REASONS = (
    BUDGET_REASONS | WORKER_REASONS | BACKEND_REASONS | PORTFOLIO_REASONS
    | SERVICE_REASONS
    | frozenset({"injected", "malformed-model", "unspecified"})
)

#: Reasons where a retry (escalated caps, reseeded decisions, respawned
#: child) can plausibly produce a verdict.  Deadline/memory exhaustion
#: and interrupt teardown are deliberately absent: retrying cannot create
#: more wall clock, more RAM, or un-press Ctrl-C.
RETRYABLE_REASONS = frozenset({
    "conflicts", "injected", "worker-crashed", "worker-oom",
    "heartbeat-lost", "backend-error",
})

#: Legacy and third-party spellings mapped onto the canonical vocabulary.
_ALIASES = {
    "": "unspecified",
    "none": "unspecified",
    "unknown": "unspecified",
    "timeout": "deadline",
    "time": "deadline",
    "wall": "deadline",
    "wall-clock": "deadline",
    "budget-exhausted": "deadline",
    "conflict": "conflicts",
    "conflict-limit": "conflicts",
    "max-conflicts": "conflicts",
    "mem": "memory",
    "oom": "memory",
    "rss": "memory",
    "iteration-limit": "iterations",
    "fault-injected": "injected",
    "watchdog": "heartbeat-lost",
    "hung": "heartbeat-lost",
    "hang": "heartbeat-lost",
    "sigint": "interrupted",
    "keyboard-interrupt": "interrupted",
    "worker-killed": "heartbeat-lost",
    "crashed": "worker-crashed",
    "crash": "worker-crashed",
    "garbage": "backend-error",
    "parse-error": "backend-error",
    "malformed-output": "backend-error",
    "solver-missing": "backend-missing",
    "no-solver": "backend-missing",
    "bad-model": "malformed-model",
    "canceled": "cancelled",
    "race-lost": "cancelled",
    "disagree": "disagreement",
    "verdict-conflict": "disagreement",
    "drain": "drained",
    "draining": "drained",
    "journal": "journal-fault",
    "poison": "poisoned",
    "poison-job": "poisoned",
}


def normalize_reason(reason):
    """Map ``reason`` (any producer's spelling) to its canonical form.

    Canonical strings pass through untouched; known aliases are rewritten;
    ``None``/empty become ``"unspecified"``.  A genuinely novel string is
    preserved as-is (lower-cased, ``_`` → ``-``) rather than erased —
    losing information would be worse than an extra vocabulary entry —
    but tests assert the hot paths only ever emit canonical reasons.
    """
    if reason is None:
        return "unspecified"
    text = str(reason).strip().lower().replace("_", "-")
    if text in CANONICAL_REASONS:
        return text
    return _ALIASES.get(text, text or "unspecified")


def is_canonical(reason):
    """Whether ``reason`` is a member of the canonical vocabulary."""
    return reason in CANONICAL_REASONS
