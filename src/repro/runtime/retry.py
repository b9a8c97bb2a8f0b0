"""Retry-with-escalation for UNKNOWN solver verdicts.

A conflict-capped SAT call that comes back UNKNOWN is often solvable by the
classic restart recipe: a larger conflict budget and a reseeded decision
order (fresh VSIDS activities and saved phases).  :class:`RetryPolicy`
encodes that escalation — geometric conflict-budget growth, deterministic
per-attempt seeds, and exponential backoff with a hard ceiling so a
retrying service cannot busy-spin — and :func:`run_with_retry` applies it
around any callable that raises :class:`SolverUnknown`.

Deadline- and memory-exhaustion are *not* retried: more attempts cannot
create more wall clock, and memory pressure only gets worse.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.runtime.errors import BudgetExhausted, SolverUnknown

__all__ = ["RetryPolicy", "Attempt", "run_with_retry",
           "decorrelated_jitter"]


def decorrelated_jitter(rng, base, cap, previous):
    """One step of AWS-style decorrelated-jitter backoff.

    ``sleep = min(cap, uniform(base, previous * 3))`` — grows roughly
    exponentially like the classic doubling schedule but decorrelates
    concurrent retriers (portfolio probes, retried checks) so they do not
    synchronize into thundering herds.  Deterministic given a seeded
    ``rng``, which is what the tests pin.
    """
    if cap <= 0.0 or base <= 0.0:
        return 0.0
    low = min(base, cap)
    high = max(low, min(previous * 3.0, cap) if previous > 0.0 else low)
    return min(cap, rng.uniform(low, high))

#: UNKNOWN reasons where escalation can plausibly help.  Worker deaths
#: (crash, OOM rlimit, missed heartbeats) are retryable because the retry
#: lands on a *fresh* process; deadline kills and CPU-cap breaches are not
#: (more attempts cannot create more wall clock or CPU).
_RETRYABLE_REASONS = frozenset(
    {"conflicts", "unknown", "injected", "malformed-model", "unspecified",
     "worker-crashed", "worker-oom", "heartbeat-lost"}
)


@dataclass(frozen=True)
class Attempt:
    """Parameters for one attempt of an escalating retry sequence."""

    index: int            # 0-based attempt number
    max_conflicts: object  # int cap for this attempt, or None (uncapped)
    seed: object          # decision-order seed, or None (keep current order)
    backoff: float        # seconds to sleep before this attempt


@dataclass(frozen=True)
class RetryPolicy:
    """Escalation schedule for UNKNOWN verdicts.

    ``initial_conflicts=None`` leaves the first attempt uncapped (whatever
    the caller's budget imposes); later attempts multiply the cap by
    ``escalation``.  ``reseed=True`` perturbs the solver's decision order
    with ``seed + index`` before each retry, which is frequently what
    actually rescues a stuck search.

    ``jitter="decorrelated"`` (the default) replaces the bare doubling
    backoff with :func:`decorrelated_jitter` so concurrent retriers
    spread out; the sequence is still deterministic (driven by ``seed``).
    ``jitter="none"`` keeps the exact exponential schedule, for callers
    (and tests) that pin specific backoff values.
    """

    max_attempts: int = 3
    initial_conflicts: object = None  # int or None
    escalation: float = 4.0
    backoff: float = 0.05
    backoff_ceiling: float = 2.0
    reseed: bool = True
    seed: int = 2024
    jitter: str = "decorrelated"  # "decorrelated" | "none"

    def attempts(self):
        """Yield the :class:`Attempt` sequence this policy prescribes."""
        conflicts = self.initial_conflicts
        rng = random.Random(self.seed) if self.jitter == "decorrelated" \
            else None
        previous = 0.0
        for index in range(max(1, self.max_attempts)):
            if index == 0:
                pause = 0.0
            elif rng is not None:
                pause = decorrelated_jitter(
                    rng, self.backoff, self.backoff_ceiling, previous)
                previous = pause
            else:
                pause = min(self.backoff * (2.0 ** (index - 1)),
                            self.backoff_ceiling)
            yield Attempt(
                index=index,
                max_conflicts=None if conflicts is None else int(conflicts),
                seed=(self.seed + index) if (self.reseed and index) else None,
                backoff=pause,
            )
            if conflicts is not None:
                conflicts = max(conflicts + 1, conflicts * self.escalation)

    def should_retry(self, fault):
        """Whether ``fault`` (a RuntimeFault) is worth another attempt."""
        if isinstance(fault, BudgetExhausted):
            return False
        return (isinstance(fault, SolverUnknown)
                and fault.reason in _RETRYABLE_REASONS)


def run_with_retry(step, policy, budget=None, sleep=time.sleep):
    """Run ``step(attempt)`` under ``policy``; return its first result.

    ``step`` must raise :class:`SolverUnknown` to request escalation; any
    other exception (including :class:`BudgetExhausted`) propagates
    immediately.  The backoff sleep is clipped to the budget's remaining
    wall clock so retries never outlive the deadline.  After the last
    attempt the final fault propagates unchanged, annotated with the
    number of attempts made (``fault.attempts``).
    """
    if policy is None:
        policy = RetryPolicy(max_attempts=1)
    last_fault = None
    attempts_made = 0
    for attempt in policy.attempts():
        if attempt.backoff > 0.0:
            pause = attempt.backoff
            if budget is not None:
                remaining = budget.remaining_time()
                if remaining is not None:
                    pause = min(pause, remaining)
            if pause > 0.0:
                sleep(pause)
        if budget is not None:
            budget.check()
        attempts_made += 1
        try:
            return step(attempt)
        except SolverUnknown as fault:
            last_fault = fault
            if not policy.should_retry(fault):
                break
    last_fault.attempts = attempts_made
    raise last_fault
