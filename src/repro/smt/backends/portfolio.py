"""Fault-tolerant portfolio solving: hedged backend racing.

:class:`PortfolioBackend` answers each check by racing a configurable
set of *member* backends and returning the first trustworthy answer.
Every member receives the facade's own CNF (a
:class:`~repro.smt.dimacs.DimacsCnf`) and answers with a raw assignment;
nothing here encodes or decodes terms.

**Hedged dispatch.**  The primary member (healthiest, proven-fastest)
launches immediately; the remaining members launch only after a hedge
delay — explicit (``hedge_delay=``) or twice the primary's EWMA latency
(:data:`DEFAULT_HEDGE_DELAY` when there is no history yet).  A healthy
fast path therefore pays ~zero overhead: the hedges usually never
start.

**First-answer-wins cancellation.**  Once a winner is in (and, for SAT
claims, its witness has been validated against the CNF), every other
member's ``CheckLimits.cancel`` event is set: in-process members stop
at the CDCL checkpoints, subprocess members are hard-killed and reaped.
All member threads are joined before ``check`` returns — no orphan
processes, no leaked temp files.

**Health ledger and quarantine.**  Every outcome feeds the
:class:`~repro.smt.backends.health.HealthLedger`: faults quarantine a
member behind jittered-exponential backoff, after which it re-enters
races as a *probe* hedge until it proves itself again.  A flaky external
solver therefore degrades to the in-process CDCL instead of stalling
CEGIS; if *every* member is quarantined, the trusted member answers
alone.

**Disagreement sentinel.**  Conflicting SAT/UNSAT verdicts are never
silently resolved: the portfolio re-checks with the trusted member (the
one-shot in-process CDCL), records a ``portfolio.disagreement`` obs
event with full query provenance, and raises
:class:`~repro.runtime.errors.SoundnessViolation`.  A lying member
cannot win by default either way: SAT claims are self-certifying (the
witness is checked against the CNF by
:func:`~repro.smt.backends.base.vet_witness`), and an UNSAT claim —
which has no cheap certificate — only wins outright when it comes from
the trusted member or a quorum of two; a sole untrusted UNSAT is
confirmed by the trusted member first.  ``min_agreement >= 2``
additionally requires that many concurring members for *every*
verdict.

Member roster, in priority order: an explicit ``members=`` list
(backend instances, registered names, or ``cmd:<argv>`` entries that
shell out via :class:`SubprocessDimacsBackend`), the
``$REPRO_PORTFOLIO`` environment variable (semicolon-separated entries
of the same forms), or the default roster (the one-shot in-process CDCL
plus any discoverable external DIMACS solver).

Obs: each check runs under a ``portfolio.race`` span with per-member
``portfolio.member`` events and a closing ``portfolio.outcome`` event
(winner, hedge-fired, cancel latency); counters land in the unified
metrics registry under ``portfolio.*``.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, replace

from repro.obs import flight as _flight
from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.runtime.errors import RuntimeFault, SoundnessViolation
from repro.runtime.reasons import normalize_reason
from repro.smt.backends.base import (
    BackendResult,
    CheckLimits,
    SolverBackend,
    vet_witness,
)
from repro.smt.backends.health import HealthLedger

__all__ = ["PortfolioBackend", "PORTFOLIO_ENV", "shared_portfolio"]

#: Semicolon-separated member roster (see module docstring).
PORTFOLIO_ENV = "REPRO_PORTFOLIO"
#: Hedge delay (seconds) before the primary has any latency history.
DEFAULT_HEDGE_DELAY = 0.05
#: Otherwise hedges launch after this multiple of the primary's EWMA.
HEDGE_LATENCY_FACTOR = 2.0
#: How long a cancelled member thread may take to finish (seconds).
JOIN_TIMEOUT = 10.0

_DEFINITIVE = ("sat", "unsat")


@dataclass
class _Member:
    """One roster slot: a label unique within this portfolio."""

    label: str
    backend: SolverBackend
    index: int
    trusted: bool = False


def _resolve_member(entry):
    """Turn one roster entry into a stateless member backend."""
    from repro.smt.backends.inprocess import OneShotCdclBackend

    if isinstance(entry, SolverBackend):
        if entry.supports_incremental:
            # Incremental backends cannot be raced (each member needs the
            # full query per call); substitute the one-shot equivalent.
            return OneShotCdclBackend()
        return entry
    text = str(entry).strip()
    if text.startswith("cmd:"):
        from repro.smt.backends.subprocess_dimacs import (
            SubprocessDimacsBackend,
        )

        return SubprocessDimacsBackend(command=text[len("cmd:"):].strip())
    if text in ("inprocess", "inprocess-oneshot"):
        return OneShotCdclBackend()
    if text == "portfolio":
        raise ValueError("a portfolio cannot be a member of itself")
    from repro.smt.backends.registry import resolve_backend

    backend = resolve_backend(text)
    if backend.supports_incremental:
        return OneShotCdclBackend()
    return backend


def _default_roster():
    """One-shot in-process CDCL, plus an external solver if one exists."""
    from repro.smt.backends.subprocess_dimacs import (
        BackendUnavailable,
        SubprocessDimacsBackend,
    )

    roster = ["inprocess"]
    try:
        roster.append(SubprocessDimacsBackend())
    except BackendUnavailable:
        pass
    return roster


class PortfolioBackend(SolverBackend):
    """Race member backends per check; first validated answer wins."""

    name = "portfolio"

    def __init__(self, members=None, *, hedge_delay=None, min_agreement=1,
                 ledger=None):
        if members is None:
            env = os.environ.get(PORTFOLIO_ENV, "")
            entries = [e.strip() for e in env.split(";") if e.strip()]
            members = entries or _default_roster()
        if not members:
            raise ValueError("portfolio needs at least one member backend")
        self.hedge_delay = hedge_delay
        self.min_agreement = max(1, int(min_agreement))
        self.ledger = ledger if ledger is not None else HealthLedger()
        self._members = []
        labels = {}
        for index, entry in enumerate(members):
            backend = _resolve_member(entry)
            base = backend.name
            labels[base] = labels.get(base, 0) + 1
            label = base if labels[base] == 1 else f"{base}#{labels[base]}"
            self._members.append(_Member(label=label, backend=backend,
                                         index=index))
        # The trusted member: the first one-shot in-process CDCL on the
        # roster, or an implicit one kept off the roster.  It serves
        # disagreement re-checks and full-quarantine degradation.
        from repro.smt.backends.inprocess import OneShotCdclBackend

        trusted = next(
            (m for m in self._members
             if isinstance(m.backend, OneShotCdclBackend)), None)
        if trusted is not None:
            trusted.trusted = True
            self._trusted = trusted
        else:
            self._trusted = _Member(
                label="trusted-inprocess", backend=OneShotCdclBackend(),
                index=len(self._members), trusted=True,
            )

    def describe(self):
        roster = ", ".join(m.label for m in self._members)
        return f"{self.name} [{roster}]"

    @property
    def members(self):
        """Roster labels, config order (tests and reports)."""
        return tuple(m.label for m in self._members)

    # ------------------------------------------------------------------

    def check(self, cnf, assumptions=(), limits=None):
        if limits is None:
            limits = CheckLimits()
        _METRICS.inc("portfolio.races")
        with _obs.span(
            "portfolio.race", backend=self.name,
            members=list(self.members),
        ) as race_span:
            return self._race(cnf, limits, race_span)

    # -- race machinery -------------------------------------------------

    def _race(self, cnf, limits, race_span):
        primary, hedges = self._lineup()
        if primary is None:
            # Everyone quarantined with backoffs unexpired: degrade to
            # the trusted member (the "flaky solver must not stall
            # CEGIS" guarantee).
            _METRICS.inc("portfolio.degraded")
            _obs.event("portfolio.degraded", span_parent=race_span.id,
                       trusted=self._trusted.label)
            return self._trusted_check(cnf, limits)
        cond = threading.Condition()
        outcomes = {}       # label -> (BackendResult, latency)
        order = []          # delivery order of definitive outcomes
        threads, events = {}, {}
        launched = []

        def deliver(member, result, latency):
            with cond:
                outcomes[member.label] = (result, latency)
                if result.verdict in _DEFINITIVE:
                    order.append(member.label)
                cond.notify_all()

        def launch(member, probe=False):
            event = threading.Event()
            events[member.label] = event
            launched.append(member)
            self.ledger.record_launch(member.label, probe=probe)
            member_limits = self._member_limits(member, limits, event)
            parent_id = race_span.id
            # Span parent AND trace context are both thread-local: pin
            # them here so member-thread events stay attached to the
            # race and attributed to the submitting job's trace.
            trace_ctx = _obs.current_trace_id()

            def run():
                started = time.monotonic()
                with _obs.trace_context(trace_ctx):
                    try:
                        result = member.backend.check(
                            cnf, limits=member_limits)
                    except Exception as exc:  # fault taxonomy + surprises
                        result = BackendResult(
                            "unknown", reason=_fault_reason(exc))
                    result = vet_witness(cnf, result)
                    latency = time.monotonic() - started
                    _obs.event(
                        "portfolio.member", span_parent=parent_id,
                        member=member.label, verdict=result.verdict,
                        reason=result.reason, latency=round(latency, 6),
                        probe=probe,
                    )
                    deliver(member, result, latency)

            thread = threading.Thread(
                target=run, name=f"portfolio-{member.label}", daemon=True)
            threads[member.label] = thread
            thread.start()

        started = time.monotonic()
        launch(primary)
        hedge_at = started + self._hedge_delay_for(primary)
        hedges_fired = False
        aborted = None
        while True:
            with cond:
                verdicts = {label: outcomes[label][0].verdict
                            for label in order}
                if self._conflicting(verdicts):
                    break
                if self._agreed(verdicts) is not None:
                    break
                if len(outcomes) == len(launched) and (hedges_fired
                                                       or not hedges):
                    break  # drained: nobody else is coming
                now = time.monotonic()
                waits = [0.25]
                if not hedges_fired and hedges:
                    waits.append(hedge_at - now)
                if limits.deadline is not None:
                    waits.append(limits.deadline - now)
                wait = max(0.0, min(waits))
                cond.wait(wait)
            now = time.monotonic()
            if limits.cancel is not None and limits.cancel.is_set():
                aborted = "cancelled"
                break
            if limits.deadline is not None and now > limits.deadline:
                aborted = "deadline"
                break
            if not hedges_fired and hedges and (
                now >= hedge_at or len(outcomes) >= len(launched)
            ):
                # The hedge delay expired — or the primary already came
                # back without a definitive answer.
                hedges_fired = True
                _METRICS.inc("portfolio.hedges_fired")
                for member, probe in hedges:
                    launch(member, probe=probe)

        # First answer wins: cancel everyone still running, then join
        # every member thread so no process or temp dir outlives us.
        cancel_started = time.monotonic()
        with cond:
            still_running = [m.label for m in launched
                             if m.label not in outcomes]
        for event in events.values():
            event.set()
        for thread in threads.values():
            thread.join(timeout=JOIN_TIMEOUT)
        stragglers = [label for label, thread in threads.items()
                      if thread.is_alive()]
        cancel_latency = time.monotonic() - cancel_started
        if still_running:
            _METRICS.inc("portfolio.cancellations", len(still_running))
        return self._settle(
            cnf, limits, outcomes, order, launched, stragglers,
            hedges_fired, cancel_latency, aborted, race_span,
        )

    def _settle(self, cnf, limits, outcomes, order, launched,
                stragglers, hedges_fired, cancel_latency, aborted,
                race_span):
        """Bookkeeping + verdict selection after every thread is joined."""
        verdicts = {label: outcomes[label][0].verdict for label in order}
        winner_label = self._agreed(verdicts)
        conflict = self._conflicting(verdicts)

        # Health bookkeeping for every launched member.
        quarantines_before = self.ledger.quarantine_events
        for member in launched:
            entry = outcomes.get(member.label)
            if entry is None:
                # Ignored the cancel event past the join timeout: as
                # good as a hang.
                self.ledger.record_fault(member.label, "heartbeat-lost")
                continue
            result, latency = entry
            if result.verdict in _DEFINITIVE:
                won = member.label == winner_label and not conflict
                self.ledger.record_success(member.label, latency, won=won)
            elif normalize_reason(result.reason) == "cancelled":
                self.ledger.record_loss(member.label, latency)
            else:
                self.ledger.record_fault(member.label, result.reason,
                                         latency)
        new_quarantines = self.ledger.quarantine_events - quarantines_before
        if new_quarantines:
            _METRICS.inc("portfolio.quarantines", new_quarantines)

        if conflict:
            self._disagree(cnf, limits, outcomes, order, race_span)

        outcome_attrs = {
            "winner": winner_label,
            "verdict": verdicts.get(winner_label),
            "hedges_fired": hedges_fired,
            "cancel_latency": round(cancel_latency, 6),
            "stragglers": stragglers,
            "outcomes": {
                label: {"verdict": result.verdict,
                        "reason": result.reason,
                        "latency": round(latency, 6)}
                for label, (result, latency) in outcomes.items()
            },
        }

        if winner_label is not None:
            _obs.event("portfolio.outcome", span_parent=race_span.id,
                       **outcome_attrs)
            return outcomes[winner_label][0]

        if order:
            # Definitive answers exist but fewer than min_agreement of
            # them agree (the rest hung, crashed, or were cancelled).
            sole = order[0]
            sole_result = outcomes[sole][0]
            member = next(m for m in launched if m.label == sole)
            if member.trusted:
                # The trusted member needs no confirmation.
                outcome_attrs["winner"] = sole
                outcome_attrs["verdict"] = sole_result.verdict
                _obs.event("portfolio.outcome", span_parent=race_span.id,
                           **outcome_attrs)
                return sole_result
            _METRICS.inc("portfolio.confirmations")
            trusted_result = self._trusted_check(cnf, limits)
            if trusted_result.verdict in _DEFINITIVE \
                    and trusted_result.verdict != sole_result.verdict:
                all_outcomes = dict(outcomes)
                all_outcomes[self._trusted.label] = (trusted_result, 0.0)
                self._disagree(cnf, limits, all_outcomes,
                               order + [self._trusted.label], race_span,
                               trusted_result=trusted_result)
            if trusted_result.verdict == sole_result.verdict:
                outcome_attrs["winner"] = sole
                outcome_attrs["verdict"] = sole_result.verdict
                outcome_attrs["confirmed_by"] = self._trusted.label
                _obs.event("portfolio.outcome", span_parent=race_span.id,
                           **outcome_attrs)
                return sole_result
            # The trusted member could not confirm (unknown): returning
            # the unverified verdict would defeat min_agreement, so
            # degrade honestly.
            _obs.event("portfolio.outcome", span_parent=race_span.id,
                       **outcome_attrs)
            return trusted_result

        # No definitive answer from anyone.
        _obs.event("portfolio.outcome", span_parent=race_span.id,
                   **outcome_attrs)
        if aborted == "cancelled":
            return BackendResult("unknown", reason="cancelled")
        if aborted == "deadline":
            return BackendResult("unknown", reason="deadline")
        # All members faulted or hit caps: one last trusted attempt
        # (unless the trusted member already raced and failed).
        if any(m.trusted for m in launched):
            entry = outcomes.get(self._trusted.label)
            if entry is not None:
                return entry[0]
        _METRICS.inc("portfolio.degraded")
        return self._trusted_check(cnf, limits)

    # -- helpers ---------------------------------------------------------

    def _lineup(self):
        """``(primary, [(member, probe), ...])`` for this race."""
        healthy, probes = [], []
        for member in self._members:
            status = self.ledger.status(member.label)
            if status == "healthy":
                healthy.append(member)
            elif status == "probe":
                probes.append(member)
        healthy.sort(
            key=lambda m: self.ledger.sort_key(m.label, m.index))
        if probes:
            _METRICS.inc("portfolio.probes", len(probes))
        if not healthy:
            if not probes:
                return None, []
            # Probes may not be primaries: the trusted member leads,
            # probes ride along as hedges.
            if any(m.trusted for m in probes):
                # ... unless the trusted member itself is the probe.
                trusted = next(m for m in probes if m.trusted)
                rest = [(m, True) for m in probes if m is not trusted]
                return trusted, rest
            return self._trusted, [(m, True) for m in probes]
        hedges = [(m, False) for m in healthy[1:]]
        hedges.extend((m, True) for m in probes)
        return healthy[0], hedges

    def _hedge_delay_for(self, primary):
        if self.hedge_delay is not None:
            return self.hedge_delay
        record = self.ledger.member(primary.label)
        if record.ewma_latency:
            return record.ewma_latency * HEDGE_LATENCY_FACTOR
        return DEFAULT_HEDGE_DELAY

    def _member_limits(self, member, limits, cancel_event):
        seed = limits.seed
        if seed is not None and member.index:
            # Diversify decision order across members so they explore
            # the search space differently.
            seed = seed + 1009 * member.index
        return replace(limits, seed=seed, cancel=cancel_event)

    def _agreed(self, verdicts):
        """The winning label once ``min_agreement`` members concur.

        An UNSAT claim has no checkable certificate (unlike a SAT
        witness, which :func:`vet_witness` checks), so a sole untrusted
        UNSAT never wins here — it falls through to the
        trusted-confirmation path in :meth:`_settle` instead.
        """
        if self._conflicting(verdicts):
            return None
        counts = {}
        for label, verdict in verdicts.items():
            counts[verdict] = counts.get(verdict, 0) + 1
        quorum = min(self.min_agreement, len(self._members))
        for verdict, count in counts.items():
            if count < quorum:
                continue
            supporters = [label for label in verdicts
                          if verdicts[label] == verdict]
            if (verdict == "unsat" and count < max(quorum, 2)
                    and self._trusted.label not in supporters):
                continue
            return supporters[0]  # first delivered wins
        return None

    @staticmethod
    def _conflicting(verdicts):
        values = set(verdicts.values())
        return "sat" in values and "unsat" in values

    def _trusted_check(self, cnf, limits):
        trusted_limits = replace(limits, cancel=None)
        return self._trusted.backend.check(cnf, limits=trusted_limits)

    def _disagree(self, cnf, limits, outcomes, order, race_span,
                  trusted_result=None):
        """The disagreement sentinel: evidence, ledger, typed raise."""
        _METRICS.inc("portfolio.disagreements")
        verdicts = {label: outcomes[label][0].verdict for label in order}
        if trusted_result is None and not any(
            label == self._trusted.label for label in order
        ):
            trusted_result = self._trusted_check(cnf, limits)
        if trusted_result is None:  # the trusted member raced and answered
            trusted_verdict = outcomes[self._trusted.label][0].verdict
        else:
            trusted_verdict = trusted_result.verdict
        # Fault whoever the trusted re-check contradicts; if the trusted
        # member could not answer, fault every definitive member (one of
        # them lies and we cannot tell which).
        for label in order:
            if label == self._trusted.label:
                continue
            if trusted_verdict not in _DEFINITIVE \
                    or verdicts[label] != trusted_verdict:
                self.ledger.record_fault(label, "disagreement")
        text = cnf.text()
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        _obs.event(
            "portfolio.disagreement", span_parent=race_span.id,
            verdicts=verdicts, trusted=self._trusted.label,
            trusted_verdict=trusted_verdict, query_sha256=digest,
            query_chars=len(text),
            outcomes={
                label: {"verdict": result.verdict, "reason": result.reason,
                        "latency": round(latency, 6)}
                for label, (result, latency) in outcomes.items()
            },
            health=self.ledger.snapshot(),
        )
        # A soundness violation is exactly the moment the flight
        # recorder exists for: dump the recent-history ring before the
        # raise unwinds the engine, so the evidence survives even when
        # tracing is off.
        _flight.flight_dump(f"soundness-{digest}")
        raise SoundnessViolation(
            f"portfolio members disagree on query {digest}: "
            + ", ".join(f"{label}={verdict}"
                        for label, verdict in sorted(verdicts.items()))
            + f" (trusted {self._trusted.label} says {trusted_verdict})",
            verdicts=verdicts, trusted=self._trusted.label,
        )


def _fault_reason(exc):
    """Canonical reason for an exception a member raised mid-race."""
    if isinstance(exc, RuntimeFault):
        return normalize_reason(getattr(exc, "reason", "backend-error"))
    return "backend-error"


# -- registry factory -------------------------------------------------------

_SHARED_LOCK = threading.Lock()
_SHARED = {}


def shared_portfolio():
    """The process-wide portfolio instance for the current roster.

    The registry factory is called once per ``Solver`` construction;
    handing every solver the same instance is what makes the health
    ledger persist across CEGIS iterations and engine phases.  Keyed by
    ``$REPRO_PORTFOLIO`` so tests that monkeypatch it get a fresh
    portfolio rather than a stale roster.
    """
    key = os.environ.get(PORTFOLIO_ENV, "")
    with _SHARED_LOCK:
        backend = _SHARED.get(key)
        if backend is None:
            backend = _SHARED[key] = PortfolioBackend()
        return backend
