"""Fault-tolerant portfolio racing: hedging, health, disagreement.

The chaos-engineering suite for :class:`PortfolioBackend`: every
misbehavior ``fake_sat_solver.py`` can simulate (hang, crash, garbage,
flipped verdicts, intermittent flakiness) is raced against the honest
in-process CDCL, and the portfolio must come out with the right answer,
zero leaked temp files, zero orphan threads — or a typed
``SoundnessViolation`` when members genuinely contradict each other.
"""

import os
import sys
import tempfile
import threading
import time

import pytest

from repro.obs import Tracer, installed
from repro.obs.metrics import METRICS
from repro.obs.schema import load_events
from repro.runtime import SoundnessViolation
from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.backends import (
    BackendResult,
    CheckLimits,
    HealthLedger,
    OneShotCdclBackend,
    PortfolioBackend,
    SolverBackend,
    available_backends,
    backend_capabilities,
    shared_portfolio,
)
from repro.smt.backends.portfolio import PORTFOLIO_ENV
from repro.smt.backends.subprocess_dimacs import SubprocessDimacsBackend
from repro.smt.solver import SAT, UNSAT

FAKE_SOLVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fake_sat_solver.py")


def _fake_command(*flags):
    return [sys.executable, FAKE_SOLVER, *flags]


def _fake_backend(*flags):
    return SubprocessDimacsBackend(command=_fake_command(*flags))


class _Capture(SolverBackend):
    """A stateless backend that keeps the CNF the facade sends it."""

    name = "capture"

    def check(self, cnf, assumptions=(), limits=None):
        self.cnf = cnf
        return BackendResult("unknown", reason="backend-error")


def _cnf(*assertions):
    """The CNF the facade exports for ``assertions``."""
    capture = _Capture()
    solver = Solver(backend=capture)
    solver.add_all(assertions)
    solver.check()
    return capture.cnf


def _sat_dimacs():
    x = T.bv_var("x", 4)
    return _cnf(T.bv_eq(x, T.bv_const(9, 4)))


def _unsat_dimacs():
    x = T.bv_var("x", 4)
    return _cnf(
        T.bv_ult(x, T.bv_const(3, 4)),
        T.bv_ugt(x, T.bv_const(12, 4)),
    )


def _hard_dimacs(bits=14, composite=9409 * 89):
    p = T.bv_var("cp", bits)
    q = T.bv_var("cq", bits)
    product = T.bv_mul(T.zero_extend(p, 2 * bits),
                       T.zero_extend(q, 2 * bits))
    return _cnf(
        T.bv_eq(product, T.bv_const(composite, 2 * bits)),
        T.bv_ugt(p, T.bv_const(1, bits)),
        T.bv_ugt(q, T.bv_const(1, bits)),
    )


def _thread_names():
    return {t.name for t in threading.enumerate()}


# ---------------------------------------------------------------------------
# Registry and roster
# ---------------------------------------------------------------------------


def test_portfolio_is_registered_with_capabilities():
    assert "portfolio" in available_backends()
    assert backend_capabilities()["portfolio"] == {
        "supports_incremental": False,
    }


def test_roster_from_env_var(monkeypatch):
    monkeypatch.setenv(
        PORTFOLIO_ENV,
        f"inprocess; cmd:{sys.executable} {FAKE_SOLVER}",
    )
    backend = PortfolioBackend()
    assert backend.members == ("inprocess-oneshot", "subprocess-dimacs")


def test_duplicate_members_get_distinct_labels():
    backend = PortfolioBackend(members=[_fake_backend(), _fake_backend()])
    assert backend.members == ("subprocess-dimacs", "subprocess-dimacs#2")


def test_portfolio_rejects_itself_as_member():
    with pytest.raises(ValueError, match="member of itself"):
        PortfolioBackend(members=["portfolio"])


def test_shared_portfolio_is_cached_per_env(monkeypatch):
    monkeypatch.setenv(PORTFOLIO_ENV, "inprocess")
    first = shared_portfolio()
    assert shared_portfolio() is first
    monkeypatch.setenv(PORTFOLIO_ENV, "inprocess;inprocess")
    assert shared_portfolio() is not first


# ---------------------------------------------------------------------------
# Racing: winner selection, hedging, cancellation hygiene
# ---------------------------------------------------------------------------


def test_single_member_portfolio_through_the_facade():
    solver = Solver(backend=PortfolioBackend(members=["inprocess"]))
    x = T.bv_var("x", 8)
    solver.add(T.bv_eq(T.bv_add(x, T.bv_const(1, 8)), T.bv_const(10, 8)))
    assert solver.check() is SAT
    assert solver.model().value(x) == 9
    assert solver.backend_name == "portfolio"
    solver.add(T.bv_eq(x, T.bv_const(3, 8)))
    assert solver.check() is UNSAT


def test_race_against_hanging_and_crashing_members(tmp_path, monkeypatch):
    """The acceptance race: honest CDCL vs a hang vs a crash.

    The winner must be the honest member, every subprocess must be
    reaped, and no ``repro-dimacs-*`` temp dir may leak (the
    kill-mid-race regression).
    """
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    backend = PortfolioBackend(
        members=["inprocess", _fake_backend("--hang", "60"),
                 _fake_backend("--crash")],
        hedge_delay=0.0,
    )
    before = _thread_names()
    result = backend.check(_sat_dimacs())
    assert result.verdict == "sat"
    result = backend.check(_unsat_dimacs())
    assert result.verdict == "unsat"
    # Member threads all joined: nothing new left running.
    leftovers = {n for n in _thread_names() - before
                 if n.startswith("portfolio-")}
    assert not leftovers
    # The hanging solver was hard-killed and its workdir removed.
    assert [p for p in tmp_path.iterdir()
            if p.name.startswith("repro-dimacs-")] == []


def test_fast_primary_means_hedges_never_launch():
    hang = _fake_backend("--hang", "60")
    backend = PortfolioBackend(members=["inprocess", hang],
                               hedge_delay=30.0)
    assert backend.check(_sat_dimacs()).verdict == "sat"
    # The hedge member was never even launched.
    assert backend.ledger.member("subprocess-dimacs").checks == 0


def test_hedges_fire_when_primary_cannot_answer():
    # The primary crashes instantly; the hedge must be promoted even
    # though its delay has not expired.
    crash = _fake_backend("--crash")
    backend = PortfolioBackend(members=[crash, "inprocess"],
                               hedge_delay=30.0)
    before = METRICS.get("portfolio.hedges_fired")
    assert backend.check(_sat_dimacs()).verdict == "sat"
    assert METRICS.get("portfolio.hedges_fired") == before + 1


def test_caller_deadline_is_honoured():
    backend = PortfolioBackend(members=[_fake_backend("--hang", "60")],
                               hedge_delay=0.0)
    started = time.monotonic()
    result = backend.check(
        _sat_dimacs(), limits=CheckLimits(deadline=started + 0.3))
    assert time.monotonic() - started < 5.0
    # The hang never answers; the trusted fallback path may still solve
    # the query after the deadline aborts the race.
    assert result.verdict in ("sat", "unknown")


def test_cooperative_cancel_stops_the_cdcl_member():
    # A factoring instance the CDCL core cannot finish instantly, so the
    # cancellation checkpoints inside search actually fire.
    cancel = threading.Event()
    cancel.set()
    started = time.monotonic()
    result = OneShotCdclBackend().check(
        _hard_dimacs(), limits=CheckLimits(cancel=cancel))
    assert time.monotonic() - started < 2.0
    assert result.verdict == "unknown"
    assert result.reason == "cancelled"


# ---------------------------------------------------------------------------
# Health ledger: quarantine entry, probe re-entry, restoration
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_ledger_quarantines_after_consecutive_faults():
    clock = FakeClock()
    ledger = HealthLedger(quarantine_after=3, clock=clock, seed=1)
    for _ in range(2):
        ledger.record_fault("m", "backend-error")
    assert ledger.status("m") == "healthy"
    ledger.record_fault("m", "backend-error")
    assert ledger.status("m") == "quarantined"
    assert ledger.quarantine_events == 1
    record = ledger.member("m")
    assert record.quarantine_backoff > 0.0
    # Backoff expiry turns the member into a probe, not healthy.
    clock.now += record.quarantine_backoff + 0.01
    assert ledger.status("m") == "probe"
    # A definitive answer restores full health.
    ledger.record_success("m", latency=0.01, won=True)
    assert ledger.status("m") == "healthy"
    assert ledger.member("m").wins == 1


def test_probe_fault_requarantines_with_grown_backoff():
    clock = FakeClock()
    ledger = HealthLedger(quarantine_after=1, quarantine_base=0.25,
                          quarantine_cap=30.0, clock=clock, seed=1)
    ledger.record_fault("m", "backend-error")
    first_backoff = ledger.member("m").quarantine_backoff
    clock.now += first_backoff + 0.01
    assert ledger.status("m") == "probe"
    ledger.record_fault("m", "backend-error")
    assert ledger.status("m") == "quarantined"
    assert ledger.member("m").quarantines == 2
    # Decorrelated jitter: bounded by the cap, floored at the base.
    assert 0.25 <= ledger.member("m").quarantine_backoff <= 30.0


def test_neutral_reasons_never_quarantine():
    ledger = HealthLedger(quarantine_after=1)
    for reason in ("conflicts", "memory", "iterations", "cancelled"):
        ledger.record_fault("m", reason)
    assert ledger.status("m") == "healthy"
    assert ledger.member("m").consecutive_faults == 0
    # Deadline IS a fault (this member specifically ran out the clock).
    ledger.record_fault("m", "deadline")
    assert ledger.status("m") == "quarantined"


def test_persistent_losing_quarantines_at_higher_threshold():
    ledger = HealthLedger(loss_quarantine_after=5)
    for _ in range(4):
        ledger.record_loss("m", latency=0.5)
    assert ledger.status("m") == "healthy"
    ledger.record_loss("m", latency=0.5)
    assert ledger.status("m") == "quarantined"


def test_crashing_member_enters_and_exits_quarantine_in_races():
    # min_agreement=2 makes the race deterministic: the loop never
    # breaks on the primary's sole answer, so the hedge always launches
    # (or is provably excluded by quarantine).
    clock = FakeClock()
    ledger = HealthLedger(quarantine_after=1, quarantine_base=0.01,
                          quarantine_cap=0.05, clock=clock, seed=3)
    crash = _fake_backend("--crash")
    backend = PortfolioBackend(members=["inprocess", crash],
                               hedge_delay=0.0, min_agreement=2,
                               ledger=ledger)
    assert backend.check(_sat_dimacs()).verdict == "sat"
    # The crash member faulted once -> quarantined immediately.
    assert ledger.member("subprocess-dimacs").reasons.get(
        "backend-error", 0) >= 1
    clock.now -= 1000.0  # force 'quarantined' regardless of real elapsed
    assert ledger.status("subprocess-dimacs") == "quarantined"
    # While quarantined it is excluded from the lineup entirely.
    before = ledger.member("subprocess-dimacs").checks
    assert backend.check(_sat_dimacs()).verdict == "sat"
    assert ledger.member("subprocess-dimacs").checks == before
    # Once the backoff expires it probes again (as a hedge)...
    clock.now += 2000.0
    assert ledger.status("subprocess-dimacs") == "probe"
    assert backend.check(_sat_dimacs()).verdict == "sat"
    assert ledger.member("subprocess-dimacs").checks == before + 1
    # ...and the probe's fault re-quarantines it with a grown count.
    assert ledger.member("subprocess-dimacs").quarantines == 2


def test_all_members_quarantined_degrades_to_trusted():
    clock = FakeClock()
    ledger = HealthLedger(quarantine_after=1, quarantine_base=50.0,
                          quarantine_cap=60.0, clock=clock, seed=3)
    backend = PortfolioBackend(members=[_fake_backend("--crash")],
                               hedge_delay=0.0, ledger=ledger)
    before = METRICS.get("portfolio.degraded")
    assert backend.check(_sat_dimacs()).verdict == "sat"  # trusted rescue
    assert ledger.status("subprocess-dimacs") == "quarantined"
    result = backend.check(_unsat_dimacs())
    assert result.verdict == "unsat"
    assert METRICS.get("portfolio.degraded") >= before + 1


# ---------------------------------------------------------------------------
# Disagreement sentinel and model validation
# ---------------------------------------------------------------------------


def test_lying_unsat_raises_soundness_violation(tmp_path):
    """A member flipping SAT->UNSAT must never win: the trusted re-check
    contradicts it, the violation is raised, and the full provenance
    lands in a ``portfolio.disagreement`` obs event."""
    backend = PortfolioBackend(members=[_fake_backend("--flip")],
                               hedge_delay=0.0)
    path = tmp_path / "disagreement.jsonl"
    tracer = Tracer(path, run_id="portfolio-flip")
    with installed(tracer):
        with pytest.raises(SoundnessViolation) as excinfo:
            backend.check(_sat_dimacs())
    tracer.close()
    violation = excinfo.value
    assert violation.reason == "disagreement"
    assert violation.verdicts["subprocess-dimacs"] == "unsat"
    assert violation.trusted == "trusted-inprocess"
    # The lying member is marked faulted with the canonical reason.
    assert backend.ledger.member("subprocess-dimacs").reasons[
        "disagreement"] == 1

    events, _ = load_events(path)
    disagreements = [e for e in events
                     if e["ev"] == "event"
                     and e["name"] == "portfolio.disagreement"]
    assert len(disagreements) == 1
    attrs = disagreements[0]["attrs"]
    assert attrs["verdicts"] == {"subprocess-dimacs": "unsat",
                                 "trusted-inprocess": "sat"}
    assert attrs["trusted_verdict"] == "sat"
    assert attrs["query_sha256"]
    assert "subprocess-dimacs" in attrs["health"]


def test_lying_sat_is_caught_by_model_validation():
    # Flipping UNSAT->SAT fabricates a witness; clause validation
    # rejects it locally (malformed-model), and the trusted member's
    # honest UNSAT is returned -- no verdict corruption, no exception.
    backend = PortfolioBackend(members=[_fake_backend("--flip")],
                               hedge_delay=0.0)
    result = backend.check(_unsat_dimacs())
    assert result.verdict == "unsat"
    assert backend.ledger.member("subprocess-dimacs").reasons.get(
        "malformed-model", 0) >= 1


def test_witnessless_sat_member_is_a_fault():
    # A bare "sat" carries nothing to check, so it cannot win a race:
    # the member is faulted and the trusted member's UNSAT stands.
    class BareSat(SolverBackend):
        name = "bare-sat"

        def check(self, cnf, assumptions=(), limits=None):
            return BackendResult("sat")

    backend = PortfolioBackend(members=[BareSat()], hedge_delay=0.0)
    assert backend.check(_unsat_dimacs()).verdict == "unsat"
    assert backend.ledger.member("bare-sat").reasons == {"backend-error": 1}


def test_min_agreement_requires_trusted_confirmation():
    # One honest external member + one crasher, min_agreement=2: the
    # sole definitive answer cannot reach quorum, so the trusted member
    # must confirm it before it is returned.
    backend = PortfolioBackend(
        members=[_fake_backend(), _fake_backend("--crash")],
        hedge_delay=0.0, min_agreement=2,
    )
    before = METRICS.get("portfolio.confirmations")
    result = backend.check(_sat_dimacs())
    assert result.verdict == "sat"
    assert METRICS.get("portfolio.confirmations") == before + 1


def test_disagreement_raises_through_the_facade():
    solver = Solver(backend=PortfolioBackend(
        members=[_fake_backend("--flip")], hedge_delay=0.0))
    x = T.bv_var("x", 8)
    solver.add(T.bv_eq(x, T.bv_const(7, 8)))
    with pytest.raises(SoundnessViolation):
        solver.check()


# ---------------------------------------------------------------------------
# Flaky members: intermittent crashes across a run
# ---------------------------------------------------------------------------


def test_flaky_member_recovers_between_crashes(tmp_path):
    state = tmp_path / "flaky-state"
    flaky = _fake_backend("--flaky", "2", "--state-file", str(state))
    # Solo roster: every check exercises the flaky member directly.
    backend = PortfolioBackend(members=[flaky], hedge_delay=0.0)
    verdicts = [backend.check(_sat_dimacs()).verdict for _ in range(4)]
    # Crashes on calls 2 and 4; the trusted fallback still answers sat.
    assert verdicts == ["sat"] * 4
    record = backend.ledger.member("subprocess-dimacs")
    assert record.reasons.get("backend-error", 0) >= 1
    assert record.state == "healthy"  # never 3 consecutive


# ---------------------------------------------------------------------------
# Obs: race spans, member events, metrics counters
# ---------------------------------------------------------------------------


def test_race_span_and_member_events_are_attributed(tmp_path):
    path = tmp_path / "race.jsonl"
    tracer = Tracer(path, run_id="portfolio-race")
    backend = PortfolioBackend(
        members=["inprocess", _fake_backend("--hang", "60")],
        hedge_delay=0.0,
    )
    with installed(tracer):
        assert backend.check(_sat_dimacs()).verdict == "sat"
    tracer.close()
    events, _ = load_events(path)
    races = [e for e in events
             if e["ev"] == "span_begin" and e["name"] == "portfolio.race"]
    assert len(races) == 1
    race_id = races[0]["id"]
    members = [e for e in events
               if e["ev"] == "event" and e["name"] == "portfolio.member"]
    assert members, "no per-member events recorded"
    for ev in members:
        assert ev["parent"] == race_id
    outcomes = [e for e in events
                if e["ev"] == "event" and e["name"] == "portfolio.outcome"]
    assert len(outcomes) == 1
    assert outcomes[0]["attrs"]["winner"] == "inprocess-oneshot"
    assert outcomes[0]["attrs"]["verdict"] == "sat"


def test_race_metrics_accumulate():
    before = METRICS.get("portfolio.races")
    backend = PortfolioBackend(members=["inprocess"])
    backend.check(_sat_dimacs())
    backend.check(_unsat_dimacs())
    assert METRICS.get("portfolio.races") == before + 2


def test_report_totals_extract_portfolio_deltas():
    from repro.obs.report import totals

    events = [
        {"ev": "event", "name": "metrics.snapshot", "ts": 0.0,
         "attrs": {"encode.terms": 5}},
        {"ev": "event", "name": "metrics.snapshot", "ts": 1.0,
         "attrs": {"encode.terms": 9, "portfolio.races": 3,
                   "portfolio.hedges_fired": 1}},
    ]
    agg = totals(events)
    assert agg["portfolio_delta"] == {"races": 3, "hedges_fired": 1}
    assert agg["encode_delta"] == {"terms": 4}
