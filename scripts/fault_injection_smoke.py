#!/usr/bin/env python3
"""CI smoke check: a fault mid-CEGIS must degrade, not crash.

Five lanes:

* **degradation** — a ``FaultInjector`` forces an UNKNOWN verdict partway
  through the ALU synthesis run; the engine must hand back a
  ``PartialSynthesisResult`` carrying the already-completed instructions,
  and resuming from it must complete a verifying design.
* **worker containment** — the same synthesis under the sandboxed
  ``incremental-subprocess`` backend with an injected child crash, hang,
  and OOM; every death must be classified and contained (correct final
  design, balanced spawn/reap accounting, no live child processes), and
  a child that crashes on every solve must trip the circuit breaker
  while the run still completes.
* **subprocess backend misbehavior** — an external DIMACS solver that
  crashes or prints garbage must degrade to a canonical
  ``unknown(backend-error)`` verdict, never a raw exception or a bogus
  SAT; one that answers SAT to an UNSAT query with a fabricated witness
  must come back ``unknown(malformed-model)``; a well-behaved external
  solver must still synthesize a verifying design.
* **portfolio chaos** — the hedged-racing backend with one member that
  hangs forever and one that crashes intermittently must still complete
  the full synthesis bit-identically, with zero leaked temp files and a
  fully attributed trace; a verdict-flipping member must raise
  ``SoundnessViolation`` (with a ``portfolio.disagreement`` obs event),
  never return a wrong verdict.
* **service journal faults** — the synthesis daemon with injected
  journal write faults must reject submissions with the typed
  ``service.journal`` error (canonical reason ``journal-fault``) and
  never acknowledge a job whose record was not made durable; once the
  fault clears, the same submission must run to a verified ``done``.

Exits non-zero on any violation.

Run: ``PYTHONPATH=src python scripts/fault_injection_smoke.py``
"""

import os
import sys
import threading

from repro.designs import alu_machine
from repro.obs import METRICS
from repro.runtime import FaultInjector
from repro.runtime.reasons import is_canonical
from repro.smt import Solver, terms
from repro.smt.backends import SolverConfig
from repro.smt.backends.incremental_subprocess import WORKER_ENV
from repro.smt.backends.subprocess_dimacs import SubprocessDimacsBackend
from repro.synthesis import PartialSynthesisResult, synthesize, verify_design

_FAKE_SOLVER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "smt", "fake_sat_solver.py",
)


def _live_worker_pids():
    """This process's children still running the sandboxed worker."""
    me = str(os.getpid())
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        if ppid == me and b"repro.runtime.incremental_worker" in cmdline:
            live.append(int(entry))
    return live


def _sandboxed_run(problem, injector):
    """Synthesize under the sandboxed backend; returns (result, delta)."""
    before = METRICS.snapshot()
    with injector.installed():
        result = synthesize(
            problem, timeout=300, check_independence=False,
            config=SolverConfig(backend="incremental-subprocess"))
    delta = METRICS.delta_since(before)
    return result, {k: v for k, v in delta.items()
                    if k.startswith("worker.")}


def worker_containment(problem):
    """The sandboxed backend survives an injected crash, hang, and OOM."""
    # Every child of this lane runs under a 512 MiB heap rlimit, so the
    # injected OOM breaches the child's cap instead of the machine's.
    previous = os.environ.get(WORKER_ENV)
    os.environ[WORKER_ENV] = (f"{sys.executable} -m "
                              "repro.runtime.incremental_worker "
                              "--mem-limit-mb 512")
    try:
        injector = FaultInjector()
        injector.inject_worker_crash(at_request=1)
        injector.inject_worker_hang(at_request=3)
        injector.inject_worker_oom(at_request=5)
        result, delta = _sandboxed_run(problem, injector)
        fired = [kind for kind, _ in injector.fired]
        assert fired == ["worker:crash", "worker:hang", "worker:oom"], fired
        for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
            assert result.hole_values_for(name) == expected, name
        verdict = verify_design(result.completed_design, problem.spec,
                                problem.alpha)
        assert verdict.ok, verdict.summary()
        assert delta.get("worker.crashes", 0) >= 3, delta
        assert delta.get("worker.watchdog_kills", 0) >= 1, delta
        assert delta["worker.spawned"] == delta["worker.reaped"], delta
        assert not _live_worker_pids(), "orphaned worker processes"
        stragglers = [t.name for t in threading.enumerate()
                      if t.name == "incremental-worker-reader"]
        assert not stragglers, f"reader threads outlived the run: {stragglers}"
        print("worker containment: crash+hang+oom contained, design "
              f"verifies, accounting balanced {delta}")

        # A child that crashes on every solve trips each solver's
        # circuit breaker; the run completes in-process.
        injector = FaultInjector().inject_worker_crash(at_request="all")
        result, delta = _sandboxed_run(problem, injector)
        for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
            assert result.hole_values_for(name) == expected, name
        assert delta.get("worker.fallbacks", 0) >= 1, delta
        assert delta["worker.spawned"] == delta["worker.reaped"], delta
        assert not _live_worker_pids(), "orphaned worker processes"
        print("worker containment: persistent crasher tripped "
              f"{delta['worker.fallbacks']} circuit breaker(s), run "
              "completed")
    finally:
        if previous is None:
            os.environ.pop(WORKER_ENV, None)
        else:
            os.environ[WORKER_ENV] = previous


def subprocess_backend_misbehavior(problem):
    """A crashing, garbage-printing or lying external solver degrades
    cleanly."""
    for flag in ("--crash", "--garbage"):
        backend = SubprocessDimacsBackend(
            command=[sys.executable, _FAKE_SOLVER, flag])
        solver = Solver(backend=backend)
        x = terms.bv_var("smoke_x", 8)
        solver.add(terms.bv_eq(x, terms.bv_const(7, 8)))
        verdict = solver.check()
        assert verdict.name == "unknown", (flag, verdict)
        assert verdict.reason == "backend-error", (flag, verdict.reason)
        assert is_canonical(verdict.reason), verdict.reason
        print(f"subprocess backend {flag}: degraded to "
              f"unknown({verdict.reason})")

    # A lying solver: --flip answers SAT to an UNSAT query with a
    # fabricated witness, which the facade checks against the CNF.
    backend = SubprocessDimacsBackend(
        command=[sys.executable, _FAKE_SOLVER, "--flip"])
    solver = Solver(backend=backend)
    x = terms.bv_var("smoke_x", 8)
    solver.add(terms.bv_eq(x, terms.bv_const(7, 8)))
    solver.add(terms.bv_eq(x, terms.bv_const(8, 8)))
    verdict = solver.check()
    assert verdict.name == "unknown", ("--flip", verdict)
    assert verdict.reason == "malformed-model", ("--flip", verdict.reason)
    print(f"subprocess backend --flip: lying SAT refused as "
          f"unknown({verdict.reason})")

    # And a *well-behaved* external solver completes real synthesis.
    backend = SubprocessDimacsBackend(command=[sys.executable, _FAKE_SOLVER])
    result = synthesize(problem, timeout=300, check_independence=False,
                        config=SolverConfig(backend=backend))
    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert result.hole_values_for(name) == expected, name
    verdict = verify_design(result.completed_design, problem.spec,
                            problem.alpha)
    assert verdict.ok, verdict.summary()
    assert result.stats["backend"] == "subprocess-dimacs", result.stats
    print("subprocess backend clean: design synthesized externally and "
          "verifies")


def portfolio_chaos(problem, trace_path):
    """Hedged racing survives a hanging and a flaky member, attributed."""
    import glob
    import tempfile
    import threading

    from repro.obs import Tracer, installed
    from repro.obs.report import totals
    from repro.obs.schema import load_events
    from repro.runtime import SoundnessViolation
    from repro.smt.backends import PortfolioBackend

    state_dir = tempfile.mkdtemp(prefix="repro-portfolio-smoke-")
    backend = PortfolioBackend(members=[
        "inprocess",
        SubprocessDimacsBackend(
            command=[sys.executable, _FAKE_SOLVER, "--hang", "60"]),
        SubprocessDimacsBackend(
            command=[sys.executable, _FAKE_SOLVER, "--flaky", "2",
                     "--state-file", os.path.join(state_dir, "flaky")]),
    ])
    tmp_pattern = os.path.join(tempfile.gettempdir(), "repro-dimacs-*")
    tmp_before = set(glob.glob(tmp_pattern))
    tracer = Tracer(trace_path, run_id="portfolio-smoke")
    with installed(tracer):
        result = synthesize(problem, timeout=300, check_independence=False,
                            config=SolverConfig(backend=backend))
    tracer.close()

    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert result.hole_values_for(name) == expected, name
    verdict = verify_design(result.completed_design, problem.spec,
                            problem.alpha)
    assert verdict.ok, verdict.summary()
    assert result.stats["backend"] == "portfolio", result.stats

    leaked = set(glob.glob(tmp_pattern)) - tmp_before
    assert not leaked, f"leaked solver temp dirs: {sorted(leaked)}"
    stragglers = [t.name for t in threading.enumerate()
                  if t.name.startswith("portfolio-")]
    assert not stragglers, f"member threads outlived races: {stragglers}"

    events, _ = load_events(trace_path)
    agg = totals(events)
    assert agg["solver_queries"] > 0, "trace recorded no solver queries"
    assert agg["orphan_queries"] == 0, (
        f"{agg['orphan_queries']} unattributed solver queries")
    assert agg["portfolio_delta"].get("races", 0) > 0, agg["portfolio_delta"]
    print("portfolio chaos: synthesis bit-identical under hang+flaky "
          f"members, {agg['solver_queries']} queries all attributed, "
          f"{agg['portfolio_delta'].get('races')} races, 0 leaks; "
          f"trace at {trace_path}")

    # A verdict-flipping member must trip the disagreement sentinel.
    flip = PortfolioBackend(members=[SubprocessDimacsBackend(
        command=[sys.executable, _FAKE_SOLVER, "--flip"])])
    solver = Solver(backend=flip)
    x = terms.bv_var("flip_x", 8)
    solver.add(terms.bv_eq(x, terms.bv_const(7, 8)))
    try:
        solver.check()
    except SoundnessViolation as exc:
        assert exc.reason == "disagreement", exc.reason
        assert exc.verdicts, "violation carries no member verdicts"
        print(f"portfolio flip: SoundnessViolation raised ({exc.verdicts})")
    else:
        raise AssertionError(
            "a lying member returned a verdict instead of raising")


def service_journal_faults():
    """Journal write faults degrade to typed errors, never lost acks."""
    import tempfile

    from repro.service import JournalFault, SynthesisService

    with tempfile.TemporaryDirectory() as state:
        service = SynthesisService(state, fsync=False)
        service.start()
        try:
            injector = FaultInjector()
            injector.inject_journal_fault(at_append="all")
            with injector.installed():
                # Direct API: the typed fault propagates, nothing is acked.
                try:
                    service.submit("accumulator")
                except JournalFault as fault:
                    assert is_canonical(fault.reason), fault.reason
                    assert fault.reason == "journal-fault", fault.reason
                else:
                    raise AssertionError(
                        "submit acknowledged a job whose journal record "
                        "was never durable")
                # Protocol boundary: the same fault as a typed response.
                response = service.handle_request(
                    {"op": "submit", "design": "accumulator"})
                assert not response["ok"], response
                assert response["error"]["type"] == "service.journal", \
                    response
                assert response["error"]["reason"] == "journal-fault", \
                    response
            assert injector.fired, "the journal fault never fired"
            assert service.stats()["jobs"] == {}, (
                "an un-logged job leaked into the store: "
                f"{service.stats()['jobs']}")
            # Fault cleared: the identical submission completes.
            ack = service.submit("accumulator")
            job = service.wait(ack["job_id"], timeout=120)
            assert job["state"] == "done", job
        finally:
            service.shutdown(timeout=10.0)
    print("service journal faults degraded to typed errors; "
          "post-fault submission completed")


def main():
    problem = alu_machine.build_problem()
    names = [i.name for i in problem.spec.instructions]

    # Calibrate: count facade checks per instruction on a clean run.
    counter = FaultInjector()
    boundaries = {}
    with counter.installed():
        synthesize(problem, timeout=300, check_independence=False,
                   progress=lambda name, _s: boundaries.setdefault(
                       name, counter.check_count))
    first_span_end = boundaries[names[0]]

    # Inject: the first check of the second instruction comes back UNKNOWN.
    injector = FaultInjector().inject_unknown(at_check=first_span_end + 1)
    with injector.installed():
        partial = synthesize(problem, timeout=300, check_independence=False,
                             on_timeout="partial")

    assert isinstance(partial, PartialSynthesisResult), (
        f"expected PartialSynthesisResult, got {type(partial).__name__}")
    assert partial.pending == [names[1]], partial.pending
    assert partial.completed_count == len(names) - 1, partial.summary()
    assert injector.fired, "the planned fault never fired"
    print(partial.summary())

    resumed = synthesize(problem, timeout=300,
                         resume_from=partial.to_dict())
    verdict = verify_design(resumed.completed_design, problem.spec,
                            problem.alpha)
    assert verdict.ok, verdict.summary()
    print(f"resume completed {len(resumed.per_instruction)} instructions; "
          "design verifies")

    worker_containment(problem)
    subprocess_backend_misbehavior(problem)
    trace_path = os.environ.get("REPRO_SMOKE_TRACE",
                                "portfolio_smoke_trace.jsonl")
    portfolio_chaos(problem, trace_path)
    service_journal_faults()
    return 0


if __name__ == "__main__":
    sys.exit(main())
