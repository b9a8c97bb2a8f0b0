"""Counterexample-guided inductive synthesis over the QF_BV solver.

This is the decision procedure for the ∃holes ∀state formulas of
Equation (1)/(2).  Rosette's ``synthesize`` runs the same loop internally;
here it is explicit:

1. *verify*: with the current hole candidate substituted, ask the solver for
   a state falsifying the formula.  UNSAT means the candidate is correct.
2. *guess*: substitute the counterexample state into the formula (constant
   folding collapses the datapath almost entirely) and add it as a
   constraint on the hole variables; ask for a new candidate.

The guess solver is incremental — every counterexample stays, so candidates
monotonically improve.  The verify side has one mode per pipeline: the
fresh pipeline substitutes the candidate and solves a fresh, folded
query; the unfolded ablation asserts the candidate beside the unreduced
formula; the incremental pipeline (see ``repro.synthesis.incremental``)
stages each candidate's folded negation, selector-guarded, into one
persistent per-formula verifier — SAT variables and learned clauses
survive across the iterations of the formula's run, polish's trial
candidates included.  The verifier lives for that CEGIS run; only the
shared AIGs (interned regions blast once) and their ``var_bits`` carry
over to the next instruction.  Both sides run under a cooperative
``repro.runtime.Budget`` (wall clock, conflicts, memory) so Table 1's
timeout rows reproduce faithfully, and every UNKNOWN is typed:

* ``reason="deadline"``/``"memory"`` → :class:`SynthesisTimeout` — more
  attempts cannot help;
* ``reason="conflicts"``/``"injected"`` → retried under the
  :class:`repro.runtime.RetryPolicy` (escalated conflict budget, reseeded
  decision order), then :class:`SolverUnknown` if retries are exhausted;
* a SAT verdict with an out-of-width model (a buggy or fault-injected
  backend) → :class:`MalformedModel`, never silently corrupted control
  logic.
"""

from __future__ import annotations

import contextlib
import time

from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.runtime import (
    Budget,
    BudgetExhausted,
    MalformedModel,
    SolverUnknown,
    run_with_retry,
)
from repro.smt import counters as _counters
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.solver import Solver, SAT, UNSAT, UNKNOWN
from repro.synthesis.incremental import IncrementalContext
from repro.synthesis.result import SynthesisFailure, SynthesisTimeout

__all__ = ["cegis_solve", "CegisStats"]

class CegisStats:
    """Counters for one CEGIS run (exposed in synthesis results).

    The encode counters (``solver_instances``, ``aig_nodes``,
    ``tseitin_clauses``) are deltas of the process-global
    ``repro.smt.counters`` taken across the run; the engine dispatches
    instructions serially, so they are exact per run.
    """

    def __init__(self):
        self.iterations = 0
        self.verify_time = 0.0
        self.guess_time = 0.0
        self.verify_conflicts = 0
        self.guess_conflicts = 0
        self.retries = 0
        self.polish_checks = 0
        self.solver_instances = 0
        self.aig_nodes = 0
        self.tseitin_clauses = 0

    @property
    def conflicts(self):
        return self.verify_conflicts + self.guess_conflicts

    def as_dict(self):
        return {
            "iterations": self.iterations,
            "verify_time": self.verify_time,
            "guess_time": self.guess_time,
            "verify_conflicts": self.verify_conflicts,
            "guess_conflicts": self.guess_conflicts,
            "retries": self.retries,
            "polish_checks": self.polish_checks,
            "solver_instances": self.solver_instances,
            "aig_nodes": self.aig_nodes,
            "tseitin_clauses": self.tseitin_clauses,
        }


def cegis_solve(formula, hole_vars, max_iterations=256, timeout=None,
                stats=None, initial_candidate=None, budget=None,
                retry_policy=None, incremental_ctx=None, config=None):
    """Find ints for ``hole_vars`` making ``formula`` valid for all states.

    ``formula`` is a width-1 term whose free variables are ``hole_vars``
    plus the universally quantified state.  Returns ``{hole name: int}``.

    ``config`` is a :class:`repro.smt.backends.SolverConfig` (``None``
    means ``SolverConfig()``); its ``pipeline`` selects the verify
    query.  ``"incremental"`` (the default) is the persistent-verifier
    mode: each candidate's folded ``¬formula`` is staged,
    selector-guarded, into the formula's long-lived verifier inside
    ``incremental_ctx`` (an
    :class:`repro.synthesis.incremental.IncrementalContext`; a private one
    is created when omitted) and decided under a one-literal selector
    assumption — no per-iteration solver construction, shared interned
    AIG (so shared SAT variables) between consecutive candidates, and
    learned clauses that survive across the run's iterations.  Every exit
    of the run (solved, failure, timeout, unknown, interrupt) releases
    the formula's verifier (``IncrementalContext.release``): instructions
    sharing the context share only its AIGs and ``var_bits``.
    ``"fresh"`` substitutes the candidate constants into the formula
    (the rewriting constructors collapse the datapath) and solves it on
    a new solver.  ``"unfolded"`` is the rewriter ablation: it asserts
    ``hole == constant`` equalities beside the unreduced formula, the
    full-datapath queries a rewrite-free evaluator would send.

    A verified candidate is polished before it is returned:
    ``_zero_polish`` lowers each hole, in order, to its smallest value
    that still verifies, so fresh and incremental runs synthesize
    identical control logic.

    ``budget`` is a ``repro.runtime.Budget`` shared by both CEGIS sides
    (``timeout`` is folded into it); ``retry_policy`` governs escalation on
    retryable UNKNOWNs.

    ``config.backend`` selects the decision procedure for every solver
    this run constructs.  Under ``"incremental-subprocess"`` every check
    runs in a sandboxed child process: child deaths surface as retryable
    ``unknown(worker-crashed)``-style verdicts and flow through the same
    retry machinery as conflict-cap UNKNOWNs, landing each retry on a
    respawned child.

    Raises ``SynthesisFailure`` if no assignment exists,
    ``SynthesisTimeout`` if the wall-clock/memory budget is exhausted, and
    ``SolverUnknown`` if the solver gave up for a non-budget reason even
    after retries.
    """
    config = config or SolverConfig()
    incremental = config.pipeline == "incremental"
    if stats is None:
        stats = CegisStats()
    if budget is None:
        budget = Budget(timeout=timeout)
    elif timeout is not None:
        budget = budget.child(timeout=timeout)
    if incremental and incremental_ctx is None:
        incremental_ctx = IncrementalContext(config=config)
    encode_before = _counters.snapshot()
    try:
        return _cegis_loop(
            formula, hole_vars, max_iterations, stats, initial_candidate,
            budget, retry_policy, config, incremental_ctx,
        )
    finally:
        if incremental:
            incremental_ctx.release(formula)
        encode_delta = _counters.delta_since(encode_before)
        stats.solver_instances += encode_delta["solver_instances"]
        stats.aig_nodes += encode_delta["aig_nodes"]
        stats.tseitin_clauses += encode_delta["tseitin_clauses"]


def _cegis_loop(formula, hole_vars, max_iterations, stats, initial_candidate,
                budget, retry_policy, config, incremental_ctx):
    hole_names = {var.name for var in hole_vars}
    forall_vars = [
        var for var in T.free_variables(formula)
        if var.name not in hole_names
    ]
    candidate = {var.name: 0 for var in hole_vars}
    if initial_candidate:
        candidate.update(initial_candidate)
    hole_by_name = {var.name: var for var in hole_vars}
    pipeline = config.pipeline
    guess_blaster = (incremental_ctx.guess_blaster
                     if pipeline == "incremental" else None)
    guess_solver = Solver(blaster=guess_blaster, backend=config.backend)

    def verify_candidate(cand):
        """One verify check for ``cand``; returns (verdict, verifier)."""
        started = time.monotonic()
        with _obs.span("cegis.verify", mode=pipeline):
            if pipeline == "incremental":
                # Fold the candidate's constants into the formula — the
                # same datapath collapse the fresh pipeline gets — but
                # decide the query on the formula's *persistent* folded
                # verifier: consecutive candidates' instances share
                # interned AIG nodes (so SAT variables), and learned
                # clauses carry over, which makes repeat proofs nearly
                # free.  The symbolic-hole assumption check was measured
                # and retired here: its full-cone descent floor costs
                # more per check than a folded solve *plus* its encode
                # delta, on every workload shape.
                substitution = {
                    hole_by_name[name]: T.bv_const(
                        value, hole_by_name[name].width)
                    for name, value in cand.items()
                }
                verifier, sel = incremental_ctx.assert_folded(
                    formula, substitution)
                conflicts_before = verifier.conflicts
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification", assumptions=[sel])
            elif pipeline == "fresh":
                verifier = Solver(backend=config.backend)
                conflicts_before = 0
                substitution = {
                    hole_by_name[name]: T.bv_const(value,
                                                   hole_by_name[name].width)
                    for name, value in cand.items()
                }
                verifier.add(T.bv_not(T.substitute(formula, substitution)))
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification")
            else:
                verifier = Solver(backend=config.backend)
                conflicts_before = 0
                verifier.add(T.bv_not(formula))
                for name, value in cand.items():
                    var = hole_by_name[name]
                    verifier.add(T.bv_eq(var, T.bv_const(value, var.width)))
                verdict = _checked(verifier, budget, retry_policy, stats,
                                   side="verification")
        stats.verify_time += time.monotonic() - started
        stats.verify_conflicts += verifier.conflicts - conflicts_before
        return verdict, verifier

    for _ in range(max_iterations):
        stats.iterations += 1
        _METRICS.inc("cegis.iterations")
        iteration_started = time.monotonic()
        with _iteration_timer(iteration_started), \
                _obs.span("cegis.iteration", n=stats.iterations):
            # -- verify -----------------------------------------------------
            verdict, verifier = verify_candidate(candidate)
            if verdict is UNSAT:
                with _obs.span("cegis.polish"):
                    return _zero_polish(candidate, hole_vars,
                                        verify_candidate, stats)
            model = verifier.model()
            cex_values = {
                var.name: _validated(model, var, side="verification")
                for var in forall_vars
            }
            counterexample = {
                var: T.bv_const(cex_values[var.name], var.width)
                for var in forall_vars
            }
            _record_counterexample(cex_values, forall_vars, stats)
            # -- guess ------------------------------------------------------
            started = time.monotonic()
            with _obs.span("cegis.guess"):
                folded = T.substitute(formula, counterexample)
                conflicts_before = guess_solver.conflicts
                guess_solver.add(folded)
                verdict = _checked(guess_solver, budget, retry_policy, stats,
                                   side="candidate search")
            stats.guess_time += time.monotonic() - started
            stats.guess_conflicts += (guess_solver.conflicts
                                      - conflicts_before)
            if verdict is UNSAT:
                raise SynthesisFailure(
                    "no hole constants satisfy the specification; the "
                    "datapath sketch cannot implement this instruction"
                )
            model = guess_solver.model()
            candidate = {
                var.name: _validated(model, var, side="candidate search")
                for var in hole_vars
            }
    raise SynthesisTimeout(
        f"CEGIS did not converge within {max_iterations} iterations",
        reason="iterations",
    )


@contextlib.contextmanager
def _iteration_timer(started):
    # Charges the iteration's wall time to the process-wide latency
    # histogram even when the body returns or raises out of the loop.
    try:
        yield
    finally:
        _METRICS.observe("cegis.iteration", time.monotonic() - started)


def _record_counterexample(values, forall_vars, stats):
    """Record a failed verify's counterexample on the active tracer.

    The falsifying state is dumped as a single-timestep VCD under the
    trace's artifact directory, and the ``cegis.counterexample`` event
    carries the path — the bridge from "a verify query came back SAT" to
    "here is the waveform that refuted the candidate".  No tracer, no
    work; a VCD write failure degrades to an event without a path.
    """
    tracer = _obs.active_tracer()
    if tracer is None:
        return
    from repro.oyster import vcd as _vcd

    path = tracer.artifact_path(f"cex-iter{stats.iterations}.vcd")
    try:
        _vcd.write_counterexample_vcd(
            path, values, {var.name: var.width for var in forall_vars}
        )
    except OSError:
        path = None
    tracer.event("cegis.counterexample", iteration=stats.iterations,
                 vars=len(values), vcd=path)


def _zero_polish(candidate, hole_vars, verify_candidate, stats):
    """Canonicalize a verified candidate by minimizing each hole's value.

    Walks the holes in their given order; for each, scans values upward
    from 0 and keeps the first one the candidate still verifies with
    (holding the other holes fixed).  Forced holes never change (every
    smaller value fails the check); don't-care and partially-constrained
    holes land on their minimum — the same value regardless of which
    arbitrary pick the search happened to find, making the result
    independent of the pipeline.  Per-bit greedy clearing would not be
    canonical here: a hole whose valid set is e.g. {0, 5} cannot walk
    from 5 to 0 one bit at a time.  Polish is best-effort: a budget
    expiry or solver fault mid-polish keeps the already-verified
    candidate instead of failing the instruction.

    Every probe is ``verify_candidate(trial)`` on the trial candidate,
    every hole folded to a constant: a substitution solve in fresh
    mode, a stage on the formula's persistent verifier in incremental
    mode.  A trial whose negation folds to a constant is decided with
    no search.
    """
    candidate = dict(candidate)
    for var in hole_vars:
        for value in range(candidate[var.name]):
            stats.polish_checks += 1
            trial = dict(candidate)
            trial[var.name] = value
            try:
                verdict, _ = verify_candidate(trial)
            except (SynthesisTimeout, SolverUnknown):
                return candidate
            if verdict is UNSAT:
                candidate = trial
                break
    return candidate


def _checked(solver, budget, retry_policy, stats, side, assumptions=()):
    """One budgeted check with retry-with-escalation on retryable UNKNOWNs.

    Returns SAT/UNSAT; budget exhaustion surfaces as ``SynthesisTimeout``
    (with the exhausted cap as ``reason``) and non-budget UNKNOWNs as
    ``SolverUnknown`` once the retry policy gives up.  ``assumptions``
    scope to each attempt (the incremental verify path), so a reseeded
    retry replays them against the same persistent assertions.
    """
    def attempt_check(attempt):
        if attempt.index:
            stats.retries += 1
            _METRICS.inc("cegis.retries")
            _obs.event("cegis.retry", attempt=attempt.index, side=side,
                       max_conflicts=attempt.max_conflicts,
                       seed=attempt.seed)
            if attempt.seed is not None:
                solver.reseed(attempt.seed)
        verdict = solver.check(max_conflicts=attempt.max_conflicts,
                               budget=budget, assumptions=assumptions)
        if verdict == UNKNOWN:
            raise SolverUnknown(
                f"{side} returned unknown ({verdict.reason}) after "
                f"{stats.iterations} iterations",
                reason=verdict.reason,
            )
        return verdict

    try:
        return run_with_retry(attempt_check, retry_policy, budget=budget)
    except SynthesisTimeout:
        raise
    except BudgetExhausted as fault:
        # The budget itself tripped (pre-check or mid-solve): timeout.
        raise SynthesisTimeout(str(fault), reason=fault.reason) from fault
    except SolverUnknown as fault:
        if fault.reason in ("deadline", "memory"):
            raise SynthesisTimeout(str(fault), reason=fault.reason) from fault
        raise


def _validated(model, var, side):
    """Read ``var`` from ``model``, rejecting out-of-width garbage.

    A malformed assignment means the backend (or an injected fault) broke
    the encoding contract; surfacing it as :class:`MalformedModel` lets the
    engine degrade instead of synthesizing corrupt control logic.
    """
    value = model.value(var, warn=False)
    if not isinstance(value, int) or value < 0 or (value >> var.width):
        raise MalformedModel(
            f"{side} model assigns {var.name!r} = {value!r}, which does not "
            f"fit its {var.width}-bit width"
        )
    return value
