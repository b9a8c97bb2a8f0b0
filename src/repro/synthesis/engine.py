"""The synthesis driver: Figure 4's dotted box.

``synthesize`` runs either strategy, applies the control union, splices the
generated control logic back into the sketch at a dataflow-legal position,
and returns a ``SynthesisResult`` whose ``completed_design`` is a hole-free
Oyster design.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager

from repro.obs import metrics as _metrics
from repro.obs import trace as _obs
from repro.oyster import ast as oy
from repro.oyster.analysis import expr_vars, stmt_uses
from repro.oyster.typecheck import check_design
from repro.runtime import Budget, BudgetExhausted, RetryPolicy, SolverUnknown
from repro.smt import counters as _counters
from repro.smt.backends import (
    SolverBackend,
    SolverConfig,
    available_backends,
)
from repro.smt.backends.incremental_subprocess import reap_children
from repro.synthesis.incremental import IncrementalContext
from repro.synthesis.independence import check_instruction_independence
from repro.synthesis.monolithic import synthesize_monolithic_solutions
from repro.synthesis.per_instruction import synthesize_instruction
from repro.synthesis.result import (
    PartialSynthesisResult,
    SynthesisError,
    SynthesisResult,
    SynthesisTimeout,
)
from repro.synthesis.union import control_union

__all__ = ["synthesize", "splice_control"]


def synthesize(problem, mode="per_instruction", timeout=None,
               max_iterations=256, check_independence=True,
               progress=None, budget=None, retry_policy=None,
               on_timeout="raise", resume_from=None, config=None,
               checkpoint=None):
    """Run control logic synthesis.

    Parameters
    ----------
    mode:
        ``"per_instruction"`` (the Section 3.3.1 optimization, default) or
        ``"monolithic"`` (Equation (1), the Table 1 † configuration).
    config:
        A :class:`repro.smt.backends.SolverConfig` (``None`` means
        ``SolverConfig()``), threaded down the whole stack unchanged.
        ``config.backend`` is the decision procedure for every solver
        check: a registered backend name (``"inprocess"``,
        ``"incremental-subprocess"``, ``"subprocess-dimacs"``,
        ``"portfolio"``, or anything added via
        ``repro.smt.backends.register_backend``), a live
        ``SolverBackend`` instance, or ``None`` for the process default
        (``$REPRO_BACKEND`` or ``"inprocess"``).
        ``"incremental-subprocess"`` runs every check in a sandboxed
        child process; child deaths are classified and retried on a
        respawned child (the run defaults to a standard ``RetryPolicy``).
        ``config.pipeline`` is ``"incremental"`` (the default: the
        sketch is evaluated once per problem and each instruction's
        candidates are checked on a persistent folded verifier),
        ``"fresh"`` (re-evaluate and re-encode per instruction and per
        iteration — the ablation baseline) or ``"unfolded"`` (the fresh
        pipeline whose CEGIS verify skips folding the candidate in — the
        rewriter ablation).
    timeout:
        Overall wall-clock budget in seconds; ``SynthesisTimeout`` is raised
        when exceeded (this is how the paper's Timeout row reproduces).
    check_independence:
        Verify the instruction-independence property before trusting the
        per-instruction strategy.
    progress:
        Optional callback ``progress(instruction_name, solution)``.
    budget:
        A ``repro.runtime.Budget`` (wall-clock/conflict/memory caps) for
        the whole run; combines with ``timeout`` (the tighter wins).  Each
        instruction runs under a child slice, so a mid-loop expiry loses
        only the in-flight instruction, never the completed ones.
    retry_policy:
        A ``repro.runtime.RetryPolicy`` applied inside CEGIS: retryable
        UNKNOWNs (conflict-cap hits, injected faults) restart with an
        escalated conflict budget and a reseeded decision order.
    on_timeout:
        ``"raise"`` (default): budget exhaustion and solver faults raise,
        with the :class:`PartialSynthesisResult` attached as ``.partial``.
        ``"partial"``: they *return* the partial result instead, carrying
        every completed instruction solution, per-instruction stats, the
        machine-readable stop reason, and the resume handle.
    resume_from:
        A :class:`PartialSynthesisResult` (or its ``to_dict()`` form) from
        an earlier run of the same problem/mode: completed instructions
        are reused verbatim and only the pending ones are solved.
    checkpoint:
        Optional callable invoked with a fresh
        :class:`PartialSynthesisResult` (reason ``"checkpoint"``) after
        *every* completed instruction — the periodic durability hook a
        long-lived service needs, instead of a handle that only exists
        once the run has already died.  Each snapshot carries every
        solution completed so far and is a valid ``resume_from`` handle.
        Returning ``False`` (exactly) asks the engine to stop at this
        clean boundary: the run degrades like budget exhaustion with
        reason ``"drained"`` — the graceful-shutdown path.  Monolithic
        mode has no per-instruction boundary and never checkpoints.

    A ``KeyboardInterrupt`` mid-run follows the same degradation contract
    as budget exhaustion: the partial result (reason ``"interrupted"``,
    resumable) is returned or attached.  ``SIGTERM`` delivered to the
    main thread is wired to the same contract as ``SIGINT``.  However the
    run ends — completed, partial or interrupted — every sandboxed solver
    child it spawned is reaped before ``synthesize`` returns.
    """
    started = time.monotonic()
    if on_timeout not in ("raise", "partial"):
        # Validate eagerly: a typo'd mode must not lurk until the first
        # run that actually times out.
        raise ValueError(f"unknown on_timeout mode {on_timeout!r}")
    config = config or SolverConfig()
    backend_name = config.backend_name
    if (not isinstance(config.backend, SolverBackend)
            and backend_name not in available_backends()):
        # Validate eagerly, before any evaluation work: a typo'd backend
        # must not lurk until the first solver construction.
        raise ValueError(
            f"unknown solver backend {backend_name!r}; registered: "
            f"{', '.join(available_backends())}"
        )
    if budget is None:
        budget = Budget(timeout=timeout)
    elif timeout is not None:
        budget = budget.child(timeout=timeout)
    if backend_name == "incremental-subprocess" and retry_policy is None:
        # Sandboxing without retries would turn every transient child
        # death into a lost instruction; default to the standard
        # escalation policy so a crashed check is re-asked on a respawn.
        retry_policy = RetryPolicy()
    with reap_children(), _sigterm_degrades(), \
            _obs.span("synthesis.run", problem=problem.name, mode=mode,
                      backend=backend_name, pipeline=config.pipeline):
        return _synthesize(
            problem, mode, started, max_iterations, check_independence,
            progress, budget, retry_policy, on_timeout, resume_from,
            config, checkpoint,
        )


@contextmanager
def _sigterm_degrades():
    """Wire SIGTERM to the SIGINT degradation contract for this run.

    A service manager's polite stop must not differ from Ctrl-C: both
    degrade to the same resumable ``PartialSynthesisResult``.  Signals
    are only deliverable to the main thread, and handlers are only
    installable *from* it, so runs on other threads (e.g. service job
    runners) leave the process handler untouched — the daemon owns
    SIGTERM there and drains via the checkpoint hook instead.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGTERM)

    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    try:
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _synthesize(problem, mode, started, max_iterations, check_independence,
                progress, budget, retry_policy, on_timeout, resume_from,
                config, checkpoint=None):
    stats = {"mode": mode, "backend": config.backend_name,
             "pipeline": config.pipeline}
    encode_before = _counters.snapshot()
    # The trace's opening metrics snapshot is taken at the same point as
    # ``encode_before`` (and the closing one where ``stats["counters"]``
    # is computed), so a report's first-to-last encode deltas reproduce
    # the run's own accounting exactly.
    _obs.event("metrics.snapshot", **_metrics.snapshot())
    resume_solutions = _resume_solutions(problem, mode, resume_from)
    if resume_solutions:
        stats["resumed_instructions"] = sorted(resume_solutions)
    incremental_ctx = None
    if config.pipeline == "incremental":
        # Build the shared trace (and every instruction's formula) up
        # front, and share one encode-once context across the
        # instruction loop.
        problem.trace_cache().entry(problem)
        incremental_ctx = IncrementalContext(config=config)

    if mode == "per_instruction":
        if check_independence:
            stats["independence_notes"] = check_instruction_independence(
                problem, config=config
            )
        solved = dict(resume_solutions)
        faults = []

        def _checkpoint_ok(solved_now):
            """Emit a checkpoint snapshot; ``False`` means stop here."""
            if checkpoint is None:
                return True
            snap = _partial(problem, mode, solved_now, "checkpoint",
                            started, stats, faults, close_trace=False)
            return checkpoint(snap) is not False

        try:
            for index, instruction in enumerate(problem.spec.instructions):
                if instruction.name in solved:
                    continue
                try:
                    budget.check()
                    solution = synthesize_instruction(
                        problem, instruction, index,
                        budget=budget.child(),
                        retry_policy=retry_policy,
                        max_iterations=max_iterations,
                        config=config,
                        incremental_ctx=incremental_ctx,
                    )
                except BudgetExhausted as fault:
                    # Budget spent (deadline/memory/iterations): stop now
                    # and hand back everything already solved.
                    partial = _partial(problem, mode, solved, fault.reason,
                                       started, stats, faults)
                    return _degrade(partial, fault, on_timeout)
                except SolverUnknown as fault:
                    # A non-budget fault on this one instruction: record
                    # it and keep going — later instructions may still
                    # solve, which maximizes the work a resume can reuse.
                    faults.append((instruction.name, fault.reason))
                    continue
                solved[instruction.name] = solution
                if progress is not None:
                    progress(instruction.name, solution)
                if not _checkpoint_ok(solved):
                    partial = _partial(problem, mode, solved, "drained",
                                       started, stats, faults)
                    return _degrade(
                        partial,
                        BudgetExhausted("synthesis drained at a checkpoint",
                                        reason="drained"),
                        on_timeout)
        except KeyboardInterrupt as fault:
            partial = _partial(problem, mode, solved, "interrupted",
                               started, stats, faults)
            return _degrade(partial, fault, on_timeout)
        if faults:
            reason = faults[0][1]
            partial = _partial(problem, mode, solved, reason, started,
                               stats, faults)
            fault = SolverUnknown(
                f"{len(faults)} instruction(s) came back unknown "
                f"({reason}, ...)", reason=reason,
            )
            return _degrade(partial, fault, on_timeout)
        solutions = [solved[i.name] for i in problem.spec.instructions]
    elif mode == "monolithic":
        try:
            solutions, cegis_stats = synthesize_monolithic_solutions(
                problem, budget=budget, retry_policy=retry_policy,
                max_iterations=max_iterations, config=config,
            )
        except KeyboardInterrupt as fault:
            partial = _partial(problem, mode, {}, "interrupted", started,
                               stats, [])
            return _degrade(partial, fault, on_timeout)
        except (BudgetExhausted, SolverUnknown) as fault:
            partial = _partial(problem, mode, {}, fault.reason, started,
                               stats, [])
            return _degrade(partial, fault, on_timeout)
        stats["cegis"] = cegis_stats.as_dict()
    else:
        raise ValueError(f"unknown synthesis mode {mode!r}")

    hole_exprs, control_stmts = control_union(problem, solutions)
    completed = splice_control(problem.sketch, control_stmts)
    # Whole-run encode accounting (partial results instead carry the
    # per-instruction deltas on their completed solutions).
    stats["counters"] = _counters.delta_since(encode_before)
    _obs.event("metrics.snapshot", **_metrics.snapshot())
    return SynthesisResult(
        problem_name=problem.name,
        mode=mode,
        hole_exprs=hole_exprs,
        control_stmts=control_stmts,
        completed_design=completed,
        per_instruction=solutions,
        elapsed=time.monotonic() - started,
        stats=stats,
    )


def _resume_solutions(problem, mode, resume_from):
    """Validate a resume handle; returns {instruction name: solution}."""
    if resume_from is None:
        return {}
    if isinstance(resume_from, dict):
        resume_from = PartialSynthesisResult.from_dict(resume_from)
    if resume_from.problem_name != problem.name:
        raise SynthesisError(
            f"resume handle is for problem {resume_from.problem_name!r}, "
            f"not {problem.name!r}"
        )
    if resume_from.mode != mode:
        raise SynthesisError(
            f"resume handle was produced in {resume_from.mode!r} mode, "
            f"cannot resume in {mode!r}"
        )
    known = {i.name for i in problem.spec.instructions}
    solutions = {}
    for solution in resume_from.completed:
        if solution.instruction_name not in known:
            raise SynthesisError(
                f"resume handle solves {solution.instruction_name!r}, "
                "which is not in the specification"
            )
        solutions[solution.instruction_name] = solution
    return solutions


def _partial(problem, mode, solved, reason, started, stats, faults,
             close_trace=True):
    # Degraded runs still close their trace with a metrics snapshot, so a
    # truncated trace's encode deltas cover everything up to the stop.
    # Mid-run checkpoint snapshots pass close_trace=False: the run is
    # still going, so they must not emit a closing snapshot.
    if close_trace:
        _obs.event("metrics.snapshot", stop_reason=reason,
                   **_metrics.snapshot())
    order = [i.name for i in problem.spec.instructions]
    return PartialSynthesisResult(
        problem_name=problem.name,
        mode=mode,
        completed=[solved[name] for name in order if name in solved],
        pending=[name for name in order if name not in solved],
        reason=reason,
        elapsed=time.monotonic() - started,
        stats=dict(stats),
        faults=list(faults),
    )


def _degrade(partial, fault, on_timeout):
    """Apply the degradation contract: return the partial or raise with it."""
    if on_timeout == "partial":
        return partial
    if on_timeout != "raise":
        raise ValueError(f"unknown on_timeout mode {on_timeout!r}")
    if isinstance(fault, SynthesisTimeout):
        fault.partial = partial
        raise fault
    if isinstance(fault, BudgetExhausted):
        raise SynthesisTimeout(str(fault), reason=fault.reason,
                               partial=partial) from fault
    fault.partial = partial
    raise fault


def splice_control(sketch, control_stmts):
    """Insert generated control assignments into the sketch.

    The assignments are placed at the earliest program point where all the
    signals they read are defined, which must precede the first use of any
    hole.  Hole declarations are dropped (the assignments define the same
    names as ordinary wires); the result is validated.
    """
    hole_names = {hole.name for hole in sketch.holes}
    defined_targets = {stmt.target for stmt in control_stmts
                       if isinstance(stmt, oy.Assign)}
    needed = set()
    for stmt in control_stmts:
        needed |= stmt_uses(stmt)
    needed -= defined_targets
    needed -= hole_names

    # Signals readable before any statement runs.
    ready = set()
    for decl in sketch.decls:
        if isinstance(decl, (oy.InputDecl, oy.RegisterDecl)):
            ready.add(decl.name)
    register_names = {reg.name for reg in sketch.registers}

    insert_at = 0 if needed <= ready else None
    first_hole_use = None
    for index, stmt in enumerate(sketch.stmts):
        if first_hole_use is None and (stmt_uses(stmt) & hole_names):
            first_hole_use = index
        if isinstance(stmt, oy.Assign) and stmt.target not in register_names:
            ready.add(stmt.target)
        if insert_at is None and needed <= ready:
            insert_at = index + 1
    if insert_at is None:
        missing = needed - ready
        raise SynthesisError(
            f"generated control reads signals never defined in the sketch: "
            f"{sorted(missing)}"
        )
    if first_hole_use is not None and insert_at > first_hole_use:
        raise SynthesisError(
            "generated control logic depends on signals defined after the "
            "first hole use; reorder the sketch so decode precedes control "
            "consumption"
        )
    new_stmts = (
        sketch.stmts[:insert_at]
        + tuple(control_stmts)
        + sketch.stmts[insert_at:]
    )
    kept_decls = tuple(
        decl for decl in sketch.decls if not isinstance(decl, oy.HoleDecl)
    )
    completed = oy.Design(sketch.name, kept_decls, new_stmts)
    check_design(completed)
    return completed
