"""Deterministic perf-smoke: encode-counter invariants, fresh vs incremental.

This is the CI guard for the incremental pipeline's reason to exist.  It
runs one small case (the ALU machine — four instructions, seconds of
work) in both pipeline modes and asserts the *counter* invariants:
incremental mode must perform strictly fewer solver instantiations and
strictly fewer AIG node creations than fresh mode.  Counters, not wall
time — the solver is deterministic, so this lane cannot flake on a busy
CI host the way a timing assertion would.
"""

from repro.designs import alu_machine
from repro.smt import counters as _counters
from repro.smt.backends import SolverConfig
from repro.synthesis import synthesize


def _run(pipeline):
    problem = alu_machine.build_problem()
    before = _counters.snapshot()
    result = synthesize(problem, timeout=300,
                        config=SolverConfig(pipeline=pipeline))
    return result, _counters.delta_since(before)


def test_incremental_strictly_cheaper_to_encode():
    fresh_result, fresh = _run("fresh")
    incr_result, incr = _run("incremental")

    assert incr["solver_instances"] < fresh["solver_instances"]
    assert incr["aig_nodes"] < fresh["aig_nodes"]
    assert incr["tseitin_clauses"] < fresh["tseitin_clauses"]

    # The speedup must not change the answer.
    for solution in fresh_result.per_instruction:
        assert incr_result.hole_values_for(solution.instruction_name) \
            == solution.hole_values

    # Engine stats carry the same accounting for bench/report consumers.
    assert fresh_result.stats["counters"]["solver_instances"] \
        == fresh["solver_instances"]
    assert incr_result.stats["counters"]["trace_cache_misses"] == 1


def test_per_instruction_counter_attribution():
    """Serial runs attribute encode work exactly, per instruction."""
    result, delta = _run("incremental")
    summed = sum(s.aig_nodes for s in result.per_instruction)
    # The shared trace + formula construction happens before the first
    # instruction's CEGIS run, so per-instruction deltas cannot exceed
    # the whole-run delta.
    assert 0 < summed <= delta["aig_nodes"]
    for solution in result.per_instruction:
        assert solution.solver_instances >= 1
        assert solution.trace_cache_hits >= 1


def test_default_search_is_pinned():
    """The default configuration's exact counts on the ALU machine.

    Recorded before the CDCL hot path was rewritten for speed; that
    rewrite, and any later one, must keep every decision of the search,
    so these counts cannot move.  A change that alters the search on
    purpose re-records them and reports the new iteration counts.

    Re-recorded when polish stopped scanning each hole under
    assumptions and began staging folded trial candidates on the
    verifier: the probes build different clauses and learn different
    ones (clauses 15504 -> 14313, propagations 31151 -> 28503, learned
    191 -> 173), and trail reuse now comes only from the independence
    check's pair assumptions (4 -> 1).  Iterations, solvers, restarts
    and the holes did not move.
    """
    problem = alu_machine.build_problem()
    result = synthesize(problem, timeout=300)
    counters = result.stats["counters"]
    assert sum(s.iterations for s in result.per_instruction) == 9
    assert counters["solver_instances"] == 9
    assert counters["tseitin_clauses"] == 14313
    assert counters["sat_propagations"] == 28503
    assert counters["sat_learned"] == 173
    assert counters["sat_restarts"] == 1
    assert counters["sat_trail_reuse_hits"] == 1
    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert result.hole_values_for(name) == expected, name


def test_unfolded_pipeline_is_pinned():
    """The rewriter ablation's exact counts on the ALU machine.

    ``"unfolded"`` is the fresh pipeline whose CEGIS verify asserts the
    candidate beside the unreduced formula.  These are the counts the
    ablation gave before it was a pipeline, when it was a separate
    partial-evaluation switch on the fresh pipeline.
    """
    result, delta = _run("unfolded")
    assert result.stats["pipeline"] == "unfolded"
    assert sum(s.iterations for s in result.per_instruction) == 9
    assert delta["solver_instances"] == 24
    assert delta["aig_nodes"] == 22914
    assert delta["tseitin_clauses"] == 64017
    for name, expected in alu_machine.REFERENCE_HOLE_VALUES.items():
        assert result.hole_values_for(name) == expected, name
