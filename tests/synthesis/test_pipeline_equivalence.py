"""Differential tests: the incremental pipeline vs the fresh pipeline.

The incremental pipeline (shared datapath trace, assumption-based CEGIS
verify, encode-once solving) must be a pure performance change: on the
same problem it has to synthesize the *same* control logic as the fresh
pipeline, and the merged result must still pass the independent verifier.
Candidate canonicalization (``_zero_polish``) is what makes equality
well-defined — don't-care hole bits land on the same canonical value in
both pipelines instead of whatever each solver search happened to find.

A subset of RV32I single-cycle instructions keeps this inside tier-1
time; the full-ISA comparison lives in the nightly bench lane
(``benchmarks/bench_table1.py``).
"""

import pytest

from repro.designs import riscv
from repro.smt.backends import SolverConfig
from repro.synthesis import synthesize, verify_design

# R-type, I-type and U-type cover the three hole-constraint shapes
# (forced, immediate-selected, and heavily don't-care).
SUBSET = ["add", "addi", "lui"]


@pytest.fixture(scope="module")
def both_pipelines():
    results = {}
    for pipeline in ("fresh", "incremental"):
        problem = riscv.build_problem(
            "RV32I", "single_cycle", instructions=SUBSET
        )
        results[pipeline] = (
            problem, synthesize(problem, timeout=300,
                                config=SolverConfig(pipeline=pipeline))
        )
    return results


def test_hole_constants_identical(both_pipelines):
    _, fresh = both_pipelines["fresh"]
    _, incremental = both_pipelines["incremental"]
    for name in SUBSET:
        assert fresh.hole_values_for(name) == \
            incremental.hole_values_for(name), name


def test_union_control_logic_identical(both_pipelines):
    _, fresh = both_pipelines["fresh"]
    _, incremental = both_pipelines["incremental"]
    assert fresh.hole_exprs == incremental.hole_exprs
    assert fresh.control_stmts == incremental.control_stmts


def test_incremental_result_verifies(both_pipelines):
    problem, incremental = both_pipelines["incremental"]
    verdict = verify_design(
        incremental.completed_design, problem.spec, problem.alpha,
        instructions=SUBSET,
    )
    assert verdict.ok, verdict.summary()


def test_incremental_reports_cache_and_encode_counters(both_pipelines):
    _, fresh = both_pipelines["fresh"]
    _, incremental = both_pipelines["incremental"]
    assert fresh.stats["pipeline"] == "fresh"
    assert incremental.stats["pipeline"] == "incremental"
    # One trace build, then every later instruction hits the cache.
    assert incremental.stats["counters"]["trace_cache_misses"] == 1
    assert incremental.stats["counters"]["trace_cache_hits"] >= \
        len(SUBSET) - 1
    assert fresh.stats["counters"]["trace_cache_hits"] == 0
