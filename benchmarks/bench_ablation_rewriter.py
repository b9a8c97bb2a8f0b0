"""Ablation: partial evaluation in the CEGIS verify step.

The reproduction's solver pipeline stays tractable because the verify query
substitutes candidate hole constants into the trace, letting the rewriting
constructors fold the unused datapath away before bit-blasting (the role
Rosette's symbolic evaluation plays in the paper).  This ablation disables
the substitution — hole values become equality constraints over the full
symbolic datapath — and measures the slowdown on the ALU machine and a
RISC-V subset.  The two arms differ in that one thing only: the fold arm
runs the ``"fresh"`` pipeline and the nofold arm the ``"unfolded"`` one,
which is the fresh pipeline with the unreduced verify query.
"""

import pytest

from benchmarks.conftest import full_eval
from repro.designs import alu_machine, riscv
from repro.smt import counters as _counters
from repro.smt.backends import SolverConfig
from repro.synthesis import SynthesisTimeout, synthesize

#: case-id suffix -> the pipeline that arm runs
ARMS = {"fold": "fresh", "nofold": "unfolded"}


def _run_case(benchmark, bench_record, case, problem, pipeline, budget):
    def run():
        before = _counters.snapshot()
        try:
            result = synthesize(problem, timeout=budget,
                                config=SolverConfig(pipeline=pipeline))
            outcome = ("ok", result.elapsed)
        except SynthesisTimeout:
            outcome = ("timeout", budget)
        return outcome + (_counters.delta_since(before),)

    status, elapsed, encode = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    benchmark.extra_info.update(status=status, seconds=round(elapsed, 2))
    bench_record(
        case,
        status=status,
        pipeline=pipeline,
        wall_time_seconds=round(elapsed, 3),
        solver_instances=encode["solver_instances"],
        aig_nodes=encode["aig_nodes"],
        tseitin_clauses=encode["tseitin_clauses"],
        trace_cache_hits=encode["trace_cache_hits"],
        trace_cache_misses=encode["trace_cache_misses"],
    )


@pytest.mark.parametrize("arm", list(ARMS))
def test_alu_machine_partial_eval(benchmark, bench_record, arm):
    problem = alu_machine.build_problem()
    budget = 600 if full_eval() else 60
    _run_case(benchmark, bench_record, f"ablation_alu[{arm}]", problem,
              ARMS[arm], budget)


@pytest.mark.parametrize("arm", list(ARMS))
def test_riscv_subset_partial_eval(benchmark, bench_record, arm):
    problem = riscv.build_problem(
        "RV32I", "single_cycle",
        instructions=["add", "addi", "lui", "and"],
    )
    budget = 900 if full_eval() else 60
    _run_case(benchmark, bench_record, f"ablation_riscv[{arm}]", problem,
              ARMS[arm], budget)
