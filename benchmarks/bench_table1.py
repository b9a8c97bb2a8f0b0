"""Table 1: control logic synthesis time per design variant.

Each benchmark regenerates one row of the paper's Table 1: the wall-clock
time of control logic synthesis (per-instruction with the control union, or
monolithic for the † rows).  The monolithic RV32I row reproduces the paper's
Timeout entry: it is bounded by a budget and reports whether it hit it.

Every case also lands in ``BENCH_table1.json`` (via the ``bench_record``
fixture) with its deterministic encode counters, and the
``*_pipeline_comparison`` benches run the RV32I rows under *both*
pipelines to measure the incremental pipeline's encode savings — the
single-cycle row asserts the >= 2x reduction in AIG nodes + Tseitin
clauses that motivates the pipeline.

Run ``REPRO_FULL_EVAL=1 pytest benchmarks/bench_table1.py --benchmark-only``
for the full-ISA rows (the numbers recorded in EXPERIMENTS.md).
"""

import pytest

from benchmarks.conftest import full_eval
from repro.designs import riscv
from repro.eval.table1 import TABLE1_CONFIGS, run_row
from repro.smt import counters as _counters
from repro.smt.backends import SolverConfig
from repro.synthesis import synthesize

_PER_INSTRUCTION_ROWS = [c[0] for c in TABLE1_CONFIGS
                         if c[3] == "per_instruction"]


def _record_row(record, case, row):
    record(
        case,
        design=row.design,
        variant=row.variant,
        mode=row.mode,
        backend=row.backend,
        pipeline=row.pipeline,
        status=row.status,
        instructions=row.instructions,
        sketch_size=row.sketch_size,
        wall_time_seconds=round(row.time_seconds, 3),
        iterations=row.iterations,
        solver_instances=row.solver_instances,
        aig_nodes=row.aig_nodes,
        tseitin_clauses=row.tseitin_clauses,
        trace_cache_hits=row.trace_cache_hits,
        trace_cache_misses=row.trace_cache_misses,
    )


@pytest.mark.parametrize("row_id", _PER_INSTRUCTION_ROWS)
def test_table1_row(benchmark, bench_record, row_id):
    quick = not full_eval()
    row = benchmark.pedantic(
        lambda: run_row(row_id, quick=quick, timeout=3600),
        rounds=1, iterations=1,
    )
    assert row.status == "ok", row
    benchmark.extra_info.update(
        design=row.design, variant=row.variant,
        sketch_size=row.sketch_size, instructions=row.instructions,
        synthesis_seconds=round(row.time_seconds, 2),
        pipeline=row.pipeline,
    )
    _record_row(bench_record, row_id, row)


@pytest.mark.parametrize("row_id", ["sc_rv32i", "ts_rv32i"])
def test_table1_pipeline_comparison(benchmark, bench_record, row_id):
    """Fresh vs incremental on the RV32I cores, in encode units.

    Wall time is recorded but the assertions are on counters: the solver
    stack is deterministic, so AIG nodes and Tseitin clauses reproduce
    exactly across hosts where seconds do not.
    """
    quick = not full_eval()

    def both():
        rows = {}
        for pipeline in ("fresh", "incremental"):
            rows[pipeline] = run_row(
                row_id, quick=quick, timeout=3600,
                config=SolverConfig(pipeline=pipeline))
        return rows

    rows = benchmark.pedantic(both, rounds=1, iterations=1)
    fresh, incr = rows["fresh"], rows["incremental"]
    assert fresh.status == "ok", fresh
    assert incr.status == "ok", incr

    fresh_encode = fresh.aig_nodes + fresh.tseitin_clauses
    incr_encode = incr.aig_nodes + incr.tseitin_clauses
    ratio = fresh_encode / incr_encode
    benchmark.extra_info.update(
        fresh_seconds=round(fresh.time_seconds, 2),
        incremental_seconds=round(incr.time_seconds, 2),
        encode_ratio=round(ratio, 2),
    )
    for pipeline, row in rows.items():
        _record_row(bench_record, f"{row_id}[{pipeline}]", row)
    bench_record(f"{row_id}[encode_ratio]", encode_ratio=round(ratio, 3))

    # Incremental must always be the cheaper encoder; the single-cycle
    # core is the issue's acceptance case and must clear 2x.
    assert incr.aig_nodes < fresh.aig_nodes
    assert incr.tseitin_clauses < fresh.tseitin_clauses
    if row_id == "sc_rv32i":
        assert ratio >= 2.0, f"encode ratio {ratio:.2f} below 2x"


def test_pipeline_wall_ratio_riscv_subset(benchmark, bench_record):
    """Incremental solving must actually pay: wall-time gate.

    Same workload as ``ablation_riscv`` (the RV32I subset), and both arms
    fold the candidate into the verify query — the only difference is
    the pipeline.  The incremental arm must be no slower than fresh, and
    both arms must synthesize bit-identical control logic.  Its
    trail-reuse counter must be nonzero, which shows the CDCL core's
    assumption hot path is engaged — but only by the instruction-
    independence check's pair assumptions: CEGIS verify and polish
    assume a fresh selector per staged candidate, so they reuse no
    trail, and the subset's one hit comes from the independence check.
    The ratio lands in BENCH_table1.json as ``riscv_subset[wall_ratio]``,
    where ``scripts/bench_report.py`` gates on it.
    """
    budget = 900 if full_eval() else 120

    def both():
        out = {}
        for pipeline in ("fresh", "incremental"):
            problem = riscv.build_problem(
                "RV32I", "single_cycle",
                instructions=["add", "addi", "lui", "and"],
            )
            before = _counters.snapshot()
            result = synthesize(problem, timeout=budget,
                                config=SolverConfig(pipeline=pipeline))
            out[pipeline] = (result, _counters.delta_since(before))
        return out

    results = benchmark.pedantic(both, rounds=1, iterations=1)
    (fresh, _), (incr, incr_counters) = (results["fresh"],
                                         results["incremental"])
    ratio = incr.elapsed / fresh.elapsed
    benchmark.extra_info.update(
        fresh_seconds=round(fresh.elapsed, 2),
        incremental_seconds=round(incr.elapsed, 2),
        wall_ratio=round(ratio, 3),
    )
    for pipeline, (result, _) in results.items():
        bench_record(
            f"riscv_subset[{pipeline}]",
            pipeline=pipeline,
            status="ok",
            wall_time_seconds=round(result.elapsed, 3),
        )
    bench_record(
        "riscv_subset[wall_ratio]",
        wall_ratio=round(ratio, 3),
        trail_reuse_hits=incr_counters["sat_trail_reuse_hits"],
        trail_reuse_levels_saved=incr_counters[
            "sat_trail_reuse_levels_saved"],
    )

    for solution in fresh.per_instruction:
        assert incr.hole_values_for(solution.instruction_name) \
            == solution.hole_values, solution.instruction_name
    assert incr_counters["sat_trail_reuse_hits"] > 0
    assert ratio <= 1.0, (
        f"incremental pipeline slower than fresh: ratio {ratio:.3f}"
    )


def test_table1_aes_monolithic(benchmark, bench_record):
    """The AES † row: monolithic synthesis completes but is slower."""
    row = benchmark.pedantic(
        lambda: run_row("aes_mono", monolithic_timeout=1200),
        rounds=1, iterations=1,
    )
    assert row.status == "ok", row
    benchmark.extra_info.update(synthesis_seconds=round(row.time_seconds, 2))
    _record_row(bench_record, "aes_mono", row)


def test_table1_rv32i_monolithic_times_out(benchmark, bench_record):
    """The RV32I † row: Equation (1) over the whole ISA exceeds any budget.

    The paper ran 3 hours before declaring Timeout; we bound the budget at
    120s (quick) / 900s (full) — the row's claim is only that monolithic
    synthesis is intractable where per-instruction synthesis takes seconds.
    """
    budget = 900 if full_eval() else 120
    quick = not full_eval()
    row = benchmark.pedantic(
        lambda: run_row("sc_rv32i_mono", quick=quick,
                        monolithic_timeout=budget),
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(status=row.status, budget=budget)
    _record_row(bench_record, "sc_rv32i_mono", row)
    if full_eval():
        assert row.status == "timeout", row
