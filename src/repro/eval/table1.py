"""Table 1: control logic synthesis times over all case studies.

Rows (matching the paper):

===================  ==========================  =====================
AES Accelerator       FSM control                 per-instruction
AES Accelerator †     FSM control                 monolithic
Single-Cycle Core     RV32I / +Zbkb / +Zbkc       per-instruction
Single-Cycle Core †   RV32I                       monolithic (times out)
Two-Stage Core        RV32I / +Zbkb / +Zbkc       per-instruction
Crypto Core           CMOV ISA                    per-instruction
===================  ==========================  =====================

``quick=True`` (the default for the pytest benchmarks) restricts the RISC-V
rows to a representative instruction subset so a full Table 1 pass stays
inside a CI-scale budget; ``quick=False`` reproduces the full paper rows.
The monolithic RV32I row is bounded by ``monolithic_timeout`` and is
*expected* to time out, reproducing the paper's Timeout entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs import trace as _obs
from repro.oyster.printer import design_loc
from repro.smt import counters as _counters
from repro.smt.backends import SolverConfig
from repro.synthesis import SynthesisTimeout, synthesize
from repro.synthesis.result import PartialSynthesisResult, SynthesisError

__all__ = ["run_table1", "TABLE1_CONFIGS", "Table1Row", "build_config"]

_QUICK_SUBSET = [
    "lui", "auipc", "jal", "jalr", "beq", "bltu", "lw", "lb", "sw", "sh",
    "addi", "srai", "add", "sltu", "and",
]
_QUICK_ZBKB = _QUICK_SUBSET + ["rol", "rori", "andn", "pack", "rev8", "zip"]
_QUICK_ZBKC = _QUICK_ZBKB + ["clmul", "clmulh"]

_QUICK_CRYPTO = ["lui", "jal", "jalr", "lw", "sw", "addi", "slli", "sltu",
                 "add", "xor", "cmov"]

#: row id -> (description fields, problem factory kwargs)
TABLE1_CONFIGS = (
    ("aes", "AES Accelerator", "-", "per_instruction"),
    ("aes_mono", "AES Accelerator †", "-", "monolithic"),
    ("sc_rv32i", "Single-Cycle Core", "RV32I", "per_instruction"),
    ("sc_zbkb", "Single-Cycle Core", "RV32I + Zbkb", "per_instruction"),
    ("sc_zbkc", "Single-Cycle Core", "RV32I + Zbkc", "per_instruction"),
    ("sc_rv32i_mono", "Single-Cycle Core †", "RV32I", "monolithic"),
    ("ts_rv32i", "Two-Stage Core", "RV32I", "per_instruction"),
    ("ts_zbkb", "Two-Stage Core", "RV32I + Zbkb", "per_instruction"),
    ("ts_zbkc", "Two-Stage Core", "RV32I + Zbkc", "per_instruction"),
    ("crypto", "Crypto Core", "CMOV ISA", "per_instruction"),
)


@dataclass
class Table1Row:
    row_id: str
    design: str
    variant: str
    mode: str
    sketch_size: int
    instructions: int
    time_seconds: float
    status: str  # "ok" or "timeout"
    reason: str = ""             # machine-readable stop reason on timeout
    completed_instructions: int = -1  # solved before the budget hit (-1: all)
    resumed_instructions: int = 0  # reused verbatim from a resume handle
    # Which decision procedure answered the row's solver queries — makes
    # every published number attributable to a backend.
    backend: str = ""
    # Encode accounting (deltas of repro.smt.counters across the run).
    pipeline: str = ""
    iterations: int = 0
    solver_instances: int = 0
    aig_nodes: int = 0
    tseitin_clauses: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0


def build_config(row_id, quick=True):
    """Build the synthesis problem for one Table 1 row."""
    from repro.designs import aes
    from repro.designs import crypto_core
    from repro.designs import riscv

    def riscv_problem(variant, microarch):
        subset = None
        if quick:
            subset = {
                "RV32I": _QUICK_SUBSET,
                "RV32I+Zbkb": _QUICK_ZBKB,
                "RV32I+Zbkc": _QUICK_ZBKC,
            }[variant]
        return riscv.build_problem(variant, microarch, instructions=subset)

    factories = {
        "aes": lambda: aes.build_problem(),
        "aes_mono": lambda: aes.build_problem(),
        "sc_rv32i": lambda: riscv_problem("RV32I", "single_cycle"),
        "sc_zbkb": lambda: riscv_problem("RV32I+Zbkb", "single_cycle"),
        "sc_zbkc": lambda: riscv_problem("RV32I+Zbkc", "single_cycle"),
        "sc_rv32i_mono": lambda: riscv_problem("RV32I", "single_cycle"),
        "ts_rv32i": lambda: riscv_problem("RV32I", "two_stage"),
        "ts_zbkb": lambda: riscv_problem("RV32I+Zbkb", "two_stage"),
        "ts_zbkc": lambda: riscv_problem("RV32I+Zbkc", "two_stage"),
        "crypto": lambda: crypto_core.build_problem(
            instructions=_QUICK_CRYPTO if quick else None
        ),
    }
    return factories[row_id]()


def _applicable_resume(resume_from, problem, mode):
    """The resume handle, if it matches this row's problem and mode."""
    if resume_from is None:
        return None
    if isinstance(resume_from, dict):
        resume_from = PartialSynthesisResult.from_dict(resume_from)
    if resume_from.problem_name != problem.name:
        return None
    if resume_from.mode != mode:
        return None
    return resume_from


def run_row(row_id, quick=True, timeout=1800, monolithic_timeout=120,
            resume_from=None, config=None):
    """Run one Table 1 row; returns a ``Table1Row``.

    ``resume_from`` is a :class:`PartialSynthesisResult` (or its
    ``to_dict`` form) from an interrupted earlier run; when it matches
    this row's problem and mode, the already-solved instructions are
    reused verbatim and counted in ``resumed_instructions``.

    ``config`` is the :class:`repro.smt.backends.SolverConfig` the row
    synthesizes under (``None`` means ``SolverConfig()``).  The row
    records the backend and pipeline that ran plus the encode-counter
    deltas, so BENCH_table1.json can track the perf trajectory in
    deterministic units — and every number is attributable to the
    decision procedure that produced it.
    """
    row_config = next(c for c in TABLE1_CONFIGS if c[0] == row_id)
    _, design_name, variant, mode = row_config
    problem = build_config(row_id, quick=quick)
    resume = _applicable_resume(resume_from, problem, mode)
    budget = monolithic_timeout if mode == "monolithic" else timeout
    config = config or SolverConfig()
    started = time.monotonic()
    status = "ok"
    reason = ""
    completed = -1
    iterations = 0
    encode_before = _counters.snapshot()
    with _obs.span("table1.row", row=row_id, mode=mode, quick=quick,
                   backend=config.backend_name):
        try:
            result = synthesize(problem, mode=mode, timeout=budget,
                                resume_from=resume, config=config)
            elapsed = result.elapsed
            if "cegis" in result.stats:
                iterations = result.stats["cegis"]["iterations"]
            else:
                iterations = sum(
                    s.iterations for s in result.per_instruction
                )
        except SynthesisTimeout as exc:
            # An honest Timeout row: record *why* the budget tripped and
            # how much per-instruction work finished before it did.
            elapsed = time.monotonic() - started
            status = "timeout"
            reason = exc.reason
            if exc.partial is not None:
                completed = exc.partial.completed_count
                iterations = sum(
                    s.iterations for s in exc.partial.completed
                )
    encode = _counters.delta_since(encode_before)
    return Table1Row(
        row_id=row_id,
        design=design_name,
        variant=variant,
        mode=mode,
        sketch_size=design_loc(problem.sketch),
        instructions=len(problem.spec.instructions),
        time_seconds=elapsed,
        status=status,
        reason=reason,
        completed_instructions=completed,
        resumed_instructions=resume.completed_count if resume else 0,
        backend=config.backend_name,
        pipeline=config.pipeline,
        iterations=iterations,
        solver_instances=encode["solver_instances"],
        aig_nodes=encode["aig_nodes"],
        tseitin_clauses=encode["tseitin_clauses"],
        trace_cache_hits=encode["trace_cache_hits"],
        trace_cache_misses=encode["trace_cache_misses"],
    )


def run_table1(row_ids=None, quick=True, timeout=1800,
               monolithic_timeout=120, progress=None, resume_from=None,
               config=None):
    """Run Table 1 (all rows by default); returns the row list.

    ``resume_from`` is matched against each row (by problem name and
    mode), so an interrupted full run's handle restarts only the work
    that was actually lost.  ``config`` (a
    :class:`repro.smt.backends.SolverConfig`) applies to every row.
    """
    chosen = row_ids or [row[0] for row in TABLE1_CONFIGS]
    rows = []
    for row_id in chosen:
        row = run_row(row_id, quick=quick, timeout=timeout,
                      monolithic_timeout=monolithic_timeout,
                      resume_from=resume_from, config=config)
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows
