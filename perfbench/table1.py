"""Table 1 rows: repeated ``synthesize()`` calls on one row's problem.

Each repetition builds the row's problem afresh with
``repro.eval.table1.build_config`` and synthesizes it with the default
``SolverConfig`` (in-process CDCL, incremental pipeline).  The row is cut
to an instruction subset whose synthesis takes about four seconds, so that
one run holds many repetitions and reports their median:

* ``ts_rv32i``: the two-stage RV32I core on ``auipc``, ``beq`` and
  ``add`` (one format each of U, B and R, which the co-simulation oracle
  can drive).
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext

import oracles

ROWS = {
    "ts_rv32i": ("ts_rv32i", ("auipc", "beq", "add")),
}


def build(workload):
    """The workload's synthesis problem, built as Table 1 builds its row."""
    from repro.eval.table1 import build_config

    row, names = ROWS[workload]
    problem = build_config(row)
    problem.spec.instructions = [
        instr for instr in problem.spec.instructions if instr.name in names]
    return problem


def fingerprint(result):
    """Exact counts of one synthesis, from the result's own counters."""
    counters = result.stats["counters"]
    return {
        "cegis_iterations": sum(s.iterations for s in result.per_instruction),
        "solver_instances": counters["solver_instances"],
        "aig_nodes": counters["aig_nodes"],
        "tseitin_clauses": counters["tseitin_clauses"],
        "sat_propagations": counters["sat_propagations"],
        "sat_learned": counters["sat_learned"],
    }


def check(workload, design, seed):
    """The workload's oracle on one completed design: a list of problems."""
    return oracles.riscv_cosim(design, list(ROWS[workload][1]),
                               random.Random(seed))


def run(workload, seed, seconds, context=lambda index: nullcontext(),
        minimum=1):
    """Synthesize repeatedly for about ``seconds``, at least ``minimum``
    times; never start a further repetition that the previous one says
    would overrun.

    Repetition ``index`` runs inside ``context(index)`` (the traced run
    uses it to alternate traced and untraced repetitions).  Returns the
    repetitions as dicts and the number that failed.
    """
    import repro.synthesis as api  # looked up per call: a traced run wraps it
    from repro.oyster import print_design

    reps = []
    spent = 0.0
    while len(reps) < minimum or spent + reps[-1]["synth_s"] <= seconds:
        problem = build(workload)
        with context(len(reps)):
            start = time.perf_counter()
            try:
                result = api.synthesize(problem)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        spent += elapsed
        rep = {"synth_s": elapsed, "error": error}
        if result is not None:
            if getattr(result, "is_partial", False):
                rep["error"] = f"partial result: {result.reason}"
            else:
                rep["design"] = result.completed_design
                rep["text"] = print_design(result.completed_design)
                rep["fingerprint"] = fingerprint(result)
        reps.append(rep)
    return reps, judge(workload, seed, reps)


def judge(workload, seed, reps):
    """Run the oracle, outside the timed region, on each distinct design
    once; mark the repetitions it rejects and return how many failed."""
    verdicts = {}
    for rep in reps:
        if rep["error"] is None and rep["text"] not in verdicts:
            verdicts[rep["text"]] = check(workload, rep["design"], seed)
        if rep["error"] is None and verdicts[rep["text"]]:
            rep["error"] = "oracle: " + "; ".join(verdicts[rep["text"]][:3])
    return sum(1 for rep in reps if rep["error"] is not None)
