#!/usr/bin/env python
"""Attribute solver wall time to CDCL phases for one synthesis workload.

Usage::

    python scripts/profile_solver.py
    python scripts/profile_solver.py --pipeline fresh   # or unfolded
    python scripts/profile_solver.py --isa RV32I --variant single_cycle \\
        --instructions add,addi,lui,and --trace /tmp/profile.jsonl

Answers "where does the SAT time actually go?" at two granularities:

* **Per phase** — every CDCL core the run creates gets
  ``SatSolver.enable_profiling()`` turned on, so propagate / analyze /
  reduce / simplify wall seconds accumulate per solver and are summed
  here across the whole run.  The cores also record the wall of their
  ``solve`` calls; what the four phases leave of it (decisions, the
  decision heap, backtracking, assumption placement) is its own row, so
  the rows add up to the cores' solve wall.  This is the attribution
  that drove the incremental-verify redesign: it is how "the descent
  floor dominates" and "hard proofs burn analyze time" become
  measurements instead of guesses.
* **Per query kind** — the run executes under a tracer, and the
  ``solver.check`` provenance events (PR-4 observability) are folded by
  their owning span kind: how many checks, their wall, conflicts,
  propagations and trail-reuse per call site (verify vs guess vs
  polish).  The same per-check internals are charged to
  ``repro.smt.counters``, and the report prints both so the exact
  reconciliation is visible.

The profiled run is slower than a plain one (two clock reads per phase
call); numbers are for attribution, not for benchmarking absolute wall.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
)

from repro.obs import Tracer, clear, install  # noqa: E402
from repro.obs.report import (  # noqa: E402
    solver_queries,
    top_queries_lines,
    totals,
)
from repro.obs.schema import load_events  # noqa: E402
from repro.smt import counters as _counters  # noqa: E402
from repro.smt.backends import PIPELINES  # noqa: E402
from repro.smt.sat import solver as _sat_mod  # noqa: E402

_PHASES = ("propagate", "analyze", "reduce", "simplify")


class _ProfileAllSolvers:
    """Context manager: every ``SatSolver`` built inside gets profiling.

    Wraps ``SatSolver.__init__`` (restored on exit) and keeps each live
    profile dict, so phase walls can be summed across the dozens of
    cores a synthesis run creates — including cores inside backends the
    script never sees directly.
    """

    def __init__(self):
        self.profiles = []
        self._original = None

    def __enter__(self):
        original = _sat_mod.SatSolver.__init__
        profiles = self.profiles

        def patched(solver, *args, **kwargs):
            original(solver, *args, **kwargs)
            profiles.append(solver.enable_profiling())

        self._original = original
        _sat_mod.SatSolver.__init__ = patched
        return self

    def __exit__(self, *exc):
        _sat_mod.SatSolver.__init__ = self._original
        return False

    def summed(self):
        agg = {phase: 0.0 for phase in _PHASES}
        agg["solve"] = 0.0
        agg["solves"] = 0
        for profile in self.profiles:
            for key in agg:
                agg[key] += profile[key]
        return agg


def _run_workload(args):
    from repro.designs import riscv
    from repro.smt.backends import SolverConfig
    from repro.synthesis import synthesize

    problem = riscv.build_problem(
        args.isa, args.variant,
        instructions=args.instructions.split(",") if args.instructions
        else None,
    )
    config = SolverConfig(backend=args.backend, pipeline=args.pipeline)
    return synthesize(problem, timeout=args.timeout, config=config)


def _phase_lines(profiled, wall):
    agg = profiled.summed()
    solve_wall = agg["solve"]
    rows = [(phase, agg[phase]) for phase in _PHASES]
    # Decisions, heap pops, backtracking and assumption placement run
    # inside solve() but outside the four timed phases.
    rows.append(("other", solve_wall - sum(agg[phase] for phase in _PHASES)))
    lines = [
        f"phase attribution ({len(profiled.profiles)} solver cores, "
        f"{agg['solves']} solves):",
        "  {:<12} {:>9}  {:>6}".format("phase", "wall_s", "share"),
    ]
    for phase, seconds in rows:
        share = seconds / solve_wall if solve_wall else 0.0
        lines.append(f"  {phase:<12} {seconds:>9.3f}  {share:>5.1%}")
    lines.append(f"  {'(solve)':<12} {solve_wall:>9.3f}  "
                 f"{solve_wall / wall if wall else 0.0:>5.1%} of "
                 f"{wall:.3f}s run wall")
    return lines


def _kind_lines(events):
    by_kind = {}
    for query in solver_queries(events):
        kind = query.get("kind") or "(none)"
        row = by_kind.setdefault(
            kind, {"n": 0, "wall": 0.0, "conflicts": 0,
                   "propagations": 0, "reuse": 0})
        row["n"] += 1
        row["wall"] += query.get("wall") or 0.0
        row["conflicts"] += query.get("conflicts") or 0
        row["propagations"] += query.get("propagations") or 0
        row["reuse"] += query.get("trail_reuse_hits") or 0
    lines = [
        "per query kind (solver.check events by owning span):",
        "  {:<22} {:>6} {:>9} {:>10} {:>12} {:>6}".format(
            "kind", "n", "wall_s", "conflicts", "props", "reuse"),
    ]
    for kind, row in sorted(by_kind.items(), key=lambda kv: -kv[1]["wall"]):
        lines.append(
            "  {:<22} {:>6} {:>9.3f} {:>10} {:>12} {:>6}".format(
                kind, row["n"], row["wall"], row["conflicts"],
                row["propagations"], row["reuse"])
        )
    if not by_kind:
        lines.append("  (no solver queries in trace)")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--isa", default="RV32I")
    parser.add_argument("--variant", default="single_cycle")
    parser.add_argument("--instructions", default="add,addi,lui,and",
                        help="comma list; empty string = the full ISA")
    parser.add_argument("--pipeline", default="incremental",
                        choices=PIPELINES)
    parser.add_argument("--backend", default=None,
                        help="solver backend name (default: $REPRO_BACKEND)")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--trace", default=None,
                        help="keep the obs trace at this path")
    parser.add_argument("--top", type=int, default=8,
                        help="expensive queries to list")
    args = parser.parse_args(argv)

    trace_path = args.trace or os.path.join(
        tempfile.mkdtemp(prefix="repro-profile-"), "trace.jsonl")
    tracer = Tracer(trace_path)
    install(tracer)
    before = _counters.snapshot()
    started = time.monotonic()
    try:
        with _ProfileAllSolvers() as profiled:
            _run_workload(args)
    finally:
        wall = time.monotonic() - started
        clear()
        tracer.close()
    delta = _counters.delta_since(before)

    events, _summary = load_events(trace_path)
    agg = totals(events)
    print(f"workload: {args.isa}/{args.variant} "
          f"[{args.instructions or 'all'}] pipeline={args.pipeline} "
          f"wall={wall:.3f}s")
    print()
    for line in _phase_lines(profiled, wall):
        print(line)
    print()
    for line in _kind_lines(events):
        print(line)
    print()
    print(f"top {args.top} solver queries by wall time:")
    for line in top_queries_lines(events, top=args.top):
        print(line)
    print()
    print("solver counters (repro.smt.counters deltas):")
    for key in sorted(delta):
        if key.startswith("sat_") and delta[key]:
            traced = agg["solver_internals"].get(key[len("sat_"):])
            note = ""
            if traced is not None:
                note = ("  == trace" if traced == delta[key]
                        else f"  != trace ({traced})")
            print(f"  {key:<28} {delta[key]:>12}{note}")
    print()
    print(f"{agg['solver_queries']} solver queries "
          f"({agg['orphan_queries']} unattributed), trace: {trace_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
