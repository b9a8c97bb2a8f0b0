#!/usr/bin/env python3
"""Run the paper-scale evaluation and record results as JSON + text.

Writes ``results/full_eval.json`` and prints the tables; EXPERIMENTS.md is
written from this output.  Expected runtime: tens of minutes.

``--quick`` runs the quick rows instead (the instruction subsets of
Tables 1 and 2, constant-time lengths 4/12/21/32) and writes
``results/quick_eval.json``, so a quick run never overwrites the full
results::

    PYTHONPATH=src python scripts/run_full_eval.py --quick --trace run.jsonl

An interrupted Table 1 run (Ctrl-C, budget exhaustion) leaves a resume
handle; pass it back with ``--resume handle.json`` and the already-solved
instructions are reused verbatim instead of being re-synthesized.
"""

import argparse
import dataclasses
import json
import os
import time

from repro.eval import (
    format_table,
    run_constant_time,
    run_table1,
    run_table2,
)
from repro.smt.backends import SolverConfig
from repro.synthesis import MalformedResumeHandle, load_resume_handle


@dataclasses.dataclass(frozen=True)
class Scale:
    """Which rows a run covers and where its results go."""

    name: str
    quick: bool
    output: str
    monolithic_timeout: float
    ct_lengths: tuple


FULL = Scale("full", False, "results/full_eval.json", 300,
             tuple(range(4, 33)))
QUICK = Scale("quick", True, "results/quick_eval.json", 120,
              (4, 12, 21, 32))

STUDIES = ("table1", "table2", "ct")


def _load_resume(path):
    """Load a resume handle and report what it lets us skip."""
    try:
        partial = load_resume_handle(path)
    except MalformedResumeHandle as exc:
        raise SystemExit(
            f"error: cannot resume from {path}: {exc} "
            f"(reason: {exc.reason})"
        ) from exc
    solved = [s.instruction_name for s in partial.completed]
    print(
        f"resuming {partial.problem_name!r} ({partial.mode}) from {path}: "
        f"previous run stopped on {partial.reason!r}", flush=True,
    )
    if solved:
        print(
            f"  skipping {len(solved)} already-solved instruction(s): "
            + ", ".join(solved), flush=True,
        )
    print(
        f"  {len(partial.pending)} instruction(s) still pending: "
        + (", ".join(partial.pending) or "(none)"), flush=True,
    )
    return partial


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the paper evaluation (Tables 1/2, "
        "constant-time study)."
    )
    # Checked below rather than with ``choices=``: before Python 3.12,
    # argparse tests an empty ``nargs="*"`` list against the choices and
    # rejects a command line that names no study.
    parser.add_argument(
        "tables", nargs="*", metavar="{table1,table2,ct}",
        help="restrict to the named studies (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run the quick rows (instruction subsets, constant-time "
        "lengths 4/12/21/32) and write results/quick_eval.json",
    )
    parser.add_argument(
        "--resume", metavar="HANDLE.json", default=None,
        help="a serialized PartialSynthesisResult from an interrupted "
        "run; matching Table 1 rows reuse its solved instructions",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record an obs/v1 JSONL trace of the whole evaluation to "
        "PATH (analyze with scripts/trace_report.py)",
    )
    parser.add_argument(
        "--backend", metavar="NAME", default=None,
        help="solver backend for every Table 1 row (a name registered "
        "with repro.smt.backends, e.g. inprocess, "
        "incremental-subprocess (sandboxed), subprocess-dimacs, portfolio; "
        "default: $REPRO_BACKEND or inprocess); "
        "the rows record which backend ran",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.tables) - set(STUDIES))
    if unknown:
        parser.error(f"unknown study {unknown[0]!r}; choose from "
                     + ", ".join(STUDIES))
    if args.backend is not None:
        from repro.smt.backends import available_backends

        if args.backend not in available_backends():
            parser.error(
                f"unknown backend {args.backend!r}; registered: "
                + ", ".join(available_backends())
            )
    return args


def main(argv=None):
    args = parse_args(argv)
    scale = QUICK if args.quick else FULL
    only = set(args.tables)
    resume_handle = _load_resume(args.resume) if args.resume else None

    tracer = None
    if args.trace:
        from repro.obs import Tracer, install

        tracer = Tracer(args.trace)
        install(tracer)
        print(f"tracing to {args.trace} (run {tracer.run_id})", flush=True)

    os.makedirs(os.path.dirname(scale.output), exist_ok=True)
    results = {}
    if os.path.exists(scale.output):
        with open(scale.output) as handle:
            results = json.load(handle)

    def save():
        with open(scale.output, "w") as handle:
            json.dump(results, handle, indent=2)

    if not only or "table1" in only:
        print(f"=== Table 1 ({scale.name}) ===", flush=True)
        rows = run_table1(
            quick=scale.quick, monolithic_timeout=scale.monolithic_timeout,
            resume_from=resume_handle,
            config=SolverConfig(backend=args.backend),
            progress=lambda row: print(
                f"  {row.row_id}: {row.time_seconds:.1f}s ({row.status})"
                + (f", reused {row.resumed_instructions}"
                   if row.resumed_instructions else ""),
                flush=True,
            ),
        )
        results["table1"] = [dataclasses.asdict(row) for row in rows]
        print(format_table(rows))
        save()

    if not only or "table2" in only:
        print(f"=== Table 2 ({scale.name}) ===", flush=True)
        rows = run_table2(
            quick=scale.quick,
            progress=lambda row: print(f"  {row.variant}: done", flush=True),
        )
        results["table2"] = [dataclasses.asdict(row) for row in rows]
        print(format_table(rows))
        save()

    if not only or "ct" in only:
        print(f"=== Constant-time study ({scale.name}: lengths "
              f"{scale.ct_lengths[0]}..{scale.ct_lengths[-1]}) ===",
              flush=True)
        started = time.monotonic()
        rows = run_constant_time(lengths=scale.ct_lengths)
        results["constant_time"] = [dataclasses.asdict(row) for row in rows]
        results["constant_time_seconds"] = time.monotonic() - started
        print(format_table(rows))
        save()
    if tracer is not None:
        from repro.obs import clear

        clear()
        tracer.close()
        print(f"trace written to {tracer.path}")
    print(f"saved {scale.output}")


if __name__ == "__main__":
    main()
