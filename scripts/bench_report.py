#!/usr/bin/env python
"""Diff two BENCH_table1.json reports and flag regressions.

Usage::

    python scripts/bench_report.py BASELINE.json CURRENT.json
    python scripts/bench_report.py BENCH_table1.json   # just print it

A regression is a wall-time increase above the tolerance (default 10%,
``--wall-tolerance``) or *any* increase in a deterministic encode counter
(AIG nodes, Tseitin clauses, solver instances) — counters are exact for
serial runs, so even a +1 drift means the encoding changed.  Exits
nonzero when a regression is found, so CI can gate on it.

The pipeline ratios are gated *absolutely*, in both modes (even when
just printing one report): a ``wall_ratio`` above 1.0 anywhere means
the incremental pipeline stopped paying for itself, and an
``encode_ratio`` below 2.0 on the single-cycle RV32I headline case
means the encode saving eroded — either fails the report regardless of
what the baseline said.
"""

from __future__ import annotations

import argparse
import json
import sys

#: counters where any increase is a regression (deterministic units)
COUNTER_FIELDS = ("solver_instances", "aig_nodes", "tseitin_clauses")
WALL_FIELD = "wall_time_seconds"

#: absolute ratio gates: (case-name prefix, field, bound, sense).
#: ``max`` fails values above the bound, ``min`` fails values below;
#: the empty prefix applies to every case recording the field.
RATIO_GATES = (
    ("", "wall_ratio", 1.0, "max"),
    ("sc_rv32i", "encode_ratio", 2.0, "min"),
)


def gate_violations(cases):
    """Yield messages for absolute ratio-gate violations in ``cases``."""
    for prefix, field, bound, sense in RATIO_GATES:
        for name in sorted(cases):
            if not name.startswith(prefix):
                continue
            value = cases[name].get(field)
            if value is None:
                continue
            if (value > bound) if sense == "max" else (value < bound):
                yield (
                    f"{name}: {field} {value} violates the "
                    f"{'<=' if sense == 'max' else '>='} {bound} gate"
                )


def load_cases(path):
    with open(path) as handle:
        report = json.load(handle)
    return report.get("cases", {})


def fmt_case(name, fields):
    parts = [f"{name}:"]
    for key in ("pipeline", "status", WALL_FIELD, "iterations",
                *COUNTER_FIELDS, "trace_cache_hits", "encode_ratio",
                "wall_ratio", "trail_reuse_hits"):
        if key in fields:
            parts.append(f"{key}={fields[key]}")
    return "  " + " ".join(parts)


def diff_cases(baseline, current, wall_tolerance):
    """Yield (severity, message) pairs for an asymmetric-safe diff.

    Severity is ``'regression'``, ``'added'``, ``'removed'`` or ``'info'``.
    A case present in only one report is *reported*, never an error: new
    benches appear before their baseline lands, and retired benches
    linger in old baselines — neither should crash the diff or fail CI.
    """
    for name in sorted(current):
        if name not in baseline:
            yield "added", fmt_case(name, current[name]).strip()
            continue
        base, cur = baseline[name], current[name]
        for field in COUNTER_FIELDS:
            if field not in base or field not in cur:
                continue
            if cur[field] > base[field]:
                yield "regression", (
                    f"{name}: {field} {base[field]} -> {cur[field]} "
                    f"(+{cur[field] - base[field]})"
                )
            elif cur[field] < base[field]:
                yield "info", (
                    f"{name}: {field} {base[field]} -> {cur[field]} "
                    f"({cur[field] - base[field]})"
                )
        if WALL_FIELD in base and WALL_FIELD in cur and base[WALL_FIELD] > 0:
            delta = (cur[WALL_FIELD] - base[WALL_FIELD]) / base[WALL_FIELD]
            if delta > wall_tolerance:
                yield "regression", (
                    f"{name}: {WALL_FIELD} {base[WALL_FIELD]} -> "
                    f"{cur[WALL_FIELD]} (+{delta:.0%}, tolerance "
                    f"{wall_tolerance:.0%})"
                )
        if base.get("status") == "ok" and cur.get("status") != "ok":
            yield "regression", (
                f"{name}: status ok -> {cur.get('status')!r}"
            )
    for name in sorted(set(baseline) - set(current)):
        yield "removed", fmt_case(name, baseline[name]).strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_table1.json")
    parser.add_argument("current", nargs="?", default=None,
                        help="current report; omit to just print baseline")
    parser.add_argument("--wall-tolerance", type=float, default=0.10,
                        help="relative wall-time growth allowed (default .10)")
    args = parser.parse_args(argv)

    if args.current is None:
        cases = load_cases(args.baseline)
        for name, fields in sorted(cases.items()):
            print(fmt_case(name, fields))
        gated = 0
        for message in gate_violations(cases):
            gated += 1
            print(f"GATE        {message}")
        if gated:
            print(f"\n{gated} ratio gate violation(s)")
            return 1
        return 0

    baseline = load_cases(args.baseline)
    current = load_cases(args.current)
    regressions = 0
    added = removed = 0
    for severity, message in diff_cases(baseline, current,
                                        args.wall_tolerance):
        if severity == "regression":
            regressions += 1
            print(f"REGRESSION  {message}")
        elif severity == "added":
            added += 1
            print(f"ADDED       {message}")
        elif severity == "removed":
            removed += 1
            print(f"REMOVED     {message}")
        else:
            print(f"            {message}")
    for message in gate_violations(current):
        regressions += 1
        print(f"GATE        {message}")
    if added or removed:
        print(f"\n{added} case(s) only in current, "
              f"{removed} only in baseline")
    if regressions:
        print(f"\n{regressions} regression(s) found")
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
