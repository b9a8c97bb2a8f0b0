"""Process-global encode counters for the synthesis pipeline.

The incremental pipeline's claim is *structural*: it creates fewer solver
instances, fewer AIG nodes and fewer Tseitin clauses than the fresh
pipeline for the same synthesis problem.  Wall clock is noisy and
machine-dependent; these counters are exact and deterministic, so the CI
perf-smoke lane and ``BENCH_table1.json`` report them instead.

The counters are advisory accounting, not synchronization: increments are
not atomic across threads, so two synthesis runs sharing a process (e.g.
a multi-runner service) may lose an occasional tick.  The engine solves
instructions serially, and the invariant tests and benches run one
synthesis at a time, where the counts are exact.
"""

from __future__ import annotations

__all__ = ["COUNTERS", "EncodeCounters", "snapshot", "delta_since"]

_FIELDS = (
    "solver_instances",
    "aig_nodes",
    "tseitin_clauses",
    "trace_cache_hits",
    "trace_cache_misses",
    "sat_propagations",
    "sat_restarts",
    "sat_learned",
    "sat_deleted",
    "sat_trail_reuse_hits",
    "sat_trail_reuse_levels_saved",
    "sat_chrono_backtracks",
)


class EncodeCounters:
    """Monotonic per-process counters of encode/solve work.

    ============================  ============================================
    ``solver_instances``          ``repro.smt.solver.Solver`` constructions
    ``aig_nodes``                 AIG nodes allocated (inputs + AND gates)
    ``tseitin_clauses``           CNF clauses the facade's Tseitin encoder
                                  emitted (whichever backend received them)
    ``trace_cache_hits``          shared-trace entries served from cache
    ``trace_cache_misses``        shared-trace entries built from scratch
    ``sat_propagations``          unit propagations inside CDCL checks
    ``sat_restarts``              CDCL restarts inside checks
    ``sat_learned``               clauses learned inside checks
    ``sat_deleted``               learned clauses dropped by DB reduction
    ``sat_trail_reuse_hits``      checks that reused a kept assumption trail
    ``sat_trail_reuse_levels_saved``  assumption levels kept across checks
    ``sat_chrono_backtracks``     deep backjumps converted to one-level
                                  chronological backtracks
    ============================  ============================================

    The ``sat_*`` solver-internals fields are charged once per check by
    the solver facade from :attr:`BackendResult.internals`, and the same
    numbers ride the ``solver.check`` obs event — so traced runs reconcile
    exactly (``repro.obs.report.totals``).
    """

    __slots__ = _FIELDS

    def __init__(self):
        self.reset()

    def reset(self):
        for name in _FIELDS:
            setattr(self, name, 0)

    def snapshot(self):
        """A plain-dict copy of the current counts."""
        return {name: getattr(self, name) for name in _FIELDS}


#: The process-wide counter instance every encoder increments.
COUNTERS = EncodeCounters()


def snapshot():
    """The current process-wide counts as a dict."""
    return COUNTERS.snapshot()


def delta_since(before):
    """Counts accumulated since an earlier :func:`snapshot`."""
    now = COUNTERS.snapshot()
    return {name: now[name] - before.get(name, 0) for name in _FIELDS}
