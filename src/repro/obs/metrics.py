"""The unified metrics registry: one snapshot/delta API for every counter.

Before this module the repo's counters were scattered: encode effort in
``repro.smt.counters``, worker health in per-pool stats dicts,
budget consumption inside ``Budget`` instances, trace-cache hit rates on
``TraceCache``.  Each had its own ad-hoc reading convention, which is why
no report could answer "what did this run cost, in every unit we track?".

:data:`METRICS` is the process-global registry.  Producers call
:meth:`MetricsRegistry.inc` with a dotted counter name (``"worker.crashes"``,
``"budget.conflicts_charged"``); consumers call :meth:`snapshot` /
:func:`delta_since`.  Snapshots *merge in* the encode counters from
``repro.smt.counters`` under an ``encode.`` prefix — those stay where they
are (the SMT layer must not import upward), the registry simply absorbs
them at read time, so one snapshot really is the whole picture.

Latency distributions are tracked by fixed-boundary histograms:
producers call :meth:`MetricsRegistry.observe` with a dotted name and a
value in seconds; snapshots expose each histogram under a ``hist.``
prefixed key whose value is a summary dict (count/sum/min/max, p50/p90/
p99 interpolated from the bucket counts, plus the raw cumulative-free
bucket counts and their upper bounds).  The ``hist.`` prefix keeps the
flat counter namespace int-only, so prefix scans over ``encode.`` /
``portfolio.`` counters and the int subtraction in :meth:`delta_since`
never meet a dict by surprise.

Increments take a lock: they happen at event granularity (a worker crash,
a facade check, a CEGIS iteration), never inside the SAT core's inner
loops, so contention is negligible.  Observations share the same lock
and granularity; each is a bisect plus two adds.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Histogram",
    "LATENCY_BOUNDS",
    "MetricsRegistry",
    "METRICS",
    "snapshot",
    "delta_since",
    "percentiles_from_buckets",
]

#: Default bucket upper bounds (seconds) for latency histograms: a
#: roughly-logarithmic ladder from 1ms to 5 minutes.  Everything above
#: the last bound lands in the implicit +inf overflow bucket.
LATENCY_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def percentiles_from_buckets(bounds, buckets, count, quantiles=(0.5, 0.9, 0.99)):
    """Estimate quantiles from per-bucket counts (not cumulative).

    Uses the bucket upper bound as the estimate — the conventional
    conservative choice for fixed-boundary histograms (a Prometheus
    ``histogram_quantile`` would interpolate; with our dense ladder the
    bound itself is within one bucket width of the truth).  The overflow
    bucket reports the last finite bound.  Returns ``{q: value}`` with
    ``None`` values when the histogram is empty.
    """
    if count <= 0:
        return {q: None for q in quantiles}
    out = {}
    for q in quantiles:
        rank = q * count
        seen = 0
        value = None
        for i, n in enumerate(buckets):
            seen += n
            if seen >= rank and n:
                value = bounds[i] if i < len(bounds) else bounds[-1]
                break
        if value is None:
            # Rank fell past every populated bucket (float edge); use the
            # highest populated bucket's bound.
            for i in range(len(buckets) - 1, -1, -1):
                if buckets[i]:
                    value = bounds[i] if i < len(bounds) else bounds[-1]
                    break
        out[q] = value
    return out


class Histogram:
    """A fixed-boundary histogram: bucket counts plus sum/min/max.

    Not thread-safe on its own — the owning :class:`MetricsRegistry`
    serializes access under its lock.  ``buckets`` has one slot per
    finite bound plus a trailing overflow slot.
    """

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds=LATENCY_BOUNDS):
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self):
        """A plain-dict summary (JSON-safe) for snapshots and events."""
        pcts = percentiles_from_buckets(self.bounds, self.buckets, self.count)
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self.min,
            "max": self.max,
            "p50": pcts[0.5],
            "p90": pcts[0.9],
            "p99": pcts[0.99],
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
        }


def _summary_delta(now, before):
    """Subtract two histogram summaries, recomputing percentiles.

    ``min``/``max`` are not delta-able from summaries, so the delta
    reports the *current* extremes (documented, and good enough for the
    "what did this run cost" reading the delta API serves).
    """
    if not isinstance(before, dict) or before.get("bounds") != now.get("bounds"):
        # Histogram born after ``before`` (or boundary mismatch after a
        # reconfiguration): the full current summary is the delta.
        return dict(now)
    buckets = [a - b for a, b in zip(now["buckets"], before["buckets"])]
    count = now["count"] - before["count"]
    pcts = percentiles_from_buckets(now["bounds"], buckets, count)
    return {
        "count": count,
        "sum": round(now["sum"] - before["sum"], 9),
        "min": now["min"],
        "max": now["max"],
        "p50": pcts[0.5],
        "p90": pcts[0.9],
        "p99": pcts[0.99],
        "bounds": list(now["bounds"]),
        "buckets": buckets,
    }


class MetricsRegistry:
    """Named monotonic counters and histograms with snapshot/delta reads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}
        self._hists = {}

    def inc(self, name, value=1):
        """Add ``value`` to counter ``name`` (creating it at 0)."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + value

    def get(self, name):
        """Current value of ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counts.get(name, 0)

    def observe(self, name, value, bounds=LATENCY_BOUNDS):
        """Record ``value`` (seconds) into histogram ``name``.

        The histogram is created on first observation with ``bounds``;
        later calls ignore the argument (boundaries are fixed for the
        histogram's life, which is what makes deltas subtractable).
        """
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram(bounds)
            hist.observe(value)

    def histogram(self, name):
        """Summary dict for histogram ``name`` (``None`` if never observed)."""
        with self._lock:
            hist = self._hists.get(name)
            return hist.summary() if hist is not None else None

    def snapshot(self):
        """Every counter, with the encode counters merged under ``encode.``
        and histogram summaries under ``hist.``.

        The import is deferred so this module stays a leaf the runtime
        layer can import without dragging ``repro.smt`` in.
        """
        from repro.smt import counters as _encode

        merged = {
            f"encode.{name}": value
            for name, value in _encode.snapshot().items()
        }
        with self._lock:
            merged.update(self._counts)
            merged.update(
                (f"hist.{name}", hist.summary())
                for name, hist in self._hists.items()
            )
        return merged

    def delta_since(self, before):
        """Counters accumulated since an earlier :meth:`snapshot`.

        Counters born after ``before`` appear with their full value;
        counters absent from the current snapshot are dropped (they were
        zero then and are zero now).  Histogram entries (``hist.``-keyed
        dicts) are subtracted elementwise with percentiles recomputed
        from the delta buckets; their min/max report current extremes.
        """
        now = self.snapshot()
        out = {}
        for name, value in now.items():
            if isinstance(value, dict):
                out[name] = _summary_delta(value, before.get(name))
            else:
                out[name] = value - before.get(name, 0)
        return out

    def reset(self):
        """Forget the registry's own counters and histograms (the encode
        counters are owned by ``repro.smt.counters`` and reset there).
        Test hygiene only — production counters are monotonic for the
        process life."""
        with self._lock:
            self._counts.clear()
            self._hists.clear()


#: The process-wide registry every instrumented layer increments.
METRICS = MetricsRegistry()


def snapshot():
    """Module-level convenience for :meth:`MetricsRegistry.snapshot`."""
    return METRICS.snapshot()


def delta_since(before):
    """Module-level convenience for :meth:`MetricsRegistry.delta_since`."""
    return METRICS.delta_since(before)
