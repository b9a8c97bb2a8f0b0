"""Per-layer ledger for traced runs, recorded from outside the library.

A traced run replaces a fixed list of the library's layer entry points
(``TARGETS``) with timing wrappers, records one span per outermost call,
and puts the originals back when it ends.  A module-level function is
replaced at every module that holds it, so ``from x import f`` call
sites are timed too; a method is replaced on its class.

Each span has a name, start, end, parent span (the innermost open span on
the same thread) and optional attributes.  A re-entrant call to a layer
that already has an open span on the thread is charged to the outermost
span and records nothing.  Spans stay in memory; :func:`summarize` turns
them into self times, call counts and the reconciliation against the
traced wall, which the caller writes out at the end of the run.
"""

from __future__ import annotations

import dataclasses
import importlib
import statistics
import sys
import threading
import time

#: |sum of self times + unattributed - traced wall| / traced wall may not
#: exceed this; self times are computed per span and the unattributed time
#: from the union of root spans, so a disagreement means the span tree or
#: the self-time arithmetic is wrong.
RECONCILE_TOLERANCE = 0.01


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "attrs",
                 "dropped")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread
        self.attrs = {}
        self.dropped = False


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        """Open a span, or return ``None`` when ``name`` is already open on
        this thread (the re-entrant call is charged to the outer span)."""
        stack = self._stack()
        if any(span.name == name for span in stack):
            return None
        parent = stack[-1] if stack else None
        span = Span(name, self.clock(), parent, threading.get_ident())
        stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        stack = self._stack()
        stack.remove(span)
        self.spans.append(span)


@dataclasses.dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` and the dotted ``attr`` inside it.

    ``before(args, kwargs)`` may return ``(args, kwargs, state)`` to adjust
    the call; ``after(span, state, args, result)`` may set ``span.attrs``
    or ``span.dropped``.  ``sites`` limits which modules' references are
    replaced (default: every module holding the function).
    """

    module: str
    attr: str
    span: str
    before: object = None
    after: object = None
    sites: tuple = None


def _cegis_before(args, kwargs):
    # cegis_solve fills the CegisStats it is given; pass one when the
    # caller did not, so the span can report the run's counters.
    if kwargs.get("stats") is None:
        from repro.synthesis.cegis import CegisStats
        kwargs = dict(kwargs, stats=CegisStats())
    return args, kwargs, kwargs["stats"]


def _cegis_after(span, stats, args, result):
    span.attrs.update(iterations=stats.iterations,
                      polish_checks=stats.polish_checks,
                      verify_s=stats.verify_time, guess_s=stats.guess_time)


def _sat_after(span, state, args, result):
    internals = result.internals or {}
    span.attrs.update(conflicts=result.conflicts,
                      propagations=internals.get("propagations", 0),
                      learned=internals.get("learned", 0),
                      trail_reuse_hits=internals.get("trail_reuse_hits", 0))


def _misses_before(args, kwargs):
    return args, kwargs, args[0].misses


def _keep_misses(span, misses_before, args, result):
    # Only a cache miss builds a trace; a hit is a dict lookup.
    span.dropped = args[0].misses == misses_before


def _job_id_arg(span, state, args, result):
    span.attrs["job_id"] = args[1]


def _submit_after(span, state, args, result):
    span.attrs.update(job_id=result["job_id"], design=args[1],
                      cached=bool(result.get("cached")),
                      trace_id=result.get("trace_id"))


TARGETS = (
    Target("repro.smt.backends.inprocess", "InProcessBackend.check",
           "sat.search", after=_sat_after),
    Target("repro.smt.solver", "Solver.add", "smt.encode"),
    Target("repro.smt.bitblast", "BitBlaster.blast", "smt.blast"),
    Target("repro.smt.terms", "substitute", "smt.substitute"),
    Target("repro.synthesis.independence", "check_instruction_independence",
           "synthesis.independence"),
    Target("repro.synthesis.cegis", "cegis_solve", "synthesis.cegis",
           before=_cegis_before, after=_cegis_after),
    Target("repro.synthesis.incremental", "IncrementalContext.assert_folded",
           "synthesis.stage"),
    Target("repro.synthesis.incremental", "IncrementalContext.assert_scan",
           "synthesis.stage"),
    Target("repro.synthesis.incremental", "TraceCache.entry",
           "synthesis.trace_build", before=_misses_before,
           after=_keep_misses),
    Target("repro.oyster.symbolic", "SymbolicEvaluator.run", "oyster.eval"),
    Target("repro.ila.compiler", "ConstraintCompiler.compile_instruction",
           "ila.compile"),
    Target("repro.synthesis.preprocess", "resolve_equalities",
           "synthesis.preprocess"),
    Target("repro.synthesis.union", "control_union", "synthesis.union"),
    Target("repro.synthesis.engine", "splice_control", "synthesis.union"),
    Target("repro.synthesis.engine", "synthesize", "synthesis.engine"),
    Target("repro.service.problems", "build_problem",
           "service.build_problem"),
    Target("repro.service.journal", "Journal.append", "service.journal"),
    Target("repro.synthesis.handles", "save_resume_handle",
           "service.checkpoint", sites=("repro.service.runner",)),
    Target("repro.service.runner", "JobRunner.run", "service.run",
           after=_job_id_arg),
    Target("repro.service.daemon", "SynthesisService.submit",
           "service.submit", after=_submit_after),
    Target("repro.service.daemon", "SynthesisService.wait", "service.wait",
           after=_job_id_arg),
)


def _wrap(recorder, target, original):
    def wrapper(*args, **kwargs):
        state = None
        if target.before is not None:
            args, kwargs, state = target.before(args, kwargs)
        span = recorder.open(target.span)
        if span is None:
            return original(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        if target.after is not None:
            target.after(span, state, args, result)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", target.attr)
    return wrapper


class Instrumentation:
    """Installs wrappers for ``targets``; :meth:`restore` undoes them."""

    def __init__(self, recorder, targets=TARGETS):
        self.recorder = recorder
        self._saved = []  # (owner, attribute name, original, wrapper)
        for target in targets:
            self._install(target)

    def _install(self, target):
        module = importlib.import_module(target.module)
        owner = module
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name]
        wrapper = _wrap(self.recorder, target, original)
        if path:  # a method: replace it on its class
            self._replace(owner, name, original, wrapper)
            return
        sites = target.sites
        for module_name, held in list(sys.modules.items()):
            if held is None or (sites and module_name not in sites):
                continue
            for attr, value in list(vars(held).items()):
                if value is original:
                    self._replace(held, attr, original, wrapper)

    def _replace(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._saved.append((owner, name, original, wrapper))

    def restore(self):
        """Put every original back, also where a module imported while
        the wrappers were installed bound a wrapper by name."""
        originals = {}
        for owner, name, original, wrapper in reversed(self._saved):
            setattr(owner, name, original)
            originals[id(wrapper)] = original
        for held in list(sys.modules.values()):
            if held is None:
                continue
            for attr, value in list(vars(held).items()):
                if id(value) in originals and getattr(
                        value, "__wrapped__", None) is originals[id(value)]:
                    setattr(held, attr, originals[id(value)])
        self._saved = []


class Session:
    """A traced region that may be entered several times.

    Entering installs the wrappers, leaving restores them; the session
    accumulates the traced wall and the growth of the process-wide
    encode counters (``repro.smt.counters``) inside the region.
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.recorder = Recorder(clock)
        self.targets = targets
        self.wall = 0.0
        self.counters = {}
        self._instrumentation = None

    def __enter__(self):
        from repro.smt import counters

        self._instrumentation = Instrumentation(self.recorder, self.targets)
        self._before = counters.snapshot()
        self._start = self.recorder.clock()
        return self

    def __exit__(self, *exc):
        from repro.smt import counters

        self.wall += self.recorder.clock() - self._start
        for name, grown in counters.delta_since(self._before).items():
            self.counters[name] = self.counters.get(name, 0) + grown
        self._instrumentation.restore()
        return False


def _union_length(intervals):
    total = 0.0
    end = None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def kept_parent(span):
    parent = span.parent
    while parent is not None and parent.dropped:
        parent = parent.parent
    return parent


def self_times(spans):
    """``{span: self seconds}`` for every kept span: its duration minus the
    part of it that its (kept) child spans cover."""
    kept = [span for span in spans if not span.dropped]
    children = {id(span): [] for span in kept}
    for span in kept:
        parent = kept_parent(span)
        if parent is not None:
            children[id(parent)].append(span)
    out = {}
    for span in kept:
        inner = [(max(c.start, span.start), min(c.end, span.end))
                 for c in children[id(span)]]
        covered = _union_length([(a, b) for a, b in inner if b > a])
        out[span] = (span.end - span.start) - covered
    return out


def summarize(spans, wall):
    """Aggregate spans into the layer ledger.

    ``wall`` is the traced wall of one thread; every thread that recorded
    spans is charged that wall, so ``traced_wall`` is in thread-seconds
    and a thread's time outside any span is ``unattributed``.
    """
    selfs = self_times(spans)
    layers = {}
    for span, own in selfs.items():
        entry = layers.setdefault(span.name, {"self_s": 0.0, "incl_s": 0.0,
                                              "calls": 0})
        entry["self_s"] += own
        entry["incl_s"] += span.end - span.start
        entry["calls"] += 1
    threads = {span.thread for span in selfs}
    roots = {}
    for span in selfs:
        if kept_parent(span) is None:
            roots.setdefault(span.thread, []).append((span.start, span.end))
    traced_wall = wall * len(threads)
    covered = sum(_union_length(v) for v in roots.values())
    unattributed = traced_wall - covered
    total_self = sum(selfs.values())
    error = 0.0
    if traced_wall > 0:
        error = abs(total_self + unattributed - traced_wall) / traced_wall
    return {
        "layers": layers,
        "traced_wall_s": traced_wall,
        "unattributed_s": unattributed,
        "reconcile_error": error,
        "reconciled": error <= RECONCILE_TOLERANCE,
    }


def tail(values):
    """``(value, percentile, samples)``: the highest percentile of
    ``values`` with at least ten samples beyond it, or the maximum when
    there are fewer than eleven samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0
    count = len(ordered)
    index = count - 11 if count >= 11 else count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


#: per-layer metric -> (span name, "self_s" or "incl_s"); seconds per
#: operation.  Independence and staging are charged inclusively.
LAYER_TIMES = {
    "sat.search_s": ("sat.search", "self_s"),
    "smt.encode_s": ("smt.encode", "self_s"),
    "smt.blast_s": ("smt.blast", "self_s"),
    "smt.substitute_s": ("smt.substitute", "self_s"),
    "synthesis.independence_s": ("synthesis.independence", "incl_s"),
    "synthesis.cegis_s": ("synthesis.cegis", "self_s"),
    "synthesis.stage_s": ("synthesis.stage", "incl_s"),
    "synthesis.trace_build_s": ("synthesis.trace_build", "self_s"),
    "oyster.eval_s": ("oyster.eval", "self_s"),
    "ila.compile_s": ("ila.compile", "self_s"),
    "synthesis.preprocess_s": ("synthesis.preprocess", "self_s"),
    "synthesis.union_s": ("synthesis.union", "self_s"),
    "synthesis.engine_self_s": ("synthesis.engine", "self_s"),
}

#: per-layer count -> (span name, attribute summed, or None for calls)
LAYER_COUNTS = {
    "sat.checks": ("sat.search", None),
    "sat.conflicts": ("sat.search", "conflicts"),
    "sat.propagations": ("sat.search", "propagations"),
    "sat.learned": ("sat.search", "learned"),
    "sat.trail_reuse_hits": ("sat.search", "trail_reuse_hits"),
    "synthesis.cegis.iterations": ("synthesis.cegis", "iterations"),
    "synthesis.cegis.polish_checks": ("synthesis.cegis", "polish_checks"),
    "service.build_problems": ("service.build_problem", None),
    "service.journal_appends": ("service.journal", None),
    "service.checkpoints": ("service.checkpoint", None),
}

#: per-layer count -> encode counter grown inside the traced region
COUNTER_COUNTS = {
    "smt.tseitin_clauses": "tseitin_clauses",
    "smt.solver_instances": "solver_instances",
    "smt.aig_nodes": "aig_nodes",
    "synthesis.trace_cache_hits": "trace_cache_hits",
}


def layer_metrics(spans, summary, counters, ops, cache_hits, overhead):
    """The per-layer metrics of one traced run, per operation:
    ``{name: (value, unit)}``.

    ``ops`` is the number of traced operations (synthesize calls, or
    stream submissions); ``counters`` is the growth of the encode counters
    in the traced region; ``overhead`` is traced over untraced time, less
    one.
    """
    kept = [span for span in spans if not span.dropped]
    layers = summary["layers"]
    out = {}
    for metric, (name, column) in LAYER_TIMES.items():
        out[metric] = (layers.get(name, {}).get(column, 0.0) / ops, "s")
    for metric, (name, attr) in LAYER_COUNTS.items():
        total = sum(1 if attr is None else span.attrs.get(attr, 0)
                    for span in kept if span.name == name)
        out[metric] = (total / ops, "count")
    for metric, field in COUNTER_COUNTS.items():
        out[metric] = (counters.get(field, 0) / ops, "count")
    checks = [1000.0 * (span.end - span.start)
              for span in kept if span.name == "sat.search"]
    out["sat.check_p50_ms"] = (statistics.median(checks) if checks else 0.0,
                               "ms")
    out["sat.check_tail_ms"] = (tail(checks)[0], "ms")
    for name, span_name in (("synthesis.cegis.verify_s", "verify_s"),
                            ("synthesis.cegis.guess_s", "guess_s")):
        total = sum(span.attrs.get(span_name, 0.0) for span in kept
                    if span.name == "synthesis.cegis")
        out[name] = (total / ops, "s")
    out["service.cache_hits"] = (cache_hits / ops, "count")
    out["trace.unattributed_s"] = (summary["unattributed_s"] / ops, "s")
    out["trace.overhead"] = (overhead, "ratio")
    return out


#: span attributes summed into the exact-count fingerprints
FINGERPRINT_ATTRS = ("conflicts", "propagations", "learned", "iterations")


def root_counts(spans):
    """Exact counts under each root span, in start order: ``(root,
    counts)`` where ``counts`` holds the calls of each layer and the sums of
    the :data:`FINGERPRINT_ATTRS` its spans carry."""
    per_root = {}
    for span in spans:
        if span.dropped:
            continue
        root = span
        while kept_parent(root) is not None:
            root = kept_parent(root)
        counts = per_root.setdefault(id(root), (root, {}))[1]
        counts[span.name] = counts.get(span.name, 0) + 1
        for attr in FINGERPRINT_ATTRS:
            if attr in span.attrs:
                key = f"{span.name}.{attr}"
                counts[key] = counts.get(key, 0) + span.attrs[attr]
    return sorted(per_root.values(), key=lambda pair: pair[0].start)


def largest_layer(summary):
    """The layer with the most self time in a summary."""
    layers = summary["layers"]
    return max(layers, key=lambda name: layers[name]["self_s"], default=None)


def merge(summaries):
    """Pool the summaries of several processes into one."""
    layers = {}
    for summary in summaries:
        for name, entry in summary["layers"].items():
            pooled = layers.setdefault(name, {"self_s": 0.0, "incl_s": 0.0,
                                              "calls": 0})
            for key in pooled:
                pooled[key] += entry[key]
    return {
        "layers": layers,
        "traced_wall_s": sum(s["traced_wall_s"] for s in summaries),
        "unattributed_s": sum(s["unattributed_s"] for s in summaries),
        "reconcile_error": max(s["reconcile_error"] for s in summaries),
        "reconciled": all(s["reconciled"] for s in summaries),
    }
