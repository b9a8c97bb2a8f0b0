"""Deterministic fault injection at the solver facade.

Production resilience claims ("a timeout mid-CEGIS degrades to a partial
result") are only testable if faults can be provoked *on demand and
reproducibly*.  A :class:`FaultInjector` holds a plan of faults keyed on
the facade's global check/model ordinals — the N-th ``Solver.check`` call
process-wide, regardless of which solver instance makes it — so a test can
say "the 3rd query returns UNKNOWN" and hit, say, the guess side of CEGIS
iteration 2 every single run.

Supported faults:

* ``inject_unknown(at_check=n)`` — the n-th check returns UNKNOWN
  (reason ``"injected"``), as if a conflict cap had been hit;
* ``inject_deadline(at_check=n)`` — the n-th check returns UNKNOWN with
  reason ``"deadline"``, as if the wall clock had expired mid-solve;
* ``inject_malformed_model(at_model=n)`` — the n-th model extraction is
  corrupted with deterministic out-of-width garbage, as if the backend
  were buggy;
* ``inject_worker_crash(at_request=n)`` / ``inject_worker_hang(...)`` /
  ``inject_worker_oom(...)`` — the n-th solve sent to a sandboxed
  ``incremental-subprocess`` child (process-wide, counted per solve)
  carries a directive the child obeys: die with a crash exit code
  mid-check, go silent (stop heartbeating) so the watchdog must reap it,
  or allocate until the memory rlimit breaches.  ``at_request="all"``
  makes the fault persistent (every solve), which is how the circuit
  breaker's in-process fallback is exercised.
* ``inject_journal_fault(at_append=n)`` — the n-th append to the
  synthesis service's write-ahead journal fails as if the underlying
  write/fsync had errored; the service must surface a typed
  ``JournalFault`` and never acknowledge the un-logged job.
  ``at_append="all"`` fails every append.

Installation is process-global (the facade consults
:func:`active_injector`) and strictly scoped via the context manager, so a
test can never leak faults into the next one.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS

__all__ = ["FaultInjector", "active_injector", "install", "clear"]

_ACTIVE = None


def active_injector():
    """The installed :class:`FaultInjector`, or ``None``."""
    return _ACTIVE


def install(injector):
    global _ACTIVE
    _ACTIVE = injector


def clear():
    global _ACTIVE
    _ACTIVE = None


class FaultInjector:
    """A deterministic plan of solver faults, installable process-wide."""

    def __init__(self, seed=0):
        self.seed = seed
        self.check_count = 0
        self.model_count = 0
        self.request_count = 0   # sandboxed-child solves, process-wide
        self.journal_count = 0   # service journal appends, process-wide
        self._unknown_at = {}    # ordinal -> reason
        self._malformed_at = set()
        self._worker_at = {}     # ordinal -> directive
        self._worker_always = None  # persistent directive ("all" plans)
        self._journal_at = set()
        self._journal_always = False
        self.fired = []          # (kind, ordinal) log for assertions

    # -- plan construction ----------------------------------------------

    def inject_unknown(self, at_check, reason="injected"):
        """The ``at_check``-th facade check returns UNKNOWN(``reason``)."""
        for ordinal in self._ordinals(at_check):
            self._unknown_at[ordinal] = reason
        return self

    def inject_deadline(self, at_check):
        """The ``at_check``-th facade check times out (UNKNOWN/deadline)."""
        return self.inject_unknown(at_check, reason="deadline")

    def inject_malformed_model(self, at_model):
        """The ``at_model``-th model extraction is corrupted."""
        self._malformed_at.update(self._ordinals(at_model))
        return self

    def inject_worker_crash(self, at_request):
        """The ``at_request``-th child solve dies with a crash exit."""
        return self._plan_worker(at_request, "crash")

    def inject_worker_hang(self, at_request):
        """The ``at_request``-th child solve goes silent (no
        heartbeats); the watchdog must hard-kill it."""
        return self._plan_worker(at_request, "hang")

    def inject_worker_oom(self, at_request):
        """The ``at_request``-th child solve allocates until its
        memory rlimit breaches."""
        return self._plan_worker(at_request, "oom")

    def inject_journal_fault(self, at_append):
        """The ``at_append``-th service-journal append fails durably:
        the record must be treated as never written."""
        if at_append == "all":
            self._journal_always = True
            return self
        self._journal_at.update(self._ordinals(at_append))
        return self

    def _plan_worker(self, at_request, directive):
        if at_request == "all":
            self._worker_always = directive
            return self
        for ordinal in self._ordinals(at_request):
            self._worker_at[ordinal] = directive
        return self

    @staticmethod
    def _ordinals(spec):
        return spec if isinstance(spec, (list, tuple, set)) else (spec,)

    # -- facade hooks -----------------------------------------------------

    def _record(self, kind, ordinal):
        """Append to the fired log and surface the fault as obs telemetry,
        so a traced run shows exactly which faults actually landed."""
        self.fired.append((kind, ordinal))
        _METRICS.inc("faults.injected")
        _obs.event("fault.injected", kind=kind, ordinal=ordinal,
                   seed=self.seed)

    def on_check(self):
        """Called by ``Solver.check``; returns an UNKNOWN reason or None."""
        self.check_count += 1
        reason = self._unknown_at.get(self.check_count)
        if reason is not None:
            self._record("unknown:" + reason, self.check_count)
        return reason

    def on_worker_request(self):
        """Called by the sandboxed backend per child solve; returns a
        directive (``"crash"``/``"hang"``/``"oom"``) or ``None``.

        Each planned ordinal fires exactly once.
        """
        self.request_count += 1
        directive = self._worker_at.pop(self.request_count, None)
        if directive is None:
            directive = self._worker_always
        if directive is not None:
            self._record("worker:" + directive, self.request_count)
        return directive

    def on_journal_append(self):
        """Called by the service journal per append; ``True`` = fail it.

        The journal consults this *before* writing anything, modelling a
        write/fsync error: a failed append leaves no bytes behind, so the
        job it carried was never durable and must not be acknowledged.
        """
        self.journal_count += 1
        if self._journal_always or self.journal_count in self._journal_at:
            self._record("journal", self.journal_count)
            return True
        return False

    def on_model(self, values):
        """Called by ``Solver.model`` with the assignment dict; may corrupt."""
        self.model_count += 1
        if self.model_count not in self._malformed_at:
            return values
        self._record("malformed_model", self.model_count)
        rng = random.Random(self.seed * 1_000_003 + self.model_count)
        corrupted = {}
        for name in sorted(values):
            # Out-of-width garbage: exceeds any width the blaster produced.
            corrupted[name] = (1 << 70) | rng.getrandbits(16)
        return corrupted

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        """Install for the duration of a ``with`` block (re-entrant safe).

        A traced run brackets the installation with ``fault.installed`` /
        ``fault.uninstalled`` events — the seed on entry and the full
        fired log on exit — so the injection plan that shaped a trace is
        recorded *in* the trace.
        """
        previous = active_injector()
        install(self)
        _obs.event("fault.installed", seed=self.seed,
                   planned_checks=len(self._unknown_at),
                   planned_models=len(self._malformed_at),
                   planned_workers=len(self._worker_at),
                   planned_journal=len(self._journal_at),
                   persistent_worker=self._worker_always or "",
                   persistent_journal=self._journal_always)
        try:
            yield self
        finally:
            install(previous)
            _obs.event("fault.uninstalled", seed=self.seed,
                       fired=[f"{kind}@{ordinal}"
                              for kind, ordinal in self.fired])
