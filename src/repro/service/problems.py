"""The service's problem registry and content-addressed idempotency keys.

Jobs name their problem (``"accumulator"``, ``"alu_machine"``, ...) rather
than shipping a serialized sketch over the wire: the registry maps those
names to the repo's ``build_problem`` factories, and the daemon constructs
the :class:`repro.synthesis.SynthesisProblem` fresh in whatever process
runs the job.  That keeps journal records and protocol messages small and
makes jobs trivially resumable after a restart.

The **idempotency key** is the content address of a synthesis request:
a SHA-256 over the printed sketch text (``print_design`` output is the
repo's canonical, parseable design encoding), the spec's instruction
names in order, the synthesis mode, and the solver-visible bits of the
:class:`~repro.smt.backends.SolverConfig` (backend name + pipeline).
Two submissions with the same key would provably do the same work, so a
``done`` job's result is served straight from the journal-backed cache —
including across daemon restarts.
"""

from __future__ import annotations

import hashlib
import os
import threading

from repro.oyster import print_design
from repro.service.admission import AdmissionRejected
from repro.smt.backends import SolverConfig

__all__ = ["PROBLEMS", "register_problem", "build_problem",
           "idempotency_key"]


def _accumulator():
    from repro.designs.accumulator import build_problem as factory
    return factory()


def _alu_machine():
    from repro.designs.alu_machine import build_problem as factory
    return factory()


def _chaos_poison():
    """A deliberate poison pill for the chaos lane.

    Builds fine on the daemon's accept path (submission must succeed:
    the idempotency key needs a real problem), then raises in every
    runner thread — so the job crash-loops to its poison verdict and
    the flight recorder's post-mortem dump can be asserted end to end.
    The sketch is renamed so the content-addressed idempotency key
    cannot collide with an honest accumulator submission (a cache hit
    would serve the poison job a real result).  Registered only under
    ``REPRO_SERVICE_CHAOS=1``; production daemons never know the name.
    """
    import dataclasses

    if threading.current_thread().name.startswith("service-runner"):
        raise RuntimeError("chaos poison pill: injected runner crash")
    problem = _accumulator()
    return dataclasses.replace(
        problem, sketch=dataclasses.replace(
            problem.sketch, name="chaos_poison_datapath"))


#: design name -> zero-argument SynthesisProblem factory
PROBLEMS = {
    "accumulator": _accumulator,
    "alu_machine": _alu_machine,
}

if os.environ.get("REPRO_SERVICE_CHAOS") == "1":
    PROBLEMS["chaos_poison"] = _chaos_poison


def register_problem(name, factory):
    """Add (or replace) a named problem factory."""
    PROBLEMS[name] = factory


def build_problem(name):
    """Instantiate the named problem; typed rejection for unknown names."""
    factory = PROBLEMS.get(name)
    if factory is None:
        raise AdmissionRejected(
            f"unknown design {name!r} (known: {', '.join(sorted(PROBLEMS))})",
            reason="unknown-design", retryable=False,
        )
    return factory()


def idempotency_key(problem, mode="per_instruction", config=None):
    """Content-address a synthesis request.

    Hashes exactly the inputs that determine the answer: the canonical
    sketch text, the instruction names (order matters — it is the spec's
    order), the mode, and the backend name and pipeline of the config
    that runs: ``config or SolverConfig()``, so ``None`` keys exactly as
    the default config under the process's ``$REPRO_BACKEND``.  A
    backend is keyed by its name, not its instance: how a check is run
    changes *how fast* the answer arrives, not what it is.
    """
    config = config or SolverConfig()
    digest = hashlib.sha256()
    digest.update(print_design(problem.sketch).encode("utf-8"))
    for instruction in problem.spec.instructions:
        digest.update(b"\x00" + instruction.name.encode("utf-8"))
    digest.update(b"\x01" + mode.encode("utf-8"))
    digest.update(b"\x02" + config.backend_name.encode("utf-8"))
    digest.update(b"\x03" + config.pipeline.encode("utf-8"))
    return digest.hexdigest()
