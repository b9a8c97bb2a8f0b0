"""``SolverConfig``: the one object that says how checks are solved.

Callers build one ``SolverConfig``; every solving entry point takes it
as ``config=`` (``None`` means ``SolverConfig()``) and passes it down
unchanged through ``synthesize_instruction``,
``synthesize_monolithic_solutions``, ``cegis_solve``,
``IncrementalContext`` and ``verify_design``.  No layer resolves it
again: a config always holds a concrete pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.smt.backends.registry import resolve_backend_name

__all__ = ["SolverConfig", "PIPELINES"]

#: The three pipelines, the default first.  ``"unfolded"`` is the
#: rewriter ablation: the fresh pipeline whose CEGIS verify asserts
#: ``hole == constant`` beside the unreduced formula instead of folding
#: the candidate in.
PIPELINES = ("incremental", "fresh", "unfolded")


@dataclass(frozen=True)
class SolverConfig:
    """How solver checks run, threaded unchanged everywhere.

    ``backend`` is a registered backend name, a live
    :class:`~repro.smt.backends.base.SolverBackend` instance, or ``None``
    (the process default — ``$REPRO_BACKEND`` or ``"inprocess"``).
    ``pipeline`` is one of :data:`PIPELINES`; anything else, ``None``
    included, raises.
    """

    backend: object = None
    pipeline: str = "incremental"

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; choose from "
                + ", ".join(PIPELINES))

    @property
    def backend_name(self):
        """The name this config's backend resolves to."""
        return resolve_backend_name(self.backend)
