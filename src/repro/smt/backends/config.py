"""``SolverConfig``: the one object that says how checks are solved.

Callers build one ``SolverConfig`` (or pass just ``backend="..."``); the
engine resolves it *once* at its boundary, and the resolved object rides
down the stack through ``synthesize_instruction``,
``synthesize_monolithic_solutions``, ``cegis_solve``,
``IncrementalContext`` and ``verify_design``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace

from repro.smt.backends.registry import resolve_backend_name

__all__ = ["SolverConfig", "resolve_solver_config"]


@dataclass(frozen=True)
class SolverConfig:
    """How solver checks run, resolved once and threaded everywhere.

    ``backend`` is a registered backend name, a live
    :class:`~repro.smt.backends.base.SolverBackend` instance, or ``None``
    (the process default — ``$REPRO_BACKEND`` or ``"inprocess"``).
    ``pipeline`` is ``"fresh"``/``"incremental"`` or ``None`` for the
    engine default.
    """

    backend: object = None
    pipeline: str = None

    @property
    def backend_name(self):
        """The name this config's backend resolves to."""
        return resolve_backend_name(self.backend)

    def solver_kwargs(self):
        """Keyword arguments for ``Solver(...)`` under this config."""
        return {"backend": self.backend}

    def replace(self, **changes):
        """A copy with ``changes`` applied (configs are frozen)."""
        return _dc_replace(self, **changes)


def resolve_solver_config(config=None, *, backend=None):
    """Fold the ``backend=`` shorthand into one :class:`SolverConfig`.

    Passing ``config`` *and* ``backend`` is a contradiction and raises —
    a config is supposed to be resolved exactly once.
    """
    if config is not None:
        if backend is not None:
            raise ValueError(
                "pass either config= or backend=, not both")
        return config
    return SolverConfig(backend=backend)
