"""Backend registry: names to factories, and the resolution rules.

``resolve_backend`` is the single place a backend *name* becomes a live
:class:`~repro.smt.backends.base.SolverBackend` instance.  Everything
above the solver facade deals in names (CLI flags, ``SolverConfig``,
Table 1 rows, obs events); everything below deals in instances.

Registering a custom backend is the extension point every future
"drop in a real solver" PR uses::

    from repro.smt.backends import SolverBackend, register_backend

    class MyBackend(SolverBackend):
        name = "my-solver"
        def check(self, cnf, assumptions=(), limits=None): ...

    register_backend("my-solver", MyBackend, cls=MyBackend)

after which ``backend="my-solver"`` works everywhere a backend name is
accepted — ``Solver``, ``synthesize``, ``run_full_eval.py --backend``.

The default backend is ``"inprocess"``, overridable process-wide with the
``REPRO_BACKEND`` environment variable (how CI's backend-matrix lane runs
an unmodified test subset under ``subprocess-dimacs``).
"""

from __future__ import annotations

import os

from repro.smt.backends.base import SolverBackend

__all__ = [
    "register_backend",
    "resolve_backend",
    "resolve_backend_name",
    "available_backends",
    "backend_capabilities",
    "default_backend_name",
    "BACKEND_ENV",
]

#: Environment variable naming the process-wide default backend.
BACKEND_ENV = "REPRO_BACKEND"

#: name -> (factory() -> SolverBackend, class-for-introspection)
_REGISTRY = {}


def register_backend(name, factory, cls=None, replace=False):
    """Register ``factory`` under ``name``.

    ``factory`` is called with no arguments and must return a
    :class:`SolverBackend`.  ``cls`` (optional) lets
    :func:`backend_capabilities` report the capability flag without
    instantiating — needed for backends whose construction probes the
    environment (e.g. subprocess-dimacs scanning PATH).
    """
    if not replace and name in _REGISTRY:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[name] = (factory, cls)


def available_backends():
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def backend_capabilities():
    """``{name: {"supports_incremental": bool}}`` for every registered
    backend."""
    table = {}
    for name, (_factory, cls) in _REGISTRY.items():
        flags = cls if cls is not None else SolverBackend
        table[name] = {
            "supports_incremental": bool(flags.supports_incremental),
        }
    return table


def default_backend_name():
    """The process default: ``$REPRO_BACKEND`` or ``"inprocess"``."""
    return os.environ.get(BACKEND_ENV) or "inprocess"


def resolve_backend_name(spec):
    """The backend *name* ``spec`` resolves to (no instantiation)."""
    if spec is None:
        return default_backend_name()
    if isinstance(spec, SolverBackend):
        return spec.name
    return str(spec)


def resolve_backend(spec):
    """Resolve ``spec`` into a live backend instance.

    ``spec`` may be ``None`` (the process default), a registered name, or
    an already-constructed :class:`SolverBackend` (returned as-is, so
    callers can share one stateless instance — e.g. one configured
    external solver — across many solvers).
    """
    if isinstance(spec, SolverBackend):
        return spec
    name = resolve_backend_name(spec)
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown solver backend {name!r}; registered: "
            f"{', '.join(available_backends())}"
        )
    factory, _cls = entry
    return factory()


# -- built-in backends ----------------------------------------------------

def _register_builtins():
    from repro.smt.backends.incremental_subprocess import (
        IncrementalSubprocessBackend,
    )
    from repro.smt.backends.inprocess import InProcessBackend
    from repro.smt.backends.portfolio import PortfolioBackend, shared_portfolio
    from repro.smt.backends.subprocess_dimacs import SubprocessDimacsBackend

    register_backend("inprocess", InProcessBackend, cls=InProcessBackend)
    register_backend("subprocess-dimacs", SubprocessDimacsBackend,
                     cls=SubprocessDimacsBackend)
    register_backend("incremental-subprocess", IncrementalSubprocessBackend,
                     cls=IncrementalSubprocessBackend)
    # A shared instance, not a fresh one per Solver: the health ledger
    # (EWMA latencies, quarantine state) must survive across the many
    # short-lived solvers one synthesis run creates.
    register_backend("portfolio", shared_portfolio, cls=PortfolioBackend)


_register_builtins()
