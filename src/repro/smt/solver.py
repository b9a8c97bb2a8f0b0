"""Solver facade: assert width-1 terms, check satisfiability, read models.

Lowers terms through the bit-blaster into an AIG, Tseitin-encodes the cone
of each assertion into an incremental core, and exposes models as
assignments to term-level variables.  Re-asserting into the same solver
shares AIG structure across queries (the CEGIS guess solver relies on
this), and several solvers may share one ``BitBlaster`` — each encodes
only the cones it actually asserts, so a shared AIG never leaks clauses
between instances.

The *decision procedure* is pluggable (see ``repro.smt.backends``): the
facade is the only code that turns terms into CNF and SAT assignments
back into term-level models, and it delegates each check to a
:class:`~repro.smt.backends.base.SolverBackend`.  Incremental backends
(the default ``"inprocess"`` CDCL core) are fed clauses as assertions
arrive.  For stateless backends (external ``"subprocess-dimacs"``
solvers, the ``"portfolio"`` race) the same clauses go into a clause
log, and each check ships the log plus one unit clause per assumption
as a :class:`~repro.smt.dimacs.DimacsCnf`; the witness that comes back
is checked against that CNF before it is decoded.
"""

from __future__ import annotations

import time
import warnings

from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.runtime import faults as _faults
from repro.runtime.reasons import normalize_reason
from repro.smt.aig import FALSE_LIT, TRUE_LIT
from repro.smt.backends.base import CheckLimits, vet_witness
from repro.smt.backends.registry import resolve_backend
from repro.smt.bitblast import BitBlaster
from repro.smt.counters import COUNTERS
from repro.smt.dimacs import DimacsCnf
from repro.smt import terms as T

__all__ = [
    "Solver",
    "SolverResult",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "Unknown",
    "Model",
    "UnknownModelVariableWarning",
    "UnknownModelVariableError",
]

class SolverResult:
    """Tri-state solver verdict (a tiny enum with a readable repr).

    Verdicts compare equal by name, so a reason-carrying ``Unknown``
    instance satisfies ``verdict == UNKNOWN``.  ``SAT``/``UNSAT`` remain
    singletons (identity comparison keeps working for them).
    """

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, SolverResult) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __bool__(self):
        raise TypeError(
            "SolverResult is tri-state; compare against SAT/UNSAT/UNKNOWN"
        )


class Unknown(SolverResult):
    """An UNKNOWN verdict carrying *why* the solver gave up.

    ``reason`` is machine-readable and canonical (see
    ``repro.runtime.reasons``): ``"deadline"``, ``"conflicts"``,
    ``"memory"``, ``"injected"``, ``"backend-error"``, a classified
    child death (``"worker-crashed"``, ``"worker-oom"``, ...), or
    ``"unspecified"``.
    """

    __slots__ = ("reason",)

    def __init__(self, reason="unspecified"):
        super().__init__("unknown")
        self.reason = reason

    def __repr__(self):
        if self.reason == "unspecified":
            return "unknown"
        return f"unknown({self.reason})"


SAT = SolverResult("sat")
UNSAT = SolverResult("unsat")
UNKNOWN = Unknown()


class UnknownModelVariableWarning(UserWarning):
    """A model was queried for a variable the solver never blasted."""


class UnknownModelVariableError(KeyError):
    """Strict-mode version of :class:`UnknownModelVariableWarning`."""


class Model:
    """A satisfying assignment mapping term variables to ints."""

    def __init__(self, values, strict=False):
        self._values = dict(values)
        self._strict = strict
        self._warned = set()

    def value(self, var, default=0, warn=True):
        """Value of a variable, given a var term or a name.

        Variables the solver never saw (e.g. folded away by rewriting) are
        unconstrained; ``default`` (0) is as good a witness as any.  But an
        absent name is also what a typo'd hole name looks like, so the
        first query of each unknown name warns — or raises
        :class:`UnknownModelVariableError` when the model is strict.
        Internal callers that expect fold-away (CEGIS counterexample
        extraction) pass ``warn=False``.
        """
        name = var.name if isinstance(var, T.Term) else var
        if name not in self._values:
            if self._strict:
                raise UnknownModelVariableError(
                    f"variable {name!r} was never seen by the solver "
                    "(possible hole-name typo)"
                )
            if warn and name not in self._warned:
                self._warned.add(name)
                warnings.warn(
                    f"model queried for {name!r}, which the solver never "
                    f"saw; defaulting to {default} (possible hole-name typo"
                    " — construct the solver with strict_models=True to "
                    "raise instead)",
                    UnknownModelVariableWarning,
                    stacklevel=2,
                )
            return default
        return self._values[name]

    def __contains__(self, name):
        return name in self._values

    def as_dict(self):
        return dict(self._values)

    def __repr__(self):
        inner = ", ".join(
            f"{k}={v:#x}" for k, v in sorted(self._values.items())
        )
        return f"Model({inner})"


def _dimacs_lit(lit):
    """Internal literal ``2v`` / ``2v+1`` -> DIMACS ``v`` / ``-v``."""
    return -(lit >> 1) if lit & 1 else lit >> 1


class _ClauseLog:
    """The encoding target behind a stateless backend.

    Speaks the incremental core's clause-feeding interface, so
    ``_encode_cone`` cannot tell the two apart, but only records: each
    check ships :meth:`cnf` to the backend.  It also holds what the
    backend reports back for this solver — conflicts spent, the seed for
    the next check, and the last vetted witness.
    """

    def __init__(self):
        self.num_vars = 0
        self.clauses = []    # DIMACS literals
        self.conflicts = 0
        self.seed = None
        self.witness = {}

    def new_var(self):
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits):
        self.clauses.append([_dimacs_lit(lit) for lit in lits])

    def reseed(self, seed):
        self.seed = seed

    def assignment(self):
        return self.witness

    def cnf(self, assumptions):
        """The logged clauses plus one unit clause per assumption."""
        units = [[_dimacs_lit(lit)] for lit in assumptions]
        return DimacsCnf(self.num_vars, self.clauses + units)


class Solver:
    """An incremental QF_BV solver over the term language.

    ``strict_models=True`` makes extracted models raise on queries for
    variables that were never blasted (catching hole-name typos) instead
    of warning and defaulting to 0.

    ``backend`` selects the decision procedure: a registered backend name
    (``"inprocess"``, ``"incremental-subprocess"``, ``"subprocess-dimacs"``,
    ``"portfolio"``, or anything added via
    ``repro.smt.backends.register_backend``), a live
    :class:`~repro.smt.backends.base.SolverBackend` instance, or ``None``
    for the process default (``$REPRO_BACKEND`` or ``"inprocess"``).
    ``"incremental-subprocess"`` runs every check in a sandboxed child
    process, so a crash, hang or memory blow-up costs that child instead
    of the engine; faults surface as classified ``unknown`` verdicts
    (see ``repro.smt.backends.incremental_subprocess``).

    Every backend is fed the same cones by the same encoder, so encode
    counters are identical across backends.
    """

    def __init__(self, strict_models=False, blaster=None, backend=None):
        # ``blaster`` may be shared with other solvers: cone-of-influence
        # encoding means this instance only Tseitin-encodes (and allocates
        # SAT variables for) the AIG regions its own assertions reach.
        self._blaster = blaster if blaster is not None else BitBlaster()
        self._backend = resolve_backend(backend)
        # The encoding target: an incremental backend *is* the core; a
        # stateless backend is served from a clause log.
        if self._backend.supports_incremental:
            self._core = self._backend
        else:
            self._core = _ClauseLog()
        self._node_to_satvar = {}
        self._trivially_false = False
        self.strict_models = strict_models
        self._last_internals = {}     # solver work deltas of the last check
        self.stats = {"asserts": 0, "checks": 0, "clauses": 0}
        COUNTERS.solver_instances += 1

    @property
    def backend(self):
        """The configured :class:`SolverBackend` instance."""
        return self._backend

    @property
    def backend_name(self):
        return self._backend.name

    def add(self, term):
        """Assert that a width-1 term is 1."""
        if term.width != 1:
            raise ValueError(f"assertions must have width 1, got {term.width}")
        self.stats["asserts"] += 1
        lit = self._blaster.blast_bit(term)
        if lit == TRUE_LIT:
            return
        if lit == FALSE_LIT:
            self._trivially_false = True
            return
        self._encode_cone(lit)
        self._core.add_clause([self._to_sat_lit(lit)])

    def add_all(self, terms):
        for term in terms:
            self.add(term)

    def check(self, max_conflicts=None, timeout=None, budget=None,
              assumptions=()):
        """Check satisfiability; returns SAT/UNSAT/UNKNOWN.

        ``timeout`` is in seconds (wall clock) and bounds only this call.
        ``budget`` is an optional ``repro.runtime.Budget``: its remaining
        wall clock and conflicts tighten the per-call caps, the conflicts
        this call consumes are charged back to it, and its memory cap is
        polled at the SAT core's checkpoints.  A pre-exhausted budget
        raises ``BudgetExhausted`` before any solving starts.

        ``assumptions`` is an iterable of width-1 terms held true for
        *this call only*: nothing is asserted permanently, so an UNSAT
        verdict means "unsatisfiable under these assumptions" and the
        solver (including its learned clauses) stays usable for the next
        check.  This is the encode-once/solve-many primitive the
        incremental CEGIS verify mode is built on.  Stateless backends
        get the assumptions as unit clauses on that check's CNF only.

        An UNKNOWN verdict is an :class:`Unknown` instance whose
        ``reason`` names the exhausted cap (``"deadline"``,
        ``"conflicts"``, ``"memory"``), a backend failure
        (``"backend-error"``, a classified child death such as
        ``"worker-crashed"``, a stateless SAT whose witness falsifies
        the CNF as ``"malformed-model"``), or ``"injected"`` under fault
        injection.

        When a :class:`repro.obs.Tracer` is installed, every check —
        including assumption-based incremental checks and out-of-process
        backend checks — emits a ``solver.check`` provenance event
        carrying the query kind (the enclosing span), clause/variable
        counts, conflicts consumed, the verdict, wall time, the backend
        that actually served the query, and the owning span id, so a run
        is fully reconstructible post-hoc.  Wall time is always charged
        to the ``solver.check`` latency histogram in
        :data:`repro.obs.metrics.METRICS`; with no tracer (the default)
        that plus one global read is the whole wrapper cost.
        """
        tracer = _obs.active_tracer()
        if tracer is None:
            started = time.monotonic()
            try:
                return self._check(max_conflicts, timeout, budget,
                                   assumptions)
            finally:
                _METRICS.observe("solver.check",
                                 time.monotonic() - started)
        started = time.monotonic()
        conflicts_before = self.conflicts
        verdict = None
        try:
            verdict = self._check(max_conflicts, timeout, budget,
                                  assumptions)
            return verdict
        finally:
            _METRICS.observe("solver.check", time.monotonic() - started)
            if verdict is None:
                result, reason = "raised", ""
            else:
                result = verdict.name
                reason = getattr(verdict, "reason", "") or ""
                if reason == "unspecified":
                    reason = ""
            internals = self._last_internals
            tracer.event(
                "solver.check",
                kind=tracer.current_span_name(),
                result=result,
                reason=reason,
                wall=time.monotonic() - started,
                conflicts=self.conflicts - conflicts_before,
                clauses=len(self._core.clauses),
                vars=self._core.num_vars,
                asserts=self.stats["asserts"],
                assumptions=len(assumptions)
                if hasattr(assumptions, "__len__") else -1,
                backend=self._backend.name,
                # Solver internals, mirroring what _check charged to
                # repro.smt.counters for this check — the obs report
                # reconciles the two exactly.
                propagations=internals.get("propagations", 0),
                restarts=internals.get("restarts", 0),
                learned=internals.get("learned", 0),
                deleted=internals.get("deleted", 0),
                trail_reuse_hits=internals.get("trail_reuse_hits", 0),
                trail_reuse_levels_saved=internals.get(
                    "trail_reuse_levels_saved", 0),
                chrono_backtracks=internals.get("chrono_backtracks", 0),
            )

    def _check(self, max_conflicts=None, timeout=None, budget=None,
               assumptions=()):
        self.stats["checks"] += 1
        self._last_internals = {}
        injector = _faults.active_injector()
        if injector is not None:
            injected_reason = injector.on_check()
            if injected_reason is not None:
                return Unknown(normalize_reason(injected_reason))
        if self._trivially_false:
            return UNSAT
        sat_assumptions = []
        for term in assumptions:
            if term.width != 1:
                raise ValueError(
                    f"assumptions must have width 1, got {term.width}"
                )
            lit = self._blaster.blast_bit(term)
            if lit == TRUE_LIT:
                continue
            if lit == FALSE_LIT:
                # Constant-false assumption: UNSAT for this call only.
                return UNSAT
            self._encode_cone(lit)
            sat_assumptions.append(self._to_sat_lit(lit))
        deadline = None if timeout is None else time.monotonic() + timeout
        if budget is not None:
            budget.check()
            remaining = budget.remaining_time()
            if remaining is not None:
                budget_deadline = time.monotonic() + remaining
                if deadline is None or budget_deadline < deadline:
                    deadline = budget_deadline
            budget_conflicts = budget.remaining_conflicts()
            if budget_conflicts is not None and (
                max_conflicts is None or budget_conflicts < max_conflicts
            ):
                max_conflicts = budget_conflicts
        limits = CheckLimits(max_conflicts=max_conflicts, deadline=deadline,
                             budget=budget)
        backend = self._backend
        if backend.supports_incremental:
            result = backend.check(None, sat_assumptions, limits)
        else:
            log = self._core
            limits.seed, log.seed = log.seed, None
            cnf = log.cnf(sat_assumptions)
            result = vet_witness(cnf, backend.check(cnf, (), limits))
            log.conflicts += result.conflicts
            log.witness = result.assignment or {}
        if budget is not None:
            budget.charge_conflicts(result.conflicts)
        if result.internals:
            internals = result.internals
            self._last_internals = internals
            COUNTERS.sat_propagations += internals.get("propagations", 0)
            COUNTERS.sat_restarts += internals.get("restarts", 0)
            COUNTERS.sat_learned += internals.get("learned", 0)
            COUNTERS.sat_deleted += internals.get("deleted", 0)
            COUNTERS.sat_trail_reuse_hits += internals.get(
                "trail_reuse_hits", 0)
            COUNTERS.sat_trail_reuse_levels_saved += internals.get(
                "trail_reuse_levels_saved", 0)
            COUNTERS.sat_chrono_backtracks += internals.get(
                "chrono_backtracks", 0)
        if result.verdict == "sat":
            return SAT
        if result.verdict == "unsat":
            return UNSAT
        return Unknown(normalize_reason(result.reason))

    def model(self):
        """Extract the model after a SAT check."""
        assignment = self._core.assignment()
        values = {}
        for name, bits in self._blaster.var_bits.items():
            value = 0
            for i, lit in enumerate(bits):
                bit = self._aig_lit_value(lit, assignment)
                value |= bit << i
            values[name] = value
        injector = _faults.active_injector()
        if injector is not None:
            values = injector.on_model(values)
        return Model(values, strict=self.strict_models)

    @property
    def conflicts(self):
        """Total SAT conflicts this solver has spent (monotonic).

        Includes conflicts spent on our behalf by stateless backends
        (external solvers, portfolio members), so CEGIS statistics and
        budget accounting are backend-agnostic.
        """
        return self._core.conflicts

    def reseed(self, seed):
        """Deterministically perturb the decision order (retry escalation).

        For stateless backends the seed rides along on the next check
        request, where it perturbs the remote solver the same way.
        """
        self._core.reseed(seed)

    # ------------------------------------------------------------------

    def _aig_lit_value(self, lit, assignment):
        node = lit >> 1
        if node == 0:
            value = 0
        else:
            sat_var = self._node_to_satvar.get(node)
            value = assignment.get(sat_var, 0) if sat_var is not None else 0
        return value ^ (lit & 1)

    def _to_sat_lit(self, aig_lit):
        node = aig_lit >> 1
        sat_var = self._node_to_satvar[node]
        return 2 * sat_var + (aig_lit & 1)

    def _encode_cone(self, root_lit):
        """Tseitin-encode the cone of ``root_lit`` (children first).

        Cone-of-influence encoding — rather than sweeping every AIG node
        created since the last assertion — is what makes a *shared*
        blaster sound: each solver allocates SAT variables and emits
        defining clauses only for the regions its own assertions (or
        assumptions) reach, regardless of what other solvers built into
        the same AIG in between.  Nodes already encoded by this instance
        are reused, so re-asserting shared structure costs nothing.
        """
        aig = self._blaster.aig
        sat = self._core
        node_to_satvar = self._node_to_satvar
        left_of = aig.left
        right_of = aig.right
        root = root_lit >> 1
        if root == 0 or root in node_to_satvar:
            return
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node in node_to_satvar:
                continue
            left = left_of[node]
            if left == -1:
                node_to_satvar[node] = sat.new_var()  # primary input
                continue
            right = right_of[node]
            if not expanded:
                stack.append((node, True))
                for child_lit in (left, right):
                    child = child_lit >> 1
                    if child and child not in node_to_satvar:
                        stack.append((child, False))
                continue
            sat_var = sat.new_var()
            node_to_satvar[node] = sat_var
            out = 2 * sat_var
            a = self._to_sat_lit(left)
            b = self._to_sat_lit(right)
            # out <-> a & b
            sat.add_clause([out ^ 1, a])
            sat.add_clause([out ^ 1, b])
            sat.add_clause([out, a ^ 1, b ^ 1])
            self.stats["clauses"] += 3
            COUNTERS.tseitin_clauses += 3
