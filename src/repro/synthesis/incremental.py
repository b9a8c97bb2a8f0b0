"""The incremental synthesis pipeline: shared traces + encode-once CEGIS.

Three layers of waste in the fresh pipeline, and what replaces them:

1. **Shared traces.**  Fresh mode symbolically evaluates the sketch once
   *per instruction* under a per-instruction prefix (``i0!``, ``i1!`` ...),
   so N instructions cost N full evaluations whose differently-named
   variables defeat the hash-consing interner.  :class:`TraceCache`
   evaluates once per (sketch, cycles, const_mems) under one shared prefix
   and compiles every instruction's pre/postconditions against that single
   trace.

2. **Persistent folded verify.**  Fresh mode builds a brand-new verifier
   ``Solver`` per CEGIS iteration, re-blasting the formula and discarding
   all learned clauses.  :class:`IncrementalContext` keeps one verifier
   per *instruction formula* (``_folded_solver``) and stages each
   candidate's folded negation into it, guarded by a fresh selector
   literal (``assert_folded``); the check itself is a one-assumption
   solve.  Consecutive candidates fold into heavily overlapping AIG
   (the interner shares every untouched datapath region, so most SAT
   variables and Tseitin clauses already exist), and learned clauses
   over the shared regions carry across candidates.  A symbolic-hole
   variant — assert once with holes free, assume one literal per hole
   bit — was measured against this and retired: extending the
   assignment over the full symbolic cone costs more per check than
   the folded stage-plus-solve on every workload shape.  Polish
   probes are folded stages too, so a trial that folds to a constant
   needs no search.  Only minimization keeps a per-hole assumption
   scan: ``assert_scan`` stages a fold with a single hole left free,
   whose per-value checks are pure assumption solves with a reused
   trail prefix.  Retirement of a superseded instance (asserting its
   selector's negation) is deferred to the *next* staging on that
   formula, because retiring backtracks the shared core to level 0 and
   would destroy the SAT model a caller has yet to read.

3. **Encode-once plumbing.**  All per-formula verifiers share one
   verifier-side ``BitBlaster`` (and the context carries a shared
   guess-side one); cone-of-influence encoding in the solver facade
   makes the sharing sound *and* scoped — interned AIG regions common
   to several instructions are built once, yet each verifier's CNF (and
   therefore each SAT check's assignment) covers only its own
   instruction's cone.  A verifier is released when its formula's CEGIS
   run ends (:meth:`IncrementalContext.release`); only the AIGs and
   their ``var_bits`` outlive it.

Why one verifier per formula rather than one for all: a CDCL check must
extend its assignment to *every* variable in the solver, so a union
verifier pays O(total cones) of propagation per check no matter how
little changed — the per-check floor grows with instruction count and
swamps what assumption reuse saves.  Per-formula solvers keep each
check's universe at one instruction's cone while the shared blaster
keeps the encode-once economics.  UNSAT under the hole-bit assumptions
means the candidate is correct, while the solver (and its learned
clauses over the instruction's datapath) stays alive for the next
candidate.

Ackermann isolation: compiling an instruction's postconditions performs
fresh frame-address memory reads which append pairwise consistency side
conditions (the harvesting-order contract documented in
``per_instruction.instruction_formula``).  On a *shared* trace those reads
would accumulate across instructions, bloating every later formula with
other instructions' Ackermann pairs.  :class:`TraceEntry` therefore
snapshots each memory's read state before compiling an instruction and
restores it after, capturing exactly that instruction's side-condition
delta — each formula carries the evaluation-time conditions plus its own
fresh-read pairs, mirroring the fresh pipeline's formula shape.

Trace sharing is per-process: out-of-process backends (the sandboxed
``"incremental-subprocess"`` child, ``"subprocess-dimacs"`` solvers) keep
working because the symbolic evaluation, compilation and formula
construction all happen in the engine process — remote solvers still
receive plain clauses.
"""

from __future__ import annotations

from repro.ila.compiler import ConstraintCompiler
from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.oyster.memory import SymbolicMemory
from repro.oyster.symbolic import SymbolicEvaluator
from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.smt.bitblast import BitBlaster
from repro.smt.counters import COUNTERS
from repro.smt.solver import Solver
from repro.synthesis.preprocess import resolve_equalities

__all__ = [
    "TraceCache",
    "TraceEntry",
    "IncrementalContext",
    "candidate_assumptions",
]

#: The shared evaluation prefix (fresh mode uses ``i{index}!`` instead).
SHARED_PREFIX = "sh!"


class TraceEntry:
    """One shared symbolic evaluation plus per-instruction formulas.

    All instructions are compiled eagerly, in spec order, at construction
    time: compilation mutates the trace's memory read state, so doing it
    up front keeps formulas deterministic and leaves the entry read-only
    for every later consumer (per-instruction, monolithic, minimize).
    """

    def __init__(self, problem, prefix=SHARED_PREFIX):
        self.prefix = prefix
        evaluator = SymbolicEvaluator(
            problem.sketch, const_mems=problem.const_mems, prefix=prefix
        )
        self.trace = evaluator.run(problem.alpha.cycles)
        #: Evaluation-time Ackermann conditions, shared by every formula.
        self.base_conditions = tuple(self.trace.side_conditions)
        self.hole_names = {
            term.name for term in self.trace.hole_values.values()
            if term.is_var
        }
        self.compiled = {}
        self.deltas = {}
        self.formulas = {}
        arrays = self._uninterpreted_arrays()
        for instruction in problem.spec.instructions:
            self._compile_instruction(problem, instruction, arrays)

    def _uninterpreted_arrays(self):
        arrays = []
        for memory in self.trace.initial_mems.values():
            if isinstance(memory, SymbolicMemory):
                base = memory._base
                if all(base is not other for other in arrays):
                    arrays.append(base)
        return arrays

    def _compile_instruction(self, problem, instruction, arrays):
        """Compile one instruction with snapshot/restore read isolation.

        The compiler appends fresh frame-address reads to the shared
        memories; restoring ``_reads``/``_by_addr`` (and truncating the
        side-condition list) afterwards means the next instruction's
        fresh reads pair only against the evaluation-time reads, not
        against this instruction's.  Restoring also makes the fresh
        counter's names collide across instructions — deliberately so:
        the per-instruction formulas are separate ∃∀ queries, and the
        shared interned subterms are exactly what the encode-once
        verifier deduplicates.
        """
        trace = self.trace
        base_len = len(self.base_conditions)
        marks = [
            (array, len(array._reads), dict(array._by_addr))
            for array in arrays
        ]
        compiler = ConstraintCompiler(
            problem.spec, problem.alpha, trace, prefix=self.prefix
        )
        compiled = compiler.compile_instruction(instruction)
        delta = tuple(trace.side_conditions[base_len:])
        del trace.side_conditions[base_len:]
        for array, read_count, by_addr in marks:
            del array._reads[read_count:]
            array._by_addr.clear()
            array._by_addr.update(by_addr)

        side = T.and_(*self.base_conditions, *delta)
        antecedent = T.bv_and(side, compiled.antecedent())
        consequent = compiled.consequent()
        antecedent, consequent = resolve_equalities(
            antecedent, consequent, protected_names=self.hole_names
        )
        self.compiled[instruction.name] = compiled
        self.deltas[instruction.name] = delta
        self.formulas[instruction.name] = T.implies(antecedent, consequent)

    def hole_vars(self, sketch):
        """The shared hole variables, in sketch hole order."""
        return [self.trace.hole_values[hole.name] for hole in sketch.holes]


class TraceCache:
    """Caches :class:`TraceEntry` objects per (sketch, cycles, const_mems).

    Lives on the :class:`~repro.synthesis.problem.SynthesisProblem` (see
    ``SynthesisProblem.trace_cache``), so per-instruction synthesis,
    monolithic synthesis and control minimization over the same problem
    all reuse one symbolic evaluation.
    """

    def __init__(self):
        self._entries = {}
        self.hits = 0
        self.misses = 0

    def _key(self, problem):
        const_mems = tuple(
            sorted((name, id(mem)) for name, mem in problem.const_mems.items())
        )
        return (id(problem.sketch), problem.alpha.cycles, const_mems)

    def entry(self, problem):
        """The shared entry for ``problem``, building it on first use."""
        key = self._key(problem)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            COUNTERS.trace_cache_misses += 1
            _METRICS.inc("trace_cache.misses")
            with _obs.span("trace_cache.build",
                           cycles=problem.alpha.cycles):
                entry = TraceEntry(problem)
            self._entries[key] = entry
        else:
            self.hits += 1
            COUNTERS.trace_cache_hits += 1
            _METRICS.inc("trace_cache.hits")
            _obs.event("trace_cache.hit")
        return entry


class IncrementalContext:
    """Shared encode-once solver state for a run of CEGIS instances.

    Holds one folded verifier per instruction formula, all encoding
    against one shared verifier-side ``BitBlaster``, plus the shared
    guess-side blaster.  A context must be used serially: share one
    across a sequential per-instruction loop.

    A verifier lives for its formula's CEGIS run: ``cegis_solve`` calls
    :meth:`release` on every exit, which drops the verifier (and, under
    ``incremental-subprocess``, lets its child be reaped) and clears
    both blasters' term memos.  Only the two AIGs and their
    ``var_bits`` persist across instructions, so an interned datapath
    region blasts once per engine run, while peak memory follows the
    live instruction rather than the whole spec.

    ``config`` is a :class:`repro.smt.backends.SolverConfig` selecting
    the decision procedure; on a stateless backend each candidate check
    ships the verifier's clause log with the assumptions as unit clauses
    (the facade handles it), so the context stays correct — just without
    the learned-clause reuse that motivates it.
    """

    def __init__(self, config=None):
        self.config = config or SolverConfig()
        #: One AIG for every per-formula verifier: subterms interned
        #: across instructions blast once, while cone-of-influence
        #: encoding keeps each verifier's CNF scoped to its own formula.
        self.verifier_blaster = BitBlaster()
        self.guess_blaster = BitBlaster()
        self._folded = {}
        #: formula -> (instance key, live selector) for the one guarded
        #: instance currently staged on that formula's folded verifier.
        self._active = {}
        self._counter = 0

    def release(self, formula):
        """End ``formula``'s CEGIS run: drop its verifier and staged
        instance, and clear both blasters' term memos.

        Per-instruction queries never share a verifier (each formula
        gets its own), so no later run checks on what is dropped.  The
        AIGs and ``var_bits`` stay, so a term blasted again gets the
        literals it had and builds no node (see
        :meth:`BitBlaster.clear_memo`).  Releasing a formula that has no
        verifier only clears the memos.
        """
        self._folded.pop(formula, None)
        self._active.pop(formula, None)
        self.verifier_blaster.clear_memo()
        self.guess_blaster.clear_memo()

    def _folded_solver(self, formula):
        solver = self._folded.get(formula)
        if solver is None:
            solver = Solver(blaster=self.verifier_blaster,
                            backend=self.config.backend)
            self._folded[formula] = solver
        return solver

    def _stage(self, formula, key, substitution):
        """Stage one guarded instance of ``¬formula`` with ``substitution``
        folded in; retires the formula's previous instance first.

        Retirement is deferred to the *next* staging rather than done by
        the caller because retiring (a permanent ``¬selector`` assert)
        backtracks the shared core to level 0, which destroys the model
        of a SAT verdict the caller has not read yet.
        """
        solver = self._folded_solver(formula)
        active = self._active.get(formula)
        if active is not None:
            if active[0] == key:
                return solver, active[1]
            # Unit ¬selector satisfies the retired instance's root
            # clauses at level 0, so the core's between-solves
            # simplification deletes them; the shared Tseitin
            # definitions below stay for structure sharing.
            solver.add(T.bv_not(active[1]))
        self._counter += 1
        selector = T.bv_var(f"cegis!fold!{self._counter}", 1)
        solver.add(T.implies(selector,
                             T.bv_not(T.substitute(formula, substitution))))
        self._active[formula] = (key, selector)
        return solver, selector

    def assert_folded(self, formula, substitution):
        """Stage a candidate-folded instance of ``¬formula``; returns
        ``(solver, selector)`` — check under ``assumptions=[selector]``.

        Substituting the candidate's hole constants lets the term
        rewriter fold the unused datapath away — the same collapse the
        fresh pipeline gets per check — so verify queries run on a
        few-thousand-variable cone instead of the full symbolic-hole
        formula.  Unlike fresh, the solver is *persistent* per formula:
        consecutive candidates differ in a hole or two, so their folded
        instances share most interned AIG nodes — and therefore SAT
        variables — which keeps the encode delta small and lets learned
        clauses carry over between candidates (a repeat UNSAT proof is
        often conflict-free).  The staged instance is retired
        automatically when the next one is staged.
        """
        self._counter += 1
        return self._stage(formula, ("fold", self._counter), substitution)

    def assert_scan(self, formula, fixed_values, hole_by_name, free_name):
        """Stage ``¬formula`` folded over every hole except ``free_name``;
        returns ``(solver, selector)``.

        This is the per-hole scan primitive behind minimization: the
        fixed holes collapse the datapath as in :meth:`assert_folded`,
        but the scanned hole stays symbolic, so each trial value is a
        pure assumption check — ``[selector] +
        candidate_assumptions(...)`` — with zero new encoding.
        Consecutive probes share the selector and the scanned hole's low
        bits, which is exactly the assumption-prefix shape the core's
        trail reuse keeps.  Re-requesting the same scan (same
        formula, same fixed values, same free hole) returns the live
        instance instead of staging a new one.
        """
        key = ("scan", free_name,
               tuple(sorted((name, value)
                            for name, value in fixed_values.items()
                            if name != free_name)))
        substitution = {
            hole_by_name[name]: T.bv_const(value, hole_by_name[name].width)
            for name, value in fixed_values.items() if name != free_name
        }
        return self._stage(formula, key, substitution)


def candidate_assumptions(hole_by_name, candidate):
    """Per-bit assumption literals pinning a candidate's hole constants.

    ``hole_by_name`` maps names to hole variable terms and ``candidate``
    maps the same names to ints.  Extracting single bits of an
    already-blasted variable (and complementing them) creates no AIG
    nodes, so a candidate check is pure solving — zero encode cost.
    """
    assumptions = []
    for name, value in candidate.items():
        var = hole_by_name[name]
        for i in range(var.width):
            bit = T.bv_extract(var, i, i)
            if not (value >> i) & 1:
                bit = T.bv_not(bit)
            assumptions.append(bit)
    return assumptions
