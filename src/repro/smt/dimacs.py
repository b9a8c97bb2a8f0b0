"""DIMACS CNF: the facade's own clause log, in the form backends receive.

The ``Solver`` facade is the only code that turns terms into CNF.  For a
stateless backend it records its Tseitin clauses and, on every check,
hands the backend that log plus one unit clause per assumption as a
:class:`DimacsCnf`.  ``subprocess-dimacs`` writes :meth:`DimacsCnf.text`
to its solver's input file; in-process backends read ``clauses``
directly.  The backend's answer is a raw ``{var: 0/1}`` assignment,
which the facade checks with :meth:`DimacsCnf.satisfied_by` and decodes
into term-level values itself.

:func:`from_dimacs` parses DIMACS text (the bundled fake solver reads its
input with it) and :func:`solve_dimacs` replays an instance on a fresh
CDCL core.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["from_dimacs", "solve_dimacs", "DimacsCnf"]


@dataclass
class DimacsCnf:
    """A CNF instance: a variable count and clauses of signed literals."""

    num_vars: int
    clauses: list

    def text(self):
        """The instance as DIMACS text."""
        lines = [f"p cnf {self.num_vars} {len(self.clauses)}"]
        lines.extend(" ".join(map(str, clause)) + " 0"
                     for clause in self.clauses)
        return "\n".join(lines) + "\n"

    def satisfied_by(self, assignment):
        """Whether ``{var: 0/1}`` satisfies every clause.

        Variables the assignment omits count as 0, the value the facade
        decodes them to.
        """
        for clause in self.clauses:
            for lit in clause:
                if (assignment.get(abs(lit), 0) == 1) == (lit > 0):
                    break
            else:
                return False
        return True


def from_dimacs(text):
    """Parse DIMACS text into a :class:`DimacsCnf`.

    Comment lines are skipped, clauses may span until their ``0``
    terminator, and variables beyond the ``p cnf`` declaration grow the
    instance.
    """
    num_vars = 0
    clauses = []
    pending = []
    saw_problem = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"malformed DIMACS problem line: {line!r}")
            num_vars = int(fields[2])
            saw_problem = True
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(pending)
                pending = []
                continue
            num_vars = max(num_vars, abs(lit))
            pending.append(lit)
    if pending:
        clauses.append(pending)
    if not saw_problem and not clauses:
        raise ValueError("no DIMACS problem line or clauses found")
    return DimacsCnf(num_vars=num_vars, clauses=clauses)


def solve_dimacs(cnf, max_conflicts=None, deadline=None, budget=None,
                 seed=None, solver=None, cancel=None):
    """Replay a :class:`DimacsCnf` on a fresh :class:`SatSolver`.

    Returns ``(verdict, assignment, conflicts)`` where ``verdict`` is
    ``"sat"``, ``"unsat"`` or ``"unknown"`` (with the solver's
    ``stop_reason`` appended as ``"unknown:<reason>"``), ``assignment``
    is the raw ``{var: 0/1}`` model for SAT verdicts (empty otherwise),
    and ``conflicts`` is the number of conflicts spent.  ``cancel`` (a
    ``threading.Event``) stops the replay cooperatively
    (``"unknown:cancelled"``).  This is the one-shot CDCL behind the
    portfolio's trusted member.
    """
    from repro.smt.sat.solver import SatSolver

    if solver is None:
        solver = SatSolver()
    while solver.num_vars < cnf.num_vars:
        solver.new_var()
    for clause in cnf.clauses:
        # DIMACS literal v / -v -> internal literal 2v / 2v+1.
        solver.add_clause([2 * abs(l) + (1 if l < 0 else 0) for l in clause])
    if seed is not None:
        solver.reseed(seed)
    verdict = solver.solve(max_conflicts=max_conflicts, deadline=deadline,
                           budget=budget, cancel=cancel)
    if verdict is None:
        return f"unknown:{solver.stop_reason or 'unspecified'}", {}, \
            solver.conflicts
    if not verdict:
        return "unsat", {}, solver.conflicts
    return "sat", solver.model(), solver.conflicts
