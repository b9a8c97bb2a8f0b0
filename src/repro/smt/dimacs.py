"""DIMACS CNF export/import of solver instances.

Lets any bit-blasted query be archived, replayed on an external SAT
solver, or shipped to a sandboxed worker process (the
``repro.runtime.workers`` wire format).  The variable comment header maps
term-level variable bits to DIMACS variables, so a SAT verdict on the CNF
can be decoded back into term-level model values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.smt.aig import FALSE_LIT, TRUE_LIT
from repro.smt.bitblast import BitBlaster
from repro.smt.counters import COUNTERS

__all__ = ["to_dimacs", "from_dimacs", "solve_dimacs", "DimacsCnf"]


def to_dimacs(assertions):
    """CNF text for the conjunction of width-1 terms (Tseitin over an AIG)."""
    blaster = BitBlaster()
    roots = [blaster.blast_bit(term) for term in assertions]
    aig = blaster.aig
    clauses = []
    num_vars = len(aig) - 1  # node index == DIMACS variable

    def lit(aig_lit):
        node = aig_lit >> 1
        sign = -1 if (aig_lit & 1) else 1
        return sign * node

    # Constant-true variable if any root or operand is constant.
    const_var = None

    def const_lit(value):
        nonlocal const_var, num_vars
        if const_var is None:
            num_vars += 1
            const_var = num_vars
            clauses.append([const_var])
        return const_var if value else -const_var

    for node in range(1, len(aig)):
        left = aig.left[node]
        if left == -1:
            continue
        right = aig.right[node]
        out = node
        a = lit(left) if left >> 1 else const_lit(1 - (left & 1))
        b = lit(right) if right >> 1 else const_lit(1 - (right & 1))
        clauses.append([-out, a])
        clauses.append([-out, b])
        clauses.append([out, -a, -b])
    for root in roots:
        if root == TRUE_LIT:
            continue
        if root == FALSE_LIT:
            clauses.append([const_lit(1)])
            clauses.append([-const_lit(1)])
            continue
        clauses.append([lit(root)])

    # Exported clauses are encode work too: stateless-backend checks
    # re-blast and re-encode per call, and the counters must reflect that
    # honestly.
    COUNTERS.tseitin_clauses += len(clauses)

    lines = ["c generated by repro.smt.dimacs"]
    for name, bits in sorted(blaster.var_bits.items()):
        mapping = " ".join(str(b >> 1) for b in bits)
        lines.append(f"c var {name} bits {mapping}")
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


@dataclass
class DimacsCnf:
    """A parsed DIMACS instance plus the term-variable bit mapping.

    ``var_bits`` maps each term-level variable name to the DIMACS
    variables of its bits, LSB first (the ``c var`` header emitted by
    :func:`to_dimacs`).
    """

    num_vars: int
    clauses: list
    var_bits: dict = field(default_factory=dict)

    def model_values(self, assignment):
        """Decode a DIMACS assignment ``{var: 0/1}`` into term values.

        Variables the solver left unassigned are unconstrained; 0 is as
        good a witness as any (matching ``Solver.model``'s convention).
        """
        values = {}
        for name, bits in self.var_bits.items():
            value = 0
            for i, var in enumerate(bits):
                value |= (assignment.get(var, 0) & 1) << i
            values[name] = value
        return values


def from_dimacs(text):
    """Parse DIMACS text (as produced by :func:`to_dimacs`) back into a
    :class:`DimacsCnf`.

    Tolerates plain DIMACS from other tools: ``c var`` headers are
    optional, clauses may span until their ``0`` terminator, and variables
    beyond the ``p cnf`` declaration grow the instance.
    """
    num_vars = 0
    clauses = []
    var_bits = {}
    pending = []
    saw_problem = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            body = line[1:].strip()
            if body.startswith("var "):
                name, _, bits = body[len("var "):].partition(" bits ")
                if name and bits:
                    var_bits[name] = tuple(int(b) for b in bits.split())
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
    return DimacsCnf(num_vars=num_vars, clauses=clauses, var_bits=var_bits)


def solve_dimacs(cnf, max_conflicts=None, deadline=None, budget=None,
                 seed=None, solver=None, cancel=None):
    """Replay a DIMACS instance on a fresh :class:`SatSolver`.

    ``cnf`` is a :class:`DimacsCnf` or raw DIMACS text.  Returns
    ``(verdict, values, conflicts)`` where ``verdict`` is ``"sat"``,
    ``"unsat"`` or ``"unknown"`` (with the solver's ``stop_reason``
    appended as ``"unknown:<reason>"``), ``values`` maps term-level
    variable names to ints for SAT verdicts, and ``conflicts`` is the
    number of conflicts spent.  ``cancel`` (a ``threading.Event``) stops
    the replay cooperatively (``"unknown:cancelled"``).  This is both the
    offline replay path and the one-shot CDCL behind the portfolio's
    trusted member.
    """
    from repro.smt.sat.solver import SatSolver

    if isinstance(cnf, str):
        cnf = from_dimacs(cnf)
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
    return "sat", cnf.model_values(solver.model()), solver.conflicts
