"""Property tests: the CNF the facade exports to stateless backends.

A stateless backend sees only the facade's clause log plus one unit
clause per assumption, as a :class:`DimacsCnf`, and answers with a raw
assignment that the facade decodes.  These tests pin that contract
exhaustively at small width: the exported CNF is satisfiable exactly
when the assertion evaluates to 1 under the pinned inputs, and the
decoded model gives back the pinned inputs.  Any encoder change (a
gate-aware Tseitin pass, say) must keep them green.
"""

import itertools
import operator
from functools import reduce

from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.backends import BackendResult, SolverBackend
from repro.smt.dimacs import DimacsCnf, from_dimacs, solve_dimacs
from repro.smt.solver import Solver, SAT, UNSAT

_OPS = [T.bv_add, T.bv_sub, T.bv_mul, T.bv_and, T.bv_or, T.bv_xor,
        T.bv_shl, T.bv_lshr]
_RELS = [T.bv_eq, T.bv_ne, T.bv_ult, T.bv_ugt, T.bv_ule, T.bv_slt]


class ReplayBackend(SolverBackend):
    """A stateless backend that solves each exported CNF with
    ``solve_dimacs`` and keeps the CNF and the replay verdict."""

    name = "replay"

    def __init__(self):
        self.cnf = None
        self.verdict = None

    def check(self, cnf, assumptions=(), limits=None):
        self.cnf = cnf
        self.verdict, assignment, conflicts = solve_dimacs(cnf)
        if self.verdict != "sat":
            assignment = None
        return BackendResult(self.verdict, conflicts=conflicts,
                             assignment=assignment)


def _exported(assertions):
    """The CNF the facade ships for ``assertions`` (``None`` if it folds
    to FALSE and never reaches the backend)."""
    backend = ReplayBackend()
    solver = Solver(backend=backend)
    solver.add_all(assertions)
    solver.check()
    return backend.cnf


def test_exported_cnf_agrees_with_evaluation():
    x = T.bv_var("x", 2)
    y = T.bv_var("y", 2)
    checks = exported = 0
    for op, rel, const in itertools.product(_OPS, _RELS, range(4)):
        assertion = rel(op(x, y), T.bv_const(const, 2))
        backend = ReplayBackend()
        solver = Solver(backend=backend)
        solver.add(assertion)
        for a, b in itertools.product(range(4), repeat=2):
            backend.verdict = None
            expected = T.evaluate(assertion, {"x": a, "y": b})
            verdict = solver.check(assumptions=[
                T.bv_eq(x, T.bv_const(a, 2)),
                T.bv_eq(y, T.bv_const(b, 2)),
            ])
            checks += 1
            context = (op.__name__, rel.__name__, const, a, b)
            assert verdict is (SAT if expected else UNSAT), context
            if backend.verdict is None:
                # Folded to FALSE before any CNF existed.
                assert not expected, context
                continue
            exported += 1
            assert backend.verdict == ("sat" if expected else "unsat"), \
                context
            if expected:
                model = solver.model()
                assert (model.value(x), model.value(y)) == (a, b), context
    assert checks == 192 * 16
    assert exported > checks // 2


@settings(max_examples=30, deadline=None)
@given(value=st.integers(0, 255))
def test_model_bits_decode_lsb_first(value):
    x = T.bv_var("x", 8)
    solver = Solver(backend=ReplayBackend())
    solver.add(T.bv_eq(x, T.bv_const(value, 8)))
    assert solver.check() is SAT
    assert solver.model().value(x) == value


def test_from_dimacs_round_trips_header():
    x = T.bv_var("rt", 5)
    cnf = _exported([T.bv_ugt(x, T.bv_const(17, 5))])
    assert isinstance(cnf, DimacsCnf)
    assert cnf.text().startswith(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    assert from_dimacs(cnf.text()) == cnf


def test_from_dimacs_tolerates_foreign_instances():
    # Plain DIMACS with comments and multi-line clauses.
    cnf = from_dimacs("c some other tool\np cnf 3 2\n1 -2\n0\n2 3 0\n")
    assert cnf.num_vars == 3
    assert cnf.clauses == [[1, -2], [2, 3]]
    verdict, assignment, _ = solve_dimacs(cnf)
    assert verdict == "sat"
    assert cnf.satisfied_by(assignment)


def test_satisfied_by_checks_every_clause():
    cnf = DimacsCnf(num_vars=2, clauses=[[1, 2], [-1]])
    assert cnf.satisfied_by({1: 0, 2: 1})
    assert not cnf.satisfied_by({1: 1, 2: 1})
    assert not cnf.satisfied_by({})  # omitted variables read as 0
    assert DimacsCnf(num_vars=0, clauses=[]).satisfied_by({})


def test_solve_dimacs_reports_conflict_cap():
    # A hard instance under an absurdly small conflict cap must come back
    # unknown with the exhausted cap named, mirroring Solver.check.
    xs = [T.bv_var(f"p{i}", 8) for i in range(4)]
    product = reduce(operator.mul, xs[1:], xs[0])
    cnf = _exported([
        T.bv_eq(product, T.bv_const(251, 8)),
        T.bv_ne(xs[0], T.bv_const(1, 8)),
    ])
    verdict, assignment, conflicts = solve_dimacs(cnf, max_conflicts=1)
    if verdict.startswith("unknown"):
        assert verdict == "unknown:conflicts"
        assert assignment == {}
    assert conflicts >= 0
