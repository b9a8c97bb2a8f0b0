"""Tests for the SMT-LIB exporter and the facade's DIMACS export."""

import itertools
import re

from hypothesis import given, settings, strategies as st

from repro.smt import terms as T
from repro.smt.backends import BackendResult, SolverBackend
from repro.smt.smtlib import query_to_smtlib, to_smtlib
from repro.smt.solver import SAT, UNSAT, Solver


def test_smtlib_renders_basic_ops():
    x = T.bv_var("x", 8)
    y = T.bv_var("y", 8)
    text = to_smtlib(T.bv_add(x, y))
    assert text == "(bvadd x y)"
    assert to_smtlib(T.bv_const(5, 8)) == "(_ bv5 8)"
    assert "extract" in to_smtlib(T.bv_extract(x, 6, 2))
    assert to_smtlib(T.bv_eq(x, y)).startswith("(ite (= ")


def test_smtlib_quotes_exotic_names():
    v = T.bv_var("i0!hole!x", 4)
    assert to_smtlib(v) == "i0!hole!x"  # ! is a legal simple-symbol char
    v2 = T.bv_var("a b", 4)
    assert to_smtlib(v2) == "|a b|"


def test_query_script_structure():
    x = T.bv_var("qx", 8)
    script = query_to_smtlib(
        [T.bv_eq(x, T.bv_const(3, 8))], get_model=True
    )
    assert script.startswith("(set-logic QF_BV)")
    assert "(declare-const qx (_ BitVec 8))" in script
    assert "(assert (= " in script
    assert "(check-sat)" in script
    assert "(get-model)" in script


def test_query_declares_each_var_once():
    x = T.bv_var("dx", 8)
    script = query_to_smtlib([
        T.bv_eq(x, T.bv_const(1, 8)),
        T.bv_ne(x, T.bv_const(2, 8)),
    ])
    assert script.count("declare-const dx") == 1


@settings(max_examples=50, deadline=None)
@given(
    a=st.integers(min_value=0, max_value=255),
    b=st.integers(min_value=0, max_value=255),
)
def test_smtlib_export_covers_all_ops(a, b):
    x = T.bv_var("ex", 8)
    y = T.bv_var("ey", 8)
    builders = [
        T.bv_add, T.bv_sub, T.bv_mul, T.bv_and, T.bv_or, T.bv_xor,
        T.bv_udiv, T.bv_urem, T.bv_shl, T.bv_lshr, T.bv_ashr,
        T.bv_eq, T.bv_ult, T.bv_slt, T.bv_concat,
    ]
    for build in builders:
        text = to_smtlib(build(x, y))
        assert text.startswith("(")


# ---------------------------------------------------------------------------
# DIMACS: the CNF the facade ships to stateless backends
# ---------------------------------------------------------------------------


class CaptureBackend(SolverBackend):
    """Records the exported CNF; never answers."""

    name = "capture"
    cnf = None

    def check(self, cnf, assumptions=(), limits=None):
        self.cnf = cnf
        return BackendResult("unknown", reason="backend-error")


def _exported(assertions):
    backend = CaptureBackend()
    solver = Solver(backend=backend)
    solver.add_all(assertions)
    verdict = solver.check()
    return verdict, backend.cnf


def _brute_force_sat(cnf):
    for bits in itertools.product([0, 1], repeat=cnf.num_vars):
        if cnf.satisfied_by(dict(enumerate(bits, start=1))):
            return True
    return False


def test_dimacs_sat_agrees_with_solver():
    x = T.bv_var("dv", 4)
    cases = [
        ([T.bv_eq(x, T.bv_const(9, 4))], True),
        ([T.bv_ult(x, T.bv_const(3, 4)),
          T.bv_ugt(x, T.bv_const(12, 4))], False),
    ]
    for assertions, expected in cases:
        solver = Solver()
        solver.add_all(assertions)
        assert (solver.check() is SAT) == expected
        _, cnf = _exported(assertions)
        assert re.fullmatch(r"p cnf \d+ \d+", cnf.text().splitlines()[0])
        assert _brute_force_sat(cnf) == expected


def test_dimacs_trivial_assertions():
    # TRUE encodes to the empty CNF; FALSE never reaches the backend.
    _, cnf = _exported([T.TRUE])
    assert cnf.text() == "p cnf 0 0\n"
    verdict, cnf = _exported([T.FALSE])
    assert verdict is UNSAT
    assert cnf is None
