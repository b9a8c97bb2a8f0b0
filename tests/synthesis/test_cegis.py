"""Unit tests for the CEGIS loop on hand-built ∃∀ formulas."""

import pytest

from repro.smt import terms as T
from repro.smt.backends import SolverConfig
from repro.synthesis.cegis import CegisStats, cegis_solve
from repro.synthesis.result import SynthesisFailure, SynthesisTimeout


def test_trivial_constant():
    # ∃h ∀x: (x & 0) == h   ->   h = 0
    h = T.bv_var("h", 8)
    x = T.bv_var("x", 8)
    formula = T.bv_eq(T.bv_and(x, T.bv_const(0, 8)), h)
    assert cegis_solve(formula, [h]) == {"h": 0}


def test_unique_solution_found():
    # ∃h ∀x: x + h == x + 5
    h = T.bv_var("h2", 8)
    x = T.bv_var("x2", 8)
    formula = T.bv_eq(T.bv_add(x, h), T.bv_add(x, T.bv_const(5, 8)))
    assert cegis_solve(formula, [h]) == {"h2": 5}


def test_mux_select_synthesis():
    # ∃s ∀a,b: ite(s, a, b) == a  ->  s = 1
    s = T.bv_var("s", 1)
    a = T.bv_var("a3", 8)
    b = T.bv_var("b3", 8)
    formula = T.bv_eq(T.bv_ite(s, a, b), a)
    assert cegis_solve(formula, [s]) == {"s": 1}


def test_multiple_holes():
    # ∃h1,h2 ∀x: (x ^ h1) + h2 == x + 12.  Two solutions exist (h1=0,h2=12
    # and h1=0x80,h2=0x8c, since x^0x80 == x+0x80 mod 256); accept either by
    # checking validity over sampled x.
    h1 = T.bv_var("m1", 8)
    h2 = T.bv_var("m2", 8)
    x = T.bv_var("x4", 8)
    formula = T.bv_eq(
        T.bv_add(T.bv_xor(x, h1), h2), T.bv_add(x, T.bv_const(12, 8))
    )
    solution = cegis_solve(formula, [h1, h2])
    for sample in range(256):
        env = {"x4": sample, **solution}
        assert T.evaluate(formula, env) == 1, (solution, sample)


def test_unsatisfiable_raises_failure():
    # ∃h ∀x: x + h == x * x has no constant solution.
    h = T.bv_var("h5", 4)
    x = T.bv_var("x5", 4)
    formula = T.bv_eq(T.bv_add(x, h), T.bv_mul(x, x))
    with pytest.raises(SynthesisFailure):
        cegis_solve(formula, [h])


def test_timeout_raises():
    h = T.bv_var("h6", 16)
    x = T.bv_var("x6", 16)
    formula = T.bv_eq(T.bv_mul(x, h), T.bv_mul(x, T.bv_const(777, 16)))
    with pytest.raises(SynthesisTimeout):
        cegis_solve(formula, [h], timeout=1e-9)


def test_iteration_budget_raises():
    h = T.bv_var("h7", 8)
    x = T.bv_var("x7", 8)
    formula = T.bv_eq(T.bv_add(x, h), T.bv_add(x, T.bv_const(200, 8)))
    with pytest.raises(SynthesisTimeout, match="iterations"):
        cegis_solve(formula, [h], max_iterations=1)


def test_stats_recorded():
    h = T.bv_var("h8", 8)
    x = T.bv_var("x8", 8)
    formula = T.bv_eq(T.bv_add(x, h), T.bv_add(x, T.bv_const(9, 8)))
    stats = CegisStats()
    cegis_solve(formula, [h], stats=stats)
    assert stats.iterations >= 1
    assert stats.verify_time >= 0
    assert "iterations" in stats.as_dict()


def test_initial_candidate_respected():
    h = T.bv_var("h9", 8)
    x = T.bv_var("x9", 8)
    formula = T.bv_eq(T.bv_add(x, h), T.bv_add(x, T.bv_const(3, 8)))
    stats = CegisStats()
    result = cegis_solve(formula, [h], initial_candidate={"h9": 3},
                         stats=stats)
    assert result == {"h9": 3}
    assert stats.iterations == 1  # first verify already succeeds


def test_partial_eval_off_agrees():
    # The rewriter ablation ("unfolded": no partial evaluation of the
    # candidate in the verify step) against the folded fresh verify.
    h = T.bv_var("h10", 4)
    x = T.bv_var("x10", 4)
    formula = T.bv_eq(T.bv_or(x, h), T.bv_or(x, T.bv_const(6, 4)))
    with_fold = cegis_solve(formula, [h],
                            config=SolverConfig(pipeline="fresh"))
    without_fold = cegis_solve(formula, [h],
                               config=SolverConfig(pipeline="unfolded"))
    # Both must produce *valid* solutions (6 or supersets indistinguishable
    # under or with x — here only 6 works since x ranges over everything).
    assert with_fold == without_fold == {"h10": 6}


def test_bare_cegis_solve_runs_the_default_incremental_pipeline():
    # A bare call takes SolverConfig(), as synthesize does: one guess
    # solver plus the formula's one persistent verifier.  The fresh
    # path would build a verifier per verify and per polish probe.
    h = T.bv_var("h12", 8)
    x = T.bv_var("x12", 8)
    formula = T.bv_eq(T.bv_add(x, h), T.bv_add(x, T.bv_const(5, 8)))
    stats = CegisStats()
    assert cegis_solve(formula, [h], stats=stats) == {"h12": 5}
    assert stats.solver_instances == 2


def test_formula_with_no_forall_vars():
    h = T.bv_var("h11", 4)
    formula = T.bv_eq(h, T.bv_const(11, 4))
    assert cegis_solve(formula, [h]) == {"h11": 11}
