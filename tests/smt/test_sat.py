"""Tests for the CDCL SAT core, including differential tests vs brute force."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt.sat.solver import SatSolver, _luby


def _lit(v, positive):
    return 2 * v + (0 if positive else 1)


def _make_solver(num_vars, clauses):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    ok = True
    for clause in clauses:
        ok = solver.add_clause(list(clause)) and ok
    return solver, ok


def _brute_force(num_vars, clauses):
    for bits in itertools.product([0, 1], repeat=num_vars):
        assignment = dict(enumerate(bits, start=1))
        if all(
            any(
                assignment[lit >> 1] == (1 - (lit & 1)) for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False


def test_luby_sequence_prefix():
    assert [_luby(i) for i in range(15)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8
    ]


def test_empty_formula_is_sat():
    solver = SatSolver()
    assert solver.solve() is True


def test_unit_clauses_propagate():
    solver, ok = _make_solver(2, [[_lit(1, True)], [_lit(2, False)]])
    assert ok and solver.solve() is True
    model = solver.model()
    assert model[1] == 1 and model[2] == 0


def test_direct_contradiction_unsat():
    solver, ok = _make_solver(1, [[_lit(1, True)], [_lit(1, False)]])
    assert not ok or solver.solve() is False


def test_simple_implication_chain():
    # (x1 -> x2), (x2 -> x3), x1, !x3 is UNSAT
    clauses = [
        [_lit(1, False), _lit(2, True)],
        [_lit(2, False), _lit(3, True)],
        [_lit(1, True)],
        [_lit(3, False)],
    ]
    solver, ok = _make_solver(3, clauses)
    assert not ok or solver.solve() is False


def test_tautological_clause_ignored():
    solver, ok = _make_solver(2, [[_lit(1, True), _lit(1, False)]])
    assert ok and solver.solve() is True


def test_duplicate_literals_deduplicated():
    solver, ok = _make_solver(1, [[_lit(1, True), _lit(1, True)]])
    assert ok and solver.solve() is True
    assert solver.model()[1] == 1


def test_pigeonhole_3_into_2_unsat():
    # p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
    def var(i, j):
        return i * 2 + j + 1

    clauses = []
    for i in range(3):
        clauses.append([_lit(var(i, 0), True), _lit(var(i, 1), True)])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                clauses.append(
                    [_lit(var(i1, j), False), _lit(var(i2, j), False)]
                )
    solver, ok = _make_solver(6, clauses)
    assert not ok or solver.solve() is False


def test_assumptions_sat_and_unsat():
    # x1 | x2
    solver, ok = _make_solver(2, [[_lit(1, True), _lit(2, True)]])
    assert solver.solve(assumptions=[_lit(1, True)]) is True
    assert solver.solve(assumptions=[_lit(1, False), _lit(2, False)]) is False
    # solver state recovers
    assert solver.solve() is True


def test_incremental_additions():
    solver, _ = _make_solver(3, [[_lit(1, True), _lit(2, True)]])
    assert solver.solve() is True
    solver.add_clause([_lit(1, False)])
    assert solver.solve() is True
    assert solver.model()[2] == 1
    solver.add_clause([_lit(2, False)])
    assert solver.solve() is False


def test_conflict_budget_returns_none():
    # A hard-ish random instance; with a 1-conflict budget we expect None
    # (unknown) unless it solves without conflicts.
    random.seed(7)
    num_vars = 50
    clauses = [
        [
            _lit(random.randrange(1, num_vars + 1), random.random() < 0.5)
            for _ in range(3)
        ]
        for _ in range(220)
    ]
    solver, ok = _make_solver(num_vars, clauses)
    if ok:
        verdict = solver.solve(max_conflicts=1)
        assert verdict in (None, True, False)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_random_3sat_matches_brute_force(data):
    num_vars = data.draw(st.integers(min_value=1, max_value=8))
    num_clauses = data.draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        size = data.draw(st.integers(min_value=1, max_value=3))
        clause = [
            _lit(
                data.draw(st.integers(min_value=1, max_value=num_vars)),
                data.draw(st.booleans()),
            )
            for _ in range(size)
        ]
        clauses.append(clause)
    solver, ok = _make_solver(num_vars, clauses)
    expected = _brute_force(num_vars, clauses)
    if not ok:
        assert expected is False
        return
    verdict = solver.solve()
    assert verdict is expected
    if verdict:
        model = solver.model()
        # Model must satisfy every clause (free vars default-checked too).
        for clause in clauses:
            assert any(
                model.get(lit >> 1, 0) == (1 - (lit & 1)) for lit in clause
            )


def test_reduce_db_never_drops_reason_clauses():
    # Regression for the locked-set bug: reason[] stores -1 for decisions
    # and level-0 facts; a reduction pass that treats -1 as a clause index
    # (or skips locking entirely) deletes a clause some trail literal
    # still depends on, and the next _analyze walks a None.
    solver = SatSolver()
    for _ in range(8):
        solver.new_var()
    indices = []
    for v in range(1, 7):
        clause = [_lit(v, True), _lit(v + 1, False)]
        ci = len(solver.clauses)
        solver.clauses.append(clause)
        solver.learned.add(ci)
        solver.lbd[ci] = 10          # local tier: first to be dropped
        solver.activity_cl[ci] = float(v)
        indices.append(ci)
    # Make the *lowest-activity* candidate the reason for a literal on a
    # decision level — exactly the clause an unlocked reduction would
    # drop first.
    locked_ci = indices[0]
    solver.trail_lim.append(len(solver.trail))
    assert solver._enqueue(_lit(1, True), locked_ci)
    solver._reduce_limit = 1
    solver._reduce_db()
    assert solver.clauses[locked_ci] is not None
    assert locked_ci in solver.learned
    # The pass still reduced: unlocked clauses were actually dropped.
    assert solver.deleted_total > 0
    dropped = [ci for ci in indices if solver.clauses[ci] is None]
    assert locked_ci not in dropped and dropped


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_constant_reduction_pressure_stays_sound(data):
    # Force a DB reduction at every opportunity (limit 1) so the locked
    # set is exercised mid-search, then check the verdict is still right.
    num_vars = data.draw(st.integers(min_value=4, max_value=8))
    clauses = []
    for _ in range(4 * num_vars):
        clause = [
            _lit(
                data.draw(st.integers(min_value=1, max_value=num_vars)),
                data.draw(st.booleans()),
            )
            for _ in range(3)
        ]
        clauses.append(clause)
    solver, ok = _make_solver(num_vars, clauses)
    expected = _brute_force(num_vars, clauses)
    if not ok:
        assert expected is False
        return
    solver._reduce_limit = 1
    assert solver.solve() is expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trail_reusing_solver_matches_fresh_per_call(data):
    # The incremental contract: one persistent solver answering a sequence
    # of assumption solves (keeping learned clauses and reused trail
    # prefixes across calls) must agree, call by call, with a fresh solver
    # built from scratch for the same query — and its SAT models must
    # satisfy both the clauses and the assumptions.
    num_vars = data.draw(st.integers(min_value=2, max_value=8))
    num_clauses = data.draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(num_clauses):
        size = data.draw(st.integers(min_value=1, max_value=3))
        clauses.append([
            _lit(
                data.draw(st.integers(min_value=1, max_value=num_vars)),
                data.draw(st.booleans()),
            )
            for _ in range(size)
        ])
    persistent, ok = _make_solver(num_vars, clauses)
    num_solves = data.draw(st.integers(min_value=1, max_value=6))
    for _ in range(num_solves):
        assumptions = [
            _lit(
                data.draw(st.integers(min_value=1, max_value=num_vars)),
                data.draw(st.booleans()),
            )
            for _ in range(data.draw(st.integers(min_value=0,
                                                 max_value=num_vars)))
        ]
        fresh, fresh_ok = _make_solver(num_vars, clauses)
        assert fresh_ok is ok
        if not ok:
            return
        expected = fresh.solve(assumptions=assumptions)
        got = persistent.solve(assumptions=assumptions)
        assert got is expected
        if got:
            model = persistent.model()
            for clause in clauses:
                assert any(
                    model.get(lit >> 1, 0) == (1 - (lit & 1))
                    for lit in clause
                )
            for lit in assumptions:
                assert model[lit >> 1] == (1 - (lit & 1))
    # Reuse stats only ever move forward; they never invent levels.
    assert persistent.trail_reuse_levels >= 0
    assert persistent.trail_reuse_hits <= num_solves


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_is_repeatable(data):
    num_vars = data.draw(st.integers(min_value=1, max_value=6))
    clauses = [
        [
            _lit(
                data.draw(st.integers(min_value=1, max_value=num_vars)),
                data.draw(st.booleans()),
            )
            for _ in range(2)
        ]
        for _ in range(10)
    ]
    solver, ok = _make_solver(num_vars, clauses)
    if not ok:
        return
    first = solver.solve()
    second = solver.solve()
    assert first is second


# -- the search itself is pinned ------------------------------------------
#
# The core's hot path is tuned under one rule: a rewrite may take fewer
# Python steps but must not change a single decision.  These seeded runs
# pin, per solve, the verdict, the conflict count and every internals()
# counter; a change that reorders the trail, learns a different clause
# or deletes a different one moves at least one of them.  The values were
# recorded on the core before its hot-path rewrite.

_INTERNALS = ("propagations", "decisions", "restarts", "learned", "deleted",
              "simplified", "trail_reuse_hits", "trail_reuse_levels_saved",
              "chrono_backtracks")


def _random_lits(rng, num_vars, width):
    return [2 * rng.randrange(1, num_vars + 1) + rng.randrange(2)
            for _ in range(width)]


_UNIT = "unit"


def _pinned_run(seed, num_vars, ratio, steps, reduce_limit=None):
    """Run a seeded script of solves and unit additions on one solver.

    ``steps`` holds ``_UNIT`` (add a random unit clause, a level-0 fact
    arriving between solves) or ``(depth, max_conflicts)`` (solve under
    ``depth`` assumptions that keep a random prefix of the previous
    solve's).  Returns one ``(verdict, conflicts, *internals)`` row per
    solve.
    """
    rng = random.Random(seed)
    clauses = [_random_lits(rng, num_vars, 3)
               for _ in range(int(num_vars * ratio))]
    solver, _ = _make_solver(num_vars, clauses)
    if reduce_limit is not None:
        solver._reduce_limit = reduce_limit
    rows = []
    previous = []
    for step in steps:
        if step == _UNIT:
            solver.add_clause(_random_lits(rng, num_vars, 1))
            continue
        depth, max_conflicts = step
        assumptions = previous[:rng.randrange(len(previous) + 1)][:depth]
        used = {lit >> 1 for lit in assumptions}
        fresh = [v for v in rng.sample(range(1, num_vars + 1), depth)
                 if v not in used]
        assumptions += [2 * v + rng.randrange(2)
                        for v in fresh[:depth - len(assumptions)]]
        previous = assumptions
        verdict = solver.solve(assumptions, max_conflicts=max_conflicts)
        internals = solver.internals()
        rows.append((verdict, solver.conflicts)
                    + tuple(internals[key] for key in _INTERNALS))
    return rows


#: name -> (seed, num_vars, clause ratio, steps, extra) for ``_pinned_run``
_PINNED_SCENARIOS = {
    # Assumption solves that share prefixes (trail reuse), with level-0
    # units arriving in between (simplification, lost reuse).
    "trail_reuse_and_units": (
        8, 120, 3.6,
        [(6, None), (6, None), (6, None), _UNIT, _UNIT, (0, None),
         (6, None), (6, None), _UNIT, (6, None)], {}),
    # Reduction at every restart, as in the pressure test above, after a
    # conflict-budgeted solve that stops with an unknown verdict.
    "reduce_pressure": (
        7, 100, 4.26, [(0, 300), (0, None), (3, None), (3, None)],
        {"reduce_limit": 1}),
    # 100-deep assumption stacks: backjumps longer than _CHRONO_LIMIT
    # levels turn into chronological backtracks.
    "deep_assumptions": (13, 300, 2.0, [(100, None)] * 4, {}),
}

#: the counters each scenario is there to drive
_EXERCISES = {
    "trail_reuse_and_units": ("trail_reuse_hits", "simplified"),
    "reduce_pressure": ("restarts", "deleted"),
    "deep_assumptions": ("trail_reuse_hits", "chrono_backtracks"),
}

#: per solve: (verdict, conflicts, *internals in _INTERNALS order)
_PINNED_ROWS = {
    "trail_reuse_and_units": [
        (True, 210, 7499, 256, 1, 210, 0, 0, 0, 0, 0),
        (True, 219, 7939, 278, 1, 219, 0, 0, 1, 1, 0),
        (True, 309, 11011, 396, 1, 309, 0, 0, 2, 4, 0),
        (True, 331, 11874, 452, 1, 331, 0, 29, 2, 4, 0),
        (False, 352, 12661, 474, 1, 352, 0, 29, 2, 4, 0),
        (True, 390, 13742, 542, 1, 390, 0, 29, 3, 9, 0),
        (True, 390, 13840, 554, 1, 390, 0, 48, 3, 9, 0),
    ],
    "reduce_pressure": [
        (None, 300, 9165, 360, 2, 300, 160, 0, 0, 0, 0),
        (True, 324, 10035, 398, 2, 324, 160, 30, 0, 0, 0),
        (True, 324, 10116, 412, 2, 324, 160, 60, 0, 0, 0),
        (True, 324, 10197, 426, 2, 324, 160, 60, 1, 3, 0),
    ],
    "deep_assumptions": [
        (False, 2, 60, 0, 0, 2, 0, 0, 0, 0, 1),
        (False, 4, 65, 0, 0, 4, 0, 0, 1, 32, 2),
        (False, 5, 70, 0, 0, 5, 0, 0, 2, 61, 2),
        (False, 6, 78, 0, 0, 6, 0, 0, 3, 110, 2),
    ],
}


@pytest.mark.parametrize("name", sorted(_PINNED_SCENARIOS))
def test_seeded_search_is_pinned(name):
    seed, num_vars, ratio, steps, extra = _PINNED_SCENARIOS[name]
    rows = _pinned_run(seed, num_vars, ratio, steps, **extra)
    assert rows == _PINNED_ROWS[name]
    final = dict(zip(_INTERNALS, rows[-1][2:]))
    assert all(final[key] > 0 for key in _EXERCISES[name])
