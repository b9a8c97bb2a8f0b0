"""A CDCL SAT solver.

Implements the standard modern recipe: two-literal watching, first-UIP clause
learning with local minimization, VSIDS decision ordering with phase saving,
Luby restarts, and glucose-style LBD-tiered learned-clause database
reduction.  Literal encoding: for variable ``v`` (1-based) the positive
literal is ``2*v`` and the negative literal is ``2*v + 1``; ``lit ^ 1``
negates.

The solver is incremental in the "add clauses, solve, add more, solve again"
sense, and supports solving under assumptions *MiniSat-style*: each
assumption occupies its own decision level (level ``i + 1`` holds
``assumptions[i]``), placed in one batched pass and propagated together.
Because levels align with assumption indices, consecutive
``solve(assumptions=...)`` calls that share an assumption prefix reuse the
trail: the solver backtracks only to the first divergent assumption level
instead of level 0, so the propagation work for the shared prefix — in the
encode-once CEGIS verifier, the selector literal plus most hole bits —
survives across queries.  ``trail_reuse_hits`` / ``trail_reuse_levels``
count the savings.

Learned clauses are tagged with their LBD (literal block distance — the
number of distinct decision levels among their literals, computed at
learning time).  Reduction keeps three tiers: *core* clauses (LBD <= 2)
are never deleted, *mid* clauses (LBD 3..6) go only when the *local* tier
(LBD >= 7) cannot fill the deletion quota, ranked by activity within each
tier.  The reduction threshold grows geometrically instead of sitting at a
fixed size, and deleted clauses are unhooked lazily — ``_propagate`` drops
stale watch entries as it traverses them — so a reduction costs time
proportional to the clauses it deletes, not to every watch list in the
database.  Between solves, the clause database is simplified against the
level-0 trail: satisfied clauses are dropped and falsified literals
stripped.

``solve`` can be bounded by a conflict budget, a wall-clock deadline, a
memory-capped ``repro.runtime.Budget``, and/or a ``threading.Event``
cancellation token — returning ``None`` (unknown) when exhausted, with
``stop_reason`` set to ``"conflicts"``, ``"deadline"``, ``"memory"`` or
``"cancelled"``.  This is how the reproduction implements the paper's
synthesis timeouts and how portfolio races stop losing in-process members.

Cancellation is cooperative and checked at three checkpoints — every
propagation batch, every few conflicts, and every few decisions — so a
budget expiry is observed promptly (target: well under 100ms of overshoot)
instead of only every 128 conflicts.

The hot path is written for the interpreter: ``_propagate`` works on
locals, assigns implied literals inline, writes a clause only when its
other watch does not satisfy it and skips the replacement scan for binary
clauses; the decision heap keeps a per-variable position list and its pop
and insert are inlined where they run; ``_simplify`` tests each clause
against only the level-0 facts fixed since its last pass.  Such rewrites
obey one rule: the search stays bit-identical — the same trail order,
conflicts, learned clauses, LBDs and models — which
``tests/smt/test_sat.py::test_seeded_search_is_pinned`` and
``tests/eval/test_pipeline_counters.py::test_default_search_is_pinned``
pin.  A technique that changes a decision (blocker literals, binary
implication lists, VMTF) is a different search and is measured as one.
"""

from __future__ import annotations

import random
import time

__all__ = ["SatSolver"]

_UNASSIGNED = -1

# Cancellation checkpoint strides.  Smaller is more responsive, larger is
# cheaper; these keep deadline overshoot in the low milliseconds for
# pure-python solving speeds while adding <1% overhead.
_PROPAGATION_CHECK_MASK = 1023   # poll the clock every 1024 propagations
_CONFLICT_CHECK_MASK = 7         # ... every 8 conflicts
_DECISION_CHECK_MASK = 31        # ... every 32 decisions
_MEMORY_CHECK_MASK = 255         # poll the memory cap every 256 conflicts

# Learned-clause tiers by LBD (glucose-style): core clauses are never
# deleted, local clauses go first, mid clauses only fill a remaining quota.
_CORE_LBD = 2
_MID_LBD = 6
# Reduction trigger: starts at the historical fixed threshold and grows
# geometrically with every reduction, so the database is allowed to get
# larger as the instance proves it needs one.
_REDUCE_BASE = 2000
_REDUCE_GROWTH = 1.15

# Weak chronological backtracking (Nadel & Ryvchin, SAT'18): a backjump
# unwinding more than this many levels backtracks a single level instead.
# On the big mostly-satisfiable verify queries of the synthesis pipeline,
# a deep backjump throws away (and immediately re-derives) thousands of
# datapath propagations; chronological backtracking keeps them.  The
# learned clause is still asserting at any level at or above its computed
# backjump level, so enqueueing its asserting literal one level down is
# sound — and because literals are always stamped with the level they are
# *placed* at, the trail stays level-monotonic and conflict analysis
# needs no out-of-order machinery.
_CHRONO_LIMIT = 64


def _luby(x):
    """The Luby restart sequence, 0-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    def __init__(self):
        self.clauses = []           # clause lists; None marks a deleted slot
        self.learned = set()        # indices into self.clauses that are learned
        self.activity_cl = {}       # clause index -> activity
        self.lbd = {}               # clause index -> LBD at learning time
        self.watches = [[], []]     # lit -> clause indices (lit 0/1 unused)
        self.assign = [_UNASSIGNED]  # var -> 0/1/_UNASSIGNED
        self.phase = [0]
        self.level = [0]
        self.reason = [-1]
        self.activity = [0.0]
        self.trail = []
        self.trail_lim = []
        self.propagated = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.cla_inc = 1.0
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_total = 0     # clauses ever learned (incl. units)
        self.deleted_total = 0     # learned clauses dropped by reduction
        self.simplified_total = 0  # clauses dropped by level-0 simplification
        self.trail_reuse_hits = 0    # solves that kept >=1 assumption level
        self.trail_reuse_levels = 0  # assumption levels kept across solves
        self.chrono_backtracks = 0   # deep backjumps converted to 1-level
        self.stop_reason = None   # why the last solve returned None
        self.profile = None       # optional phase-wall dict (enable_profiling)
        self._deadline = None     # active only inside solve()
        self._cancel = None       # cooperative cancellation event
        self._stop_flag = None    # set by _propagate on deadline expiry
        self._heap = []
        self._heap_pos = [-1]         # var -> heap index, -1 when absent
        self._seen = bytearray(1)     # persistent _analyze scratch (per var)
        self._last_assumptions = []   # previous solve's assumption vector
        self._n_assume = 0            # assumption count of the active solve
        self._reduce_limit = _REDUCE_BASE
        self._simplified_at = 0       # level-0 trail size at last _simplify

    # -- variable / clause management -----------------------------------

    def new_var(self):
        self.assign.append(_UNASSIGNED)
        self.phase.append(0)
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.watches.append([])
        self.watches.append([])
        self._seen.append(0)
        var = len(self.assign) - 1
        # A fresh variable's activity (0.0) never exceeds its parent's, so
        # inserting it is an append: the sift-up would stop at once.
        self._heap_pos.append(len(self._heap))
        self._heap.append(var)
        return var

    @property
    def num_vars(self):
        return len(self.assign) - 1

    def add_clause(self, lits):
        """Add a clause of literals; returns False if the formula is UNSAT."""
        if not self.ok:
            return False
        if self.trail_lim:
            self._backtrack(0)
        assign = self.assign
        clause = []
        for lit in lits:
            value = assign[lit >> 1]
            if value == _UNASSIGNED:
                # Only unassigned literals enter ``clause``, and Tseitin
                # clauses are 2-3 literals long: membership in the clause
                # itself finds duplicates and tautologies.
                if lit in clause:
                    continue
                if lit ^ 1 in clause:
                    return True  # tautology
                clause.append(lit)
            elif value != (lit & 1):
                return True  # already satisfied at level 0
            # else: falsified at level 0; drop the literal
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            self._enqueue(clause[0], -1)
            self.ok = self._propagate() == -1
            return self.ok
        index = len(self.clauses)
        self.clauses.append(clause)
        self.watches[clause[0]].append(index)
        self.watches[clause[1]].append(index)
        return True

    # -- assignment helpers ----------------------------------------------

    def _lit_value(self, lit):
        value = self.assign[lit >> 1]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value ^ (lit & 1)

    def _enqueue(self, lit, reason):
        value = self._lit_value(lit)
        if value == 0:
            return False
        if value == 1:
            return True
        var = lit >> 1
        self.assign[var] = 1 - (lit & 1)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = self.assign[var]
        self.trail.append(lit)
        return True

    def _decision_level(self):
        return len(self.trail_lim)

    def _backtrack(self, target_level):
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        trail = self.trail
        limit = trail_lim[target_level]
        assign = self.assign
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        # ``reason`` is left stale: nothing reads it for an unassigned
        # variable, and the next enqueue overwrites it.
        for lit in trail[limit:]:
            var = lit >> 1
            assign[var] = _UNASSIGNED
            if pos[var] == -1:
                i = len(heap)
                heap.append(var)
                key = activity[var]
                while i > 0:
                    parent = (i - 1) >> 1
                    above = heap[parent]
                    if activity[above] >= key:
                        break
                    heap[i] = above
                    pos[above] = i
                    i = parent
                heap[i] = var
                pos[var] = i
        del trail[limit:]
        del trail_lim[target_level:]
        if self.propagated > limit:
            self.propagated = limit

    # -- propagation -------------------------------------------------------

    def _propagate(self):
        """Unit propagation; returns conflicting clause index or -1.

        The watched literals of a clause are ``clause[0]`` and
        ``clause[1]``.  A visit through ``false_lit`` first reads the other
        watch; when it satisfies the clause nothing is written.  Otherwise
        the clause is normalized to ``[other, false_lit, ...]`` before the
        replacement scan, so a reason or conflict clause always carries
        the order of its last visit: its implied (or first) literal at
        position 0.  Binary clauses have no replacement to scan for.
        """
        clauses = self.clauses
        watches = self.watches
        assign = self.assign
        level = self.level
        reason = self.reason
        phase = self.phase
        trail = self.trail
        decision_level = len(self.trail_lim)
        polling = self._deadline is not None or self._cancel is not None
        propagations = self.propagations
        head = self.propagated
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watch_list = watches[false_lit]
            i = 0
            j = 0
            n = len(watch_list)
            while i < n:
                ci = watch_list[i]
                i += 1
                clause = clauses[ci]
                if clause is None:
                    # A clause deleted by reduction/simplification: drop the
                    # stale entry by not copying it (lazy watch cleanup).
                    continue
                other = clause[0]
                if other == false_lit:
                    other = clause[1]
                    if assign[other >> 1] == ((other & 1) ^ 1):  # satisfied
                        watch_list[j] = ci
                        j += 1
                        continue
                    clause[0] = other
                    clause[1] = false_lit
                elif assign[other >> 1] == ((other & 1) ^ 1):  # satisfied
                    watch_list[j] = ci
                    j += 1
                    continue
                if len(clause) > 2:
                    moved = False
                    for k in range(2, len(clause)):
                        lit = clause[k]
                        if assign[lit >> 1] != (lit & 1):  # not false
                            clause[1] = lit
                            clause[k] = false_lit
                            watches[lit].append(ci)
                            moved = True
                            break
                    if moved:
                        continue
                watch_list[j] = ci
                j += 1
                propagations += 1
                if (polling
                        and (propagations & _PROPAGATION_CHECK_MASK) == 0
                        and (flag := self._interrupt_flag()) is not None):
                    # Deadline or cancellation observed mid-propagation:
                    # keep the unscanned entries and bail out; the solve
                    # loop converts the flag into an unknown verdict.
                    # Rewind the queue so this trail literal is fully
                    # reprocessed if solving resumes later (rescanning the
                    # already-moved entries is safe).
                    del watch_list[j:i]
                    self._stop_flag = flag
                    self.propagations = propagations
                    self.propagated = head - 1
                    return -1
                var = other >> 1
                if assign[var] != _UNASSIGNED:
                    # ``other`` is false: conflict.  Keep the rest of the
                    # watch list intact.
                    del watch_list[j:i]
                    self.propagations = propagations
                    self.propagated = head
                    return ci
                value = (other & 1) ^ 1
                assign[var] = value
                level[var] = decision_level
                reason[var] = ci
                phase[var] = value
                trail.append(other)
            del watch_list[j:]
        self.propagations = propagations
        self.propagated = head
        return -1

    # -- clause learning ----------------------------------------------------

    def _analyze(self, conflict):
        """First-UIP learning; returns (learned clause, backtrack level, LBD)."""
        learned = [0]  # placeholder for the asserting literal
        seen = self._seen
        touched = []
        counter = 0
        lit = -1
        index = len(self.trail) - 1
        clause_index = conflict
        current_level = self._decision_level()
        level = self.level
        while True:
            clause = self.clauses[clause_index]
            self._bump_clause(clause_index)
            start = 0 if lit == -1 else 1
            for reason_lit in clause[start:]:
                var = reason_lit >> 1
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = 1
                touched.append(var)
                self._bump_var(var)
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(reason_lit)
            while True:
                lit = self.trail[index]
                index -= 1
                if seen[lit >> 1]:
                    break
            counter -= 1
            if counter == 0:
                break
            clause_index = self.reason[lit >> 1]
            seen[lit >> 1] = 0
        learned[0] = lit ^ 1
        self._minimize(learned, seen)
        # LBD at learning time: distinct decision levels among the literals
        # (glucose).  Computed before the backjump, while levels are fresh.
        lbd = len({level[l >> 1] for l in learned})
        for var in touched:
            seen[var] = 0
        if len(learned) == 1:
            back_level = 0
        else:
            # Second-highest decision level among learned literals.
            max_index = 1
            for k in range(2, len(learned)):
                if level[learned[k] >> 1] > level[learned[max_index] >> 1]:
                    max_index = k
            learned[1], learned[max_index] = learned[max_index], learned[1]
            back_level = level[learned[1] >> 1]
        return learned, back_level, lbd

    def _minimize(self, learned, seen):
        """Drop literals implied by the rest of the clause (local check)."""
        kept = [learned[0]]
        for lit in learned[1:]:
            reason = self.reason[lit >> 1]
            if reason == -1:
                kept.append(lit)
                continue
            clause = self.clauses[reason]
            for other in clause:
                var = other >> 1
                if other != (lit ^ 1) and not seen[var] and self.level[var] > 0:
                    kept.append(lit)
                    break
        learned[:] = kept

    def _record_learned(self, learned, lbd):
        self.learned_total += 1
        if len(learned) == 1:
            self._enqueue(learned[0], -1)
            return
        index = len(self.clauses)
        self.clauses.append(learned)
        self.learned.add(index)
        self.activity_cl[index] = self.cla_inc
        self.lbd[index] = lbd
        self.watches[learned[0]].append(index)
        self.watches[learned[1]].append(index)
        self._enqueue(learned[0], index)

    # -- activity ------------------------------------------------------------

    def _bump_var(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        i = self._heap_pos[var]
        if i != -1:
            self._heap_sift_up(i)

    def _bump_clause(self, index):
        if index in self.learned:
            self.activity_cl[index] = self.activity_cl.get(index, 0.0) + self.cla_inc

    def _decay(self):
        self.var_inc /= self.var_decay
        self.cla_inc /= 0.999

    # -- decision heap (max-heap on activity) --------------------------------

    def _heap_sift_up(self, i):
        heap = self._heap
        activity = self.activity
        pos = self._heap_pos
        item = heap[i]
        key = activity[item]
        while i > 0:
            parent = (i - 1) >> 1
            if activity[heap[parent]] >= key:
                break
            heap[i] = heap[parent]
            pos[heap[i]] = i
            i = parent
        heap[i] = item
        pos[item] = i

    def _pick_branch_var(self):
        """Pop the most active unassigned variable (0 when none is left).

        Assigned variables stay in the heap until they surface here, so
        each pop moves the last entry to the root and sifts it down.
        """
        heap = self._heap
        pos = self._heap_pos
        activity = self.activity
        assign = self.assign
        while heap:
            top = heap[0]
            last = heap.pop()
            pos[top] = -1
            size = len(heap)
            if size:
                key = activity[last]
                i = 0
                while True:
                    child = 2 * i + 1
                    if child >= size:
                        break
                    best = heap[child]
                    best_key = activity[best]
                    if child + 1 < size:
                        right = heap[child + 1]
                        if activity[right] > best_key:
                            best = right
                            best_key = activity[right]
                            child += 1
                    if best_key <= key:
                        break
                    heap[i] = best
                    pos[best] = i
                    i = child
                heap[i] = last
                pos[last] = i
            if assign[top] == _UNASSIGNED:
                return top
        return 0

    # -- learned clause DB reduction ------------------------------------------

    def _delete_clause(self, index):
        """Unhook one clause; watch entries are cleaned lazily by
        ``_propagate``, so deletion is O(1) per clause."""
        self.clauses[index] = None
        self.learned.discard(index)
        self.activity_cl.pop(index, None)
        self.lbd.pop(index, None)

    def _reduce_db(self):
        if len(self.learned) < self._reduce_limit:
            return
        # Clauses that are the reason for a current assignment must
        # survive (the -1 entries are decisions, not clause indices).
        reason = self.reason
        locked = set()
        for lit in self.trail:
            r = reason[lit >> 1]
            if r != -1:
                locked.add(r)
        lbd = self.lbd
        activity = self.activity_cl
        local = []
        mid = []
        for ci in self.learned:
            if ci in locked:
                continue
            tier = lbd.get(ci, _MID_LBD + 1)
            if tier <= _CORE_LBD:
                continue  # core tier: kept forever
            (local if tier > _MID_LBD else mid).append(ci)
        target = len(self.learned) // 2
        local.sort(key=lambda ci: activity.get(ci, 0.0))
        drop = local[:target]
        if len(drop) < target:
            mid.sort(key=lambda ci: activity.get(ci, 0.0))
            drop.extend(mid[: target - len(drop)])
        # Geometric growth: every reduction earns a larger database, so
        # reduction frequency amortizes as the instance scales.
        self._reduce_limit = int(self._reduce_limit * _REDUCE_GROWTH) + 1
        if not drop:
            return
        for ci in drop:
            self._delete_clause(ci)
        self.deleted_total += len(drop)

    # -- level-0 simplification ----------------------------------------------

    def _simplify(self):
        """Simplify the clause database against the level-0 trail.

        Runs between solves, only when new level-0 facts arrived since the
        last pass: satisfied clauses are dropped outright and falsified
        literals stripped from the rest (at positions >= 2 only, so the
        watch invariants survive untouched — after propagation reached its
        level-0 fixpoint, no surviving clause watches a false literal).

        Only the facts fixed since the last pass can touch a surviving
        clause: older ones were dealt with by that pass, ``add_clause``
        drops level-0 literals and learned clauses never contain them.
        """
        if self.trail_lim or not self.ok:
            return
        trail = self.trail
        fresh = trail[self._simplified_at:]
        if not fresh:
            return
        reason = self.reason
        for lit in fresh:
            reason[lit >> 1] = -1  # level-0 facts need no reason clause
        true_lits = set(fresh)
        fixed_lits = true_lits.union([lit ^ 1 for lit in fresh])
        for ci, clause in enumerate(self.clauses):
            if clause is None or fixed_lits.isdisjoint(clause):
                continue
            if not true_lits.isdisjoint(clause):
                self._delete_clause(ci)
                self.simplified_total += 1
                continue
            k = len(clause) - 1
            while k >= 2:
                if clause[k] in fixed_lits:  # falsified at level 0
                    clause[k] = clause[-1]
                    clause.pop()
                k -= 1
        self._simplified_at = len(trail)

    # -- main solve loop ---------------------------------------------------------

    def solve(self, assumptions=(), max_conflicts=None, deadline=None,
              budget=None, cancel=None):
        """Solve; returns True (SAT), False (UNSAT) or None (budget exhausted).

        ``deadline`` is an absolute ``time.monotonic()`` timestamp.
        ``budget`` is an optional ``repro.runtime.Budget`` polled for its
        memory cap at conflict checkpoints (time/conflict caps should be
        lowered into ``deadline``/``max_conflicts`` by the caller).
        ``cancel`` is an optional ``threading.Event`` polled at the same
        cooperative checkpoints as the deadline; setting it makes the
        solve return ``None`` with ``stop_reason == "cancelled"`` —
        how a portfolio race tells a losing in-process member to stop.
        When the verdict is ``None``, ``stop_reason`` names the cause.

        Under assumptions, an UNSAT result means "unsatisfiable under
        these assumptions"; the formula itself stays usable.  The trail is
        left at the deepest still-valid assumption level on exit, so a
        following call sharing an assumption prefix resumes from it.
        """
        if not self.ok:
            return False
        self.stop_reason = None
        self._stop_flag = None
        self._deadline = deadline
        self._cancel = cancel
        started = time.perf_counter()
        try:
            return self._solve(assumptions, max_conflicts, deadline, budget)
        finally:
            self._deadline = None
            self._cancel = None
            self._stop_flag = None
            if self.profile is not None:
                self.profile["solve"] += time.perf_counter() - started

    def _stop(self, reason):
        self.stop_reason = reason
        # Keep the assumption levels (they are still valid decisions);
        # only the free search above them is abandoned.
        self._backtrack(min(self._n_assume, self._decision_level()))
        return None

    def _interrupt_flag(self):
        """Why solving should stop right now (``None`` to keep going)."""
        if self._cancel is not None and self._cancel.is_set():
            return "cancelled"
        if self._deadline is not None and time.monotonic() > self._deadline:
            return "deadline"
        return None

    def _solve(self, assumptions, max_conflicts, deadline, budget):
        assumptions = list(assumptions)
        n_assume = len(assumptions)
        self._n_assume = n_assume
        # Trail reuse: keep the longest prefix of assumption levels shared
        # with the previous solve.  ``add_clause``/``reseed`` backtrack to
        # level 0, so a nonzero decision level here implies the clause
        # database is unchanged since the trail was built — every kept
        # assignment (and its propagation) is still valid.
        prev = self._last_assumptions
        keep = 0
        limit = min(n_assume, len(prev), self._decision_level())
        while keep < limit and assumptions[keep] == prev[keep]:
            keep += 1
        self._backtrack(keep)
        if keep:
            self.trail_reuse_hits += 1
            self.trail_reuse_levels += keep
        self._last_assumptions = assumptions
        profile = self.profile
        if profile is not None:
            profile["solves"] += 1
        if not self.trail_lim:
            # Starting from the root: establish the level-0 fixpoint and
            # simplify the clause database against any new facts.
            conflict = self._timed_propagate(profile)
            if conflict != -1:
                self.ok = False
                return False
            if self._stop_flag is not None:
                return self._stop(self._stop_flag)
            if profile is None:
                self._simplify()
            else:
                t0 = time.perf_counter()
                self._simplify()
                profile["simplify"] += time.perf_counter() - t0
        restart_count = 0
        conflicts_at_entry = self.conflicts
        conflict_budget = _luby(restart_count) * 128
        conflicts_this_restart = 0
        while True:
            conflict = self._timed_propagate(profile)
            if conflict != -1:
                self.conflicts += 1
                conflicts_this_restart += 1
                # Batched assumption placement propagates several fresh
                # levels at once, so the conflict may lie entirely below
                # the current decision level: back up to the deepest
                # literal in the conflicting clause before analyzing.
                level = self.level
                conf_level = 0
                for l in self.clauses[conflict]:
                    lv = level[l >> 1]
                    if lv > conf_level:
                        conf_level = lv
                if conf_level == 0:
                    self.ok = False
                    return False
                if conf_level < self._decision_level():
                    self._backtrack(conf_level)
                if profile is None:
                    learned, back_level, lbd = self._analyze(conflict)
                else:
                    t0 = time.perf_counter()
                    learned, back_level, lbd = self._analyze(conflict)
                    profile["analyze"] += time.perf_counter() - t0
                # Chronological backtracking: when the backjump would
                # unwind a long stretch of still-valid assignments, step
                # back one level instead.  The learned clause stays unit
                # there (all its non-asserting literals live at or below
                # ``back_level``), so recording it still enqueues the
                # asserting literal.  Unit learned clauses keep the full
                # jump: they are global facts and belong at level 0.
                cur_level = self._decision_level()
                if (len(learned) > 1
                        and cur_level - back_level > _CHRONO_LIMIT):
                    back_level = cur_level - 1
                    self.chrono_backtracks += 1
                self._backtrack(back_level)
                self._record_learned(learned, lbd)
                self._decay()
                if max_conflicts is not None and (
                    self.conflicts - conflicts_at_entry
                ) >= max_conflicts:
                    return self._stop("conflicts")
                if (deadline is not None or self._cancel is not None) and (
                    self.conflicts & _CONFLICT_CHECK_MASK
                ) == 0 and (flag := self._interrupt_flag()) is not None:
                    return self._stop(flag)
                if budget is not None and (
                    self.conflicts & _MEMORY_CHECK_MASK
                ) == 0 and budget.memory_exceeded():
                    return self._stop("memory")
                continue
            if self._stop_flag is not None:
                return self._stop(self._stop_flag)
            if conflicts_this_restart >= conflict_budget:
                restart_count += 1
                self.restarts += 1
                conflict_budget = _luby(restart_count) * 128
                conflicts_this_restart = 0
                if profile is None:
                    self._reduce_db()
                else:
                    t0 = time.perf_counter()
                    self._reduce_db()
                    profile["reduce"] += time.perf_counter() - t0
                # Restart the search, not the assumptions: the assumption
                # levels are forced either way, so their propagation work
                # is kept.
                self._backtrack(min(n_assume, self._decision_level()))
                continue
            dl = self._decision_level()
            if dl < n_assume:
                # Batched assumption placement: one decision level per
                # assumption (level i+1 holds assumptions[i], which is what
                # lets trail reuse map a shared prefix onto shared levels),
                # all enqueued in one pass and propagated together.
                while dl < n_assume:
                    lit = assumptions[dl]
                    value = self._lit_value(lit)
                    if value == 0:
                        # The formula (plus learned clauses) forces the
                        # negation of an assumption: UNSAT under these
                        # assumptions.  The trail stays put — the next
                        # solve can still reuse the shared prefix.
                        return False
                    self.trail_lim.append(len(self.trail))
                    dl += 1
                    if value == _UNASSIGNED:
                        self._enqueue(lit, -1)
                    # value == 1: an already-satisfied assumption keeps an
                    # empty decision level, preserving the alignment.
                continue
            var = self._pick_branch_var()
            if var == 0:
                return True
            self.decisions += 1
            if (deadline is not None or self._cancel is not None) and (
                self.decisions & _DECISION_CHECK_MASK
            ) == 0 and (flag := self._interrupt_flag()) is not None:
                return self._stop(flag)
            self.trail_lim.append(len(self.trail))
            lit = 2 * var + (1 - self.phase[var])
            self._enqueue(lit, -1)

    def _timed_propagate(self, profile):
        if profile is None:
            return self._propagate()
        t0 = time.perf_counter()
        conflict = self._propagate()
        profile["propagate"] += time.perf_counter() - t0
        return conflict

    def enable_profiling(self):
        """Turn on phase-wall attribution; returns the live profile dict.

        Keys: ``propagate``/``analyze``/``reduce``/``simplify`` wall
        seconds, ``solve`` — the wall of whole ``solve`` calls, which adds
        decisions, the heap, backtracking and assumption placement to
        those phases — and a ``solves`` call count.  Costs two clock reads
        per phase call, so it is off by default —
        ``scripts/profile_solver.py`` is the intended consumer.
        """
        if self.profile is None:
            self.profile = {"propagate": 0.0, "analyze": 0.0, "reduce": 0.0,
                            "simplify": 0.0, "solve": 0.0, "solves": 0}
        return self.profile

    def internals(self):
        """Monotonic per-solver work counters as a plain dict."""
        return {
            "propagations": self.propagations,
            "decisions": self.decisions,
            "restarts": self.restarts,
            "learned": self.learned_total,
            "deleted": self.deleted_total,
            "simplified": self.simplified_total,
            "trail_reuse_hits": self.trail_reuse_hits,
            "trail_reuse_levels_saved": self.trail_reuse_levels,
            "chrono_backtracks": self.chrono_backtracks,
        }

    def reseed(self, seed):
        """Perturb the decision order deterministically (for retries).

        Replaces VSIDS activities and saved phases with seeded random
        values and rebuilds the decision heap, so a retried solve explores
        the search space in a genuinely different order.  Sound at any
        point between solves: assignments, clauses and learned facts are
        untouched.
        """
        rng = random.Random(seed)
        self._backtrack(0)
        for var in range(1, self.num_vars + 1):
            self.activity[var] = rng.random()
            self.phase[var] = rng.getrandbits(1)
        self.var_inc = 1.0
        self._heap = heap = []
        self._heap_pos = [-1] * (self.num_vars + 1)
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == _UNASSIGNED:
                heap.append(var)
                self._heap_pos[var] = len(heap) - 1
                self._heap_sift_up(len(heap) - 1)

    def model(self):
        """The satisfying assignment as ``{var: 0/1}`` after a SAT solve."""
        return {
            var: self.assign[var]
            for var in range(1, self.num_vars + 1)
            if self.assign[var] != _UNASSIGNED
        }
