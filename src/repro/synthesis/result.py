"""Result and error types for control logic synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.errors import BudgetExhausted

__all__ = [
    "SynthesisError",
    "SynthesisTimeout",
    "SynthesisFailure",
    "MalformedResumeHandle",
    "InstructionSolution",
    "SynthesisResult",
    "PartialSynthesisResult",
    "RESUME_HANDLE_SCHEMA",
    "RESUME_HANDLE_VERSION",
]

#: The resume-handle wire schema tag and its current version.  The version
#: is bumped when a field changes meaning; readers refuse *newer* versions
#: (they cannot know what the fields mean) and accept older ones.
RESUME_HANDLE_SCHEMA = "repro.partial_synthesis_result/1"
RESUME_HANDLE_VERSION = 1


class SynthesisError(Exception):
    """Base class for synthesis failures."""


class MalformedResumeHandle(SynthesisError, ValueError):
    """A resume handle could not be decoded into a usable partial result.

    Raised instead of a raw ``json.JSONDecodeError``/``KeyError`` when a
    handle file is torn (a crash mid-write), corrupt, from a foreign
    schema, or from a *newer* handle version than this reader knows.
    ``reason`` is machine-readable (``"torn-or-corrupt"``,
    ``"foreign-schema"``, ``"unknown-version"``, ``"missing-field"``);
    ``path`` names the offending file when it came from disk.

    Subclasses ``ValueError`` so pre-existing callers that caught the old
    untyped failure keep working.
    """

    def __init__(self, message="", reason="torn-or-corrupt", path=None):
        super().__init__(
            message or f"malformed resume handle ({reason})"
        )
        self.reason = reason
        self.path = path


class SynthesisTimeout(SynthesisError, BudgetExhausted):
    """The configured time/iteration budget was exhausted.

    Participates in the ``repro.runtime`` taxonomy (it *is* a
    :class:`BudgetExhausted`), carrying a machine-readable ``reason``
    (``"deadline"``, ``"conflicts"``, ``"memory"``, ``"iterations"``) and,
    when raised from the per-instruction engine loop, a ``partial``
    :class:`PartialSynthesisResult` holding every completed instruction
    solution so no work is discarded.
    """

    def __init__(self, message="", reason="deadline", partial=None):
        SynthesisError.__init__(self, message or
                                f"budget exhausted ({reason})")
        self.reason = reason
        self.partial = partial


class SynthesisFailure(SynthesisError):
    """No control logic exists: the sketch cannot implement the spec.

    This is the paper's "datapath sketch is incorrect with respect to the
    ILA" outcome (Section 5.3): the solver proved the hole constraints
    unsatisfiable for some instruction.
    """


@dataclass
class InstructionSolution:
    """Solved hole constants for one instruction (Equation 2's c_j).

    The encode counters (``solver_instances``, ``aig_nodes``,
    ``tseitin_clauses``, ``trace_cache_hits``) are deltas of the
    process-global ``repro.smt.counters`` taken across this instruction's
    synthesis; the engine solves instructions serially, so they are exact
    unless another synthesis shares the process.
    """

    instruction_name: str
    hole_values: dict  # hole name -> int
    iterations: int
    solve_time: float
    conflicts: int = 0
    retries: int = 0
    solver_instances: int = 0
    aig_nodes: int = 0
    tseitin_clauses: int = 0
    trace_cache_hits: int = 0

    def to_dict(self):
        return {
            "instruction_name": self.instruction_name,
            "hole_values": dict(self.hole_values),
            "iterations": self.iterations,
            "solve_time": self.solve_time,
            "conflicts": self.conflicts,
            "retries": self.retries,
            "solver_instances": self.solver_instances,
            "aig_nodes": self.aig_nodes,
            "tseitin_clauses": self.tseitin_clauses,
            "trace_cache_hits": self.trace_cache_hits,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            instruction_name=data["instruction_name"],
            hole_values={k: int(v) for k, v in data["hole_values"].items()},
            iterations=int(data["iterations"]),
            solve_time=float(data["solve_time"]),
            conflicts=int(data.get("conflicts", 0)),
            retries=int(data.get("retries", 0)),
            solver_instances=int(data.get("solver_instances", 0)),
            aig_nodes=int(data.get("aig_nodes", 0)),
            tseitin_clauses=int(data.get("tseitin_clauses", 0)),
            trace_cache_hits=int(data.get("trace_cache_hits", 0)),
        )


@dataclass
class SynthesisResult:
    """The output of control logic synthesis.

    ``hole_exprs`` maps each hole to the Oyster expression that fills it
    (after the control union in per-instruction mode); ``control_stmts`` are
    the generated assignments (precondition wires first), and
    ``completed_design`` is the sketch with holes replaced by the generated
    control logic — the final design of Figure 4.
    """

    problem_name: str
    mode: str
    hole_exprs: dict
    control_stmts: list
    completed_design: object
    per_instruction: list = field(default_factory=list)
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def is_partial(self):
        return False

    @property
    def instruction_count(self):
        return len(self.per_instruction)

    def hole_values_for(self, instruction_name):
        for solution in self.per_instruction:
            if solution.instruction_name == instruction_name:
                return solution.hole_values
        raise KeyError(instruction_name)

    def summary(self):
        lines = [
            f"synthesis of {self.problem_name!r} ({self.mode}): "
            f"{len(self.hole_exprs)} holes, "
            f"{self.instruction_count} instructions, "
            f"{self.elapsed:.2f}s"
        ]
        for solution in self.per_instruction:
            lines.append(
                f"  {solution.instruction_name}: "
                f"{solution.iterations} CEGIS iterations, "
                f"{solution.solve_time:.2f}s"
            )
        return "\n".join(lines)


@dataclass
class PartialSynthesisResult:
    """A synthesis run that the budget (or a solver fault) cut short.

    Carries every *completed* instruction solution, the names still
    ``pending``, the machine-readable ``reason`` the run stopped, and
    per-instruction fault records.  It is also the resume handle: pass it
    back as ``synthesize(problem, resume_from=partial)`` (or its
    :meth:`to_dict` round-trip, e.g. after a process restart) and the
    engine re-solves only the pending instructions, reusing the completed
    ones verbatim.
    """

    problem_name: str
    mode: str
    completed: list            # InstructionSolution, in spec order
    pending: list              # instruction names not yet solved
    reason: str                # "deadline" / "conflicts" / "memory" / ...
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)
    faults: list = field(default_factory=list)  # (instruction, reason) pairs

    @property
    def is_partial(self):
        return True

    @property
    def completed_count(self):
        return len(self.completed)

    def hole_values_for(self, instruction_name):
        for solution in self.completed:
            if solution.instruction_name == instruction_name:
                return solution.hole_values
        raise KeyError(instruction_name)

    def to_dict(self):
        """JSON-serializable resume handle."""
        return {
            "schema": RESUME_HANDLE_SCHEMA,
            "version": RESUME_HANDLE_VERSION,
            "problem_name": self.problem_name,
            "mode": self.mode,
            "completed": [s.to_dict() for s in self.completed],
            "pending": list(self.pending),
            "reason": self.reason,
            "elapsed": self.elapsed,
            "stats": dict(self.stats),
            "faults": [list(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise MalformedResumeHandle(
                "resume handle is not a JSON object: "
                f"{type(data).__name__}",
                reason="torn-or-corrupt",
            )
        if data.get("schema") != RESUME_HANDLE_SCHEMA:
            raise MalformedResumeHandle(
                "not a serialized PartialSynthesisResult: "
                f"{data.get('schema')!r}",
                reason="foreign-schema",
            )
        version = data.get("version", 1)  # pre-version handles are v1
        if not isinstance(version, int) or version > RESUME_HANDLE_VERSION:
            raise MalformedResumeHandle(
                f"resume handle version {version!r} is newer than this "
                f"reader (max {RESUME_HANDLE_VERSION})",
                reason="unknown-version",
            )
        try:
            return cls(
                problem_name=data["problem_name"],
                mode=data["mode"],
                completed=[InstructionSolution.from_dict(s)
                           for s in data["completed"]],
                pending=list(data["pending"]),
                reason=data["reason"],
                elapsed=float(data.get("elapsed", 0.0)),
                stats=dict(data.get("stats", {})),
                faults=[tuple(f) for f in data.get("faults", [])],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedResumeHandle(
                f"resume handle is missing or mistypes a field: {exc!r}",
                reason="missing-field",
            ) from exc

    def summary(self):
        lines = [
            f"partial synthesis of {self.problem_name!r} ({self.mode}): "
            f"{len(self.completed)} instructions solved, "
            f"{len(self.pending)} pending, stopped on {self.reason!r} "
            f"after {self.elapsed:.2f}s"
        ]
        for solution in self.completed:
            lines.append(
                f"  [done] {solution.instruction_name}: "
                f"{solution.iterations} CEGIS iterations, "
                f"{solution.solve_time:.2f}s, {solution.conflicts} conflicts"
            )
        for name in self.pending:
            lines.append(f"  [pending] {name}")
        for name, reason in self.faults:
            lines.append(f"  [fault] {name}: {reason}")
        return "\n".join(lines)
