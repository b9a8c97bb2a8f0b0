"""The subprocess-dimacs backend: shell out to any installed SAT solver.

FormalRTL-style scaling in one file: this backend writes the facade's
own CNF (:meth:`repro.smt.dimacs.DimacsCnf.text`) to a temp file, execs
an external solver binary, and parses the standard SAT-competition
output format back — ``s SATISFIABLE`` / ``s UNSATISFIABLE`` /
``s UNKNOWN`` verdict lines and ``v`` model lines.  The raw assignment
goes back to the facade, which checks it against the CNF and decodes it
into term-level values.  Dropping in kissat (or cryptominisat, or a
research solver) therefore needs zero engine changes: install the
binary, pass ``backend="subprocess-dimacs"``.

Solver discovery, in priority order:

1. an explicit ``command`` argument (string or argv list);
2. the ``REPRO_DIMACS_SOLVER`` environment variable (shell-split), which
   is how CI pins the bundled fake solver without installing anything;
3. a PATH scan over well-known binaries (:data:`KNOWN_SOLVERS`).

MiniSat predates the ``s``/``v`` convention — it takes an output *file*
and signals the verdict via exit code 10/20 — so commands whose basename
contains ``minisat`` get that calling convention automatically.

Failure taxonomy (all canonical, see ``repro.runtime.reasons``):
a solver that exceeds the deadline is killed and reported as
``unknown(deadline)``; garbage output, a crash, a vanished binary, or a
SAT verdict with no ``v`` line is ``unknown(backend-error)`` (retryable —
a reseeded retry may dodge a flaky solver); a witness that falsifies a
clause is ``unknown(malformed-model)``; no binary found at construction
raises
:class:`BackendUnavailable` immediately rather than at the first check.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import tempfile

from repro.smt.backends.base import BackendResult, CheckLimits, SolverBackend

__all__ = ["SubprocessDimacsBackend", "BackendUnavailable", "KNOWN_SOLVERS"]

#: PATH-scanned binaries, in preference order.
KNOWN_SOLVERS = (
    "kissat", "cadical", "cryptominisat5", "cryptominisat", "picosat",
    "minisat", "glucose", "lingeling",
)

#: Environment variable naming the solver command (shell-split).
SOLVER_ENV = "REPRO_DIMACS_SOLVER"

_CONFLICTS_RE = re.compile(
    r"^c\s+(?:conflicts|number of conflicts)\s*[:=]?\s*(\d+)", re.IGNORECASE
)


class BackendUnavailable(RuntimeError):
    """No external DIMACS solver could be located."""


def _discover_command(command):
    """Resolve ``command`` to an argv list (see module docstring)."""
    if command is not None:
        if isinstance(command, str):
            return shlex.split(command)
        return list(command)
    env = os.environ.get(SOLVER_ENV)
    if env:
        return shlex.split(env)
    for name in KNOWN_SOLVERS:
        path = shutil.which(name)
        if path:
            return [path]
    raise BackendUnavailable(
        "backend 'subprocess-dimacs' found no SAT solver: pass command=, "
        f"set ${SOLVER_ENV}, or install one of {', '.join(KNOWN_SOLVERS)}"
    )


class SubprocessDimacsBackend(SolverBackend):
    """One external-solver invocation per check, DIMACS in, s/v lines out."""

    name = "subprocess-dimacs"

    def __init__(self, command=None):
        self.command = _discover_command(command)
        base = os.path.basename(self.command[0]).lower()
        #: MiniSat calling convention: ``minisat in.cnf out`` + exit codes.
        self._minisat_style = "minisat" in base

    def describe(self):
        return (f"{self.name} ({' '.join(self.command)})")

    #: How often the wait loop polls the cancellation event (seconds);
    #: bounds how long a losing portfolio member outlives the winner.
    _POLL_INTERVAL = 0.05

    def check(self, cnf, assumptions=(), limits=None):
        if limits is None:
            limits = CheckLimits()
        workdir = tempfile.mkdtemp(prefix="repro-dimacs-")
        cnf_path = os.path.join(workdir, "query.cnf")
        out_path = os.path.join(workdir, "result.txt")
        proc = None
        try:
            with open(cnf_path, "w") as handle:
                handle.write(cnf.text())
            argv = list(self.command) + [cnf_path]
            if self._minisat_style:
                argv.append(out_path)
            try:
                proc = subprocess.Popen(
                    argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True,
                )
            except OSError:
                # The binary vanished (or was never executable) after
                # discovery: a backend failure, not a query property.
                return BackendResult("unknown", reason="backend-error")
            stdout, stopped = self._await(proc, limits)
            if stopped is not None:
                return BackendResult("unknown", reason=stopped)
            output = stdout or ""
            if self._minisat_style and os.path.exists(out_path):
                with open(out_path) as handle:
                    output = handle.read() + "\n" + output
            return self._parse(output, proc.returncode)
        finally:
            # Kill and *reap* the child before removing its workdir: a
            # solver crashed or hard-killed mid-race could otherwise
            # re-create its minisat-style result file after the rmtree,
            # leaking `repro-dimacs-*` litter (and an orphan process).
            if proc is not None:
                if proc.poll() is None:
                    proc.kill()
                try:
                    proc.communicate(timeout=5.0)
                except (subprocess.TimeoutExpired, OSError, ValueError):
                    pass
            shutil.rmtree(workdir, ignore_errors=True)

    def _await(self, proc, limits):
        """Wait for the child; returns ``(stdout, unknown_reason_or_None)``.

        Blocks in short slices so the deadline and the portfolio
        cancellation event are both observed within ``_POLL_INTERVAL``;
        on either, the child is killed (the ``finally`` in :meth:`check`
        reaps it and removes the workdir).
        """
        cancel = limits.cancel
        while True:
            if cancel is not None and cancel.is_set():
                proc.kill()
                return None, "cancelled"
            remaining = limits.timeout()
            if remaining is not None and remaining <= 0.0:
                proc.kill()
                return None, "deadline"
            if cancel is None and remaining is None:
                slice_s = None  # nothing to poll: block until exit
            elif remaining is None:
                slice_s = self._POLL_INTERVAL
            else:
                slice_s = min(self._POLL_INTERVAL, max(remaining, 0.001))
            try:
                stdout, _stderr = proc.communicate(timeout=slice_s)
                return stdout, None
            except subprocess.TimeoutExpired:
                continue

    # ------------------------------------------------------------------

    def _parse(self, output, returncode):
        """Decode solver output into a :class:`BackendResult`.

        Tolerates both the competition format (``s``/``v`` lines) and the
        MiniSat result-file format (``SAT``/``UNSAT`` headers, bare model
        line); exit codes 10/20 break ties when no verdict line exists.
        A SAT result carries ``assignment=None`` only when no model line
        appeared at all; ``v 0`` is the empty witness of a CNF with no
        variables.
        """
        verdict = None
        model_lits = []
        saw_model = False
        conflicts = 0
        for raw in output.splitlines():
            line = raw.strip()
            if not line:
                continue
            upper = line.upper()
            if upper.startswith("S "):
                word = upper[2:].strip()
                if word == "SATISFIABLE":
                    verdict = "sat"
                elif word == "UNSATISFIABLE":
                    verdict = "unsat"
                else:
                    verdict = "unknown"
            elif upper in ("SAT", "SATISFIABLE"):
                verdict = "sat"
            elif upper in ("UNSAT", "UNSATISFIABLE"):
                verdict = "unsat"
            elif upper in ("UNKNOWN", "INDETERMINATE"):
                verdict = "unknown"
            elif line.startswith(("v", "V")) and not line[1:2].isalpha():
                saw_model = True
                model_lits.extend(_ints(line[1:]))
            elif line[0] in "-0123456789" and verdict == "sat":
                # MiniSat result files carry a bare model line.
                saw_model = True
                model_lits.extend(_ints(line))
            else:
                match = _CONFLICTS_RE.match(line)
                if match:
                    conflicts = int(match.group(1))
        if verdict is None:
            if returncode == 10:
                verdict = "sat"
            elif returncode == 20:
                verdict = "unsat"
            else:
                # Crash, empty output, or text with no verdict line.
                return BackendResult("unknown", reason="backend-error")
        if verdict == "unknown":
            return BackendResult("unknown", reason="backend-error",
                                 conflicts=conflicts)
        if verdict == "unsat":
            return BackendResult("unsat", conflicts=conflicts)
        assignment = None
        if saw_model:
            assignment = {abs(lit): (0 if lit < 0 else 1)
                          for lit in model_lits if lit != 0}
        return BackendResult("sat", conflicts=conflicts,
                             assignment=assignment)


def _ints(text):
    out = []
    for token in text.split():
        try:
            out.append(int(token))
        except ValueError:
            return []  # garbage inside a model line: discard the line
    return out
