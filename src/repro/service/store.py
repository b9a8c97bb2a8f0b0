"""The durable, crash-safe job store: WAL + atomic snapshots.

State layout under ``state_dir``::

    journal.<gen>.jsonl   write-ahead journal of job records & transitions
    snapshot.json         atomic-rename snapshot (compaction baseline)
    checkpoints/          per-job resume handles (crash-atomic writes)

The store's invariant is *journal-then-apply*: every mutation is made
durable in the journal before the in-memory index (and therefore any
client-visible acknowledgement) reflects it.  Opening a store replays
``snapshot ∘ journal`` and reports what a crash stranded; the daemon
re-admits the interrupted jobs.

Compaction uses journal *generations* so every crash point is covered:
the snapshot atomically records ``folded_gen`` (the journal generation it
absorbed), then a fresh ``journal.<gen+1>.jsonl`` is started and the old
file deleted.  On open, journal generations ``<= folded_gen`` are stale
(their records are already in the snapshot) and are discarded; newer ones
are replayed.  A crash anywhere in that sequence leaves at least one
complete representation of the state on disk, and never replays a record
into a state it has already produced.

Opening also rotates: every incarnation appends to its *own* fresh
generation, never to a file a crash may have left with a torn tail —
replay tolerates a torn tail only as the frozen end of a closed file,
and appending past one would fuse it with the next record, turning an
ignorable tail into mid-file corruption (or silently dropping the fused
record).

Idempotency keys double as a content-addressed result cache: a ``done``
job's record carries its full result payload, so a duplicate submission
with the same key is answered from the journal-backed index without any
solving — including across restarts.
"""

from __future__ import annotations

import json
import os
import re
import threading

from repro.obs import trace as _obs
from repro.obs.metrics import METRICS as _METRICS
from repro.runtime.persist import atomic_write_json
from repro.service.jobs import Job
from repro.service.journal import Journal, JournalFault

__all__ = ["JobStore", "JournalFault"]

_SNAPSHOT_SCHEMA = "repro.service.snapshot/1"
_JOURNAL_RE = re.compile(r"^journal\.(\d+)\.jsonl$")


class JobStore:
    """Durable job index over a write-ahead journal and a snapshot."""

    def __init__(self, state_dir, fsync=True, compact_every=256):
        self.state_dir = os.fspath(state_dir)
        self.fsync = fsync
        self.compact_every = compact_every
        os.makedirs(self.state_dir, exist_ok=True)
        os.makedirs(self.checkpoint_dir, exist_ok=True)
        self.jobs = {}            # job_id -> Job
        self._by_key = {}         # idempotency_key -> job_id
        self._lock = threading.RLock()
        # Notified whenever a job enters a terminal state.
        self._terminal = threading.Condition(self._lock)
        self._since_compact = 0
        self._gen = 0
        self._journal = None      # until open()

    @property
    def snapshot_path(self):
        return os.path.join(self.state_dir, "snapshot.json")

    @property
    def journal_path(self):
        """The active journal file (valid after :meth:`open`)."""
        return self._journal_file(self._gen)

    def _journal_file(self, gen):
        return os.path.join(self.state_dir, f"journal.{gen}.jsonl")

    @property
    def checkpoint_dir(self):
        return os.path.join(self.state_dir, "checkpoints")

    def checkpoint_path(self, job_id):
        return os.path.join(self.checkpoint_dir, f"{job_id}.json")

    def _journal_generations(self):
        gens = []
        for name in os.listdir(self.state_dir):
            match = _JOURNAL_RE.match(name)
            if match:
                gens.append(int(match.group(1)))
        return sorted(gens)

    # -- lifecycle -------------------------------------------------------

    def open(self):
        """Replay snapshot + journal; returns a recovery report dict.

        The report counts what the previous incarnation left behind:
        ``replayed`` journal records, ``torn_tail`` (a crash mid-append),
        and the jobs per state — the daemon re-admits the interrupted
        ones.
        """
        with self._lock:
            folded_gen = -1
            if os.path.exists(self.snapshot_path):
                with open(self.snapshot_path) as handle:
                    snapshot = json.load(handle)
                if snapshot.get("schema") != _SNAPSHOT_SCHEMA:
                    raise JournalFault(
                        f"snapshot {self.snapshot_path!r} has foreign "
                        f"schema {snapshot.get('schema')!r}"
                    )
                folded_gen = int(snapshot.get("folded_gen", 0))
                for data in snapshot.get("jobs", []):
                    self._index(Job.from_dict(data))
            replayed = 0
            torn = False
            live_records = []
            gens = self._journal_generations()
            for gen in gens:
                if gen <= folded_gen:
                    # Already folded into the snapshot; a crash between
                    # snapshot write and journal rotation left it behind.
                    os.unlink(self._journal_file(gen))
                    continue
                records, gen_torn = Journal.replay(self._journal_file(gen))
                torn = torn or gen_torn
                replayed += len(records)
                for record in records:
                    self._apply(record)
                live_records.extend(records)
            # Never append to a file a crash may have torn: each
            # incarnation writes a fresh generation, so a torn tail stays
            # frozen where replay tolerates it (the end of a closed file)
            # instead of being fused with the next incarnation's appends.
            # Older live generations keep replaying until a compaction
            # folds them away.
            self._gen = max([folded_gen] + gens) + 1
            self._journal = Journal(self.journal_path, fsync=self.fsync)
            self._journal.resume_from(live_records)
            states = self.counts()
            report = {
                "replayed": replayed,
                "torn_tail": torn,
                "jobs": len(self.jobs),
                "states": states,
            }
            _obs.event("service.recovery", replayed=replayed,
                       torn_tail=torn, jobs=len(self.jobs),
                       states=str(sorted(states.items())))
            _METRICS.inc("service.recovery.opens")
            if torn:
                _METRICS.inc("service.recovery.torn_tails")
            return report

    def close(self):
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    # -- replay plumbing -------------------------------------------------

    def _index(self, job):
        self.jobs[job.job_id] = job
        if job.idempotency_key:
            self._by_key[job.idempotency_key] = job.job_id

    def _apply(self, record):
        kind = record.get("type")
        if kind == "job":
            self._index(Job.from_dict(record["job"]))
        elif kind == "transition":
            job = self.jobs.get(record["job_id"])
            if job is None:
                raise JournalFault(
                    f"journal transition for unknown job "
                    f"{record['job_id']!r}"
                )
            job.transition(record["state"])
            for field in ("crashes", "instructions_done", "checkpoint_path",
                          "reason", "error", "result"):
                if field in record:
                    setattr(job, field, record[field])
        else:
            raise JournalFault(f"unknown journal record type {kind!r}")

    # -- mutations (journal-then-apply) ----------------------------------

    def submit(self, job):
        """Durably log a new job, then index it.

        Raises :class:`JournalFault` without indexing when the record
        cannot be made durable — the caller must then *not* acknowledge.
        """
        with self._lock:
            if job.job_id in self.jobs:
                raise JournalFault(f"duplicate job id {job.job_id!r}")
            self._journal.append({"type": "job", "job": job.to_dict()})
            self._index(job)
            self._maybe_compact()
        _METRICS.inc("service.jobs.submitted")
        return job

    def transition(self, job_id, state, **fields):
        """Durably log a state transition, then apply it."""
        with self._lock:
            job = self.jobs[job_id]
            # Validate the edge before paying for durability: an illegal
            # transition must not leave a poisoned record in the journal.
            job.validate_transition(state)
            record = {"type": "transition", "job_id": job_id,
                      "state": state}
            record.update(fields)
            self._journal.append(record)
            self._apply(record)
            if job.terminal:
                self._terminal.notify_all()
            self._maybe_compact()
        _METRICS.inc("service.jobs.transitions")
        _METRICS.inc(f"service.jobs.state.{state}")
        _obs.event("service.job", job_id=job_id, state=state,
                   **{k: v for k, v in fields.items() if k != "result"})
        return self.jobs[job_id]

    # -- queries ---------------------------------------------------------

    def get(self, job_id):
        with self._lock:
            return self.jobs.get(job_id)

    def wait_terminal(self, job_id, timeout):
        """Block until the job is terminal or ``timeout`` seconds pass.

        Returns the job either way (``job.terminal`` tells which), or
        ``None`` for an unknown id.  :meth:`transition` wakes every
        waiter when a job enters a terminal state.
        """
        with self._terminal:
            job = self.jobs.get(job_id)
            if job is not None:
                self._terminal.wait_for(lambda: job.terminal, timeout)
            return job

    def cached_result(self, idempotency_key):
        """A ``done`` job with this key, or ``None`` — the content-
        addressed result cache."""
        if not idempotency_key:
            return None
        with self._lock:
            job_id = self._by_key.get(idempotency_key)
            if job_id is None:
                return None
            job = self.jobs[job_id]
            if job.state == "done" and job.result is not None:
                return job
            return None

    def find_by_key(self, idempotency_key):
        """The live (non-failed) job for this key, in any state."""
        if not idempotency_key:
            return None
        with self._lock:
            job_id = self._by_key.get(idempotency_key)
            if job_id is None:
                return None
            job = self.jobs[job_id]
            if job.state in ("failed", "failed-permanent"):
                return None
            return job

    def interrupted(self):
        """Jobs a crash stranded mid-flight, in submission order."""
        with self._lock:
            return [job for job in self.jobs.values() if job.interrupted]

    def active_for_tenant(self, tenant):
        with self._lock:
            return sum(1 for job in self.jobs.values()
                       if job.tenant == tenant and not job.terminal)

    def counts(self):
        with self._lock:
            states = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return states

    def journal_health(self):
        """Typed health probe for the active journal.

        Checks existence and writability of the live generation without
        appending (a probe must not grow the WAL).  ``ok`` is ``False``
        before :meth:`open` / after :meth:`close` — a serving daemon
        whose journal is closed is exactly the failure this surfaces.
        """
        with self._lock:
            if self._journal is None:
                return {"ok": False, "open": False, "writable": False}
            path = self.journal_path
            generation = self._gen
        exists = os.path.exists(path)
        writable = exists and os.access(path, os.W_OK)
        return {
            "ok": writable,
            "open": True,
            "writable": writable,
            "generation": generation,
        }

    # -- compaction ------------------------------------------------------

    def _maybe_compact(self):
        self._since_compact += 1
        if self.compact_every and self._since_compact >= self.compact_every:
            self.compact()

    def compact(self):
        """Fold the journal into an atomic snapshot and rotate generations.

        Ordering covers every crash point: (1) the snapshot recording
        ``folded_gen`` replaces its predecessor atomically; (2) a fresh
        journal generation is started; (3) the folded file is deleted.
        A crash after (1) leaves a stale journal that the next open
        recognizes as folded and discards.
        """
        with self._lock:
            atomic_write_json(
                self.snapshot_path,
                {
                    "schema": _SNAPSHOT_SCHEMA,
                    "folded_gen": self._gen,
                    "jobs": [job.to_dict() for job in self.jobs.values()],
                },
                fsync=self.fsync,
            )
            folded = self._gen
            self._journal.close()
            self._gen += 1
            self._journal = Journal(self.journal_path, fsync=self.fsync)
            # Restarts leave one live generation per incarnation; the
            # snapshot just absorbed every record up to `folded`, so all
            # of them are stale now, not only the newest.
            for gen in self._journal_generations():
                if gen > folded:
                    continue
                try:
                    os.unlink(self._journal_file(gen))
                except FileNotFoundError:  # pragma: no cover - gone
                    pass
            self._since_compact = 0
        _METRICS.inc("service.store.compactions")
