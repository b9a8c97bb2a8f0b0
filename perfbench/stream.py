"""The service workload: a closed-loop job stream against a daemon.

One client connection over a Unix socket talks to a ``SynthesisService``
daemon running in its own process (``daemon.py``) with fsync on and one
runner thread.  The client sends its next submission only after the
previous one is ``done``.

The stream is drawn from the seed in blocks of six submissions: two new
``accumulator`` copies, two new ``alu_machine`` copies and two repeats of
an earlier submission, in seeded order.  Copies are renamed sketches
(``acc_00007``, ``alu_00003``) the daemon registers with
``register_problem``, so each has its own idempotency key; a repeat is
served from the idempotency cache.  Fixing the mix per block keeps the
class proportions the same on every seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import ledger
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
CLASSES = {"acc": "accumulator", "alu": "alu_machine"}
#: copies of each class the daemon registers; far more than a run submits
COPIES = 4000


def copy_problem(name):
    """The problem a copy name stands for: the base problem, renamed."""
    from repro.service.problems import build_problem

    problem = build_problem(CLASSES[name.split("_")[0]])
    return dataclasses.replace(
        problem, sketch=dataclasses.replace(problem.sketch, name=name))


def submissions(seed):
    """The seeded, endless stream of design names to submit."""
    rng = random.Random(seed)
    serial = {"acc": 0, "alu": 0}
    submitted = []
    while True:
        block = ["acc", "acc", "alu", "alu", "hit", "hit"]
        rng.shuffle(block)
        for kind in block:
            if kind == "hit" and submitted:
                yield rng.choice(submitted)
                continue
            if kind == "hit":  # nothing to repeat yet
                kind = "acc"
            if serial[kind] >= COPIES:
                return
            name = f"{kind}_{serial[kind]:05d}"
            serial[kind] += 1
            submitted.append(name)
            yield name


class Daemon:
    """A daemon process with its own state directory and socket.

    Paths are relative to the working directory, so a long checkout path
    cannot overflow the Unix socket address.
    """

    def __init__(self, workdir, tag, traced=False):
        self.state_dir = os.path.join(workdir, f"state-{tag}")
        self.socket = os.path.join(workdir, f"{tag}.sock")
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--state-dir", self.state_dir, "--socket", self.socket]
        if traced:
            command.append("--trace")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        self.report = None

    def connect(self):
        """Wait for the daemon to listen, connect and ping it; returns the
        client and the seconds since the process was started."""
        from repro.service.client import ServiceClient

        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("the daemon exited before listening")
        client = ServiceClient.connect_retry(socket_path=self.socket)
        client.ping()
        return client, time.perf_counter() - self.started

    def stop(self):
        """Drain the daemon and return its exit report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        lines = [line for line in out.splitlines() if line.startswith("{")]
        self.report = json.loads(lines[-1]) if lines else {}
        return self.report


def drive(client, seed, seconds):
    """Run the closed loop for ``seconds``; return one record per
    submission (name, latency, whether served from the cache, job view)."""
    from repro.service.client import ServiceError

    records = []
    begin = time.perf_counter()
    for name in submissions(seed):
        if time.perf_counter() - begin >= seconds:
            break
        start = time.perf_counter()
        try:
            ack = client.submit(name)
            if ack.get("cached"):
                job = ack
            else:
                job = client.wait(ack["job_id"], timeout=60.0)
            error = None
        except ServiceError as exc:
            ack, job, error = {}, {}, f"{exc.type}: {exc}"
        records.append({"name": name, "latency": time.perf_counter() - start,
                        "cached": bool(ack.get("cached")), "job": job,
                        "error": error})
    return records, time.perf_counter() - begin


def check(records):
    """Run the service oracle on every record, each distinct returned
    design once; marks failed records and returns how many failed."""
    verdicts = {}
    for record in records:
        if record["error"] is not None:
            continue
        job = record["job"]
        key = (job.get("result") or {}).get("design") or id(record)
        if key not in verdicts:
            verdicts[key] = oracles.service_job(
                job, copy_problem(record["name"]))
        if verdicts[key]:
            record["error"] = "oracle: " + "; ".join(verdicts[key])
    return sum(1 for record in records if record["error"] is not None)


def summary(records, elapsed):
    """End-to-end figures of one stream."""
    done = [r for r in records if r["error"] is None]
    misses = {kind: [r["latency"] for r in done if not r["cached"]
                     and r["name"].startswith(kind)] for kind in CLASSES}
    hits = [r["latency"] for r in done if r["cached"]]
    all_misses = misses["acc"] + misses["alu"]
    tail_s, tail_pct, tail_n = ledger.tail(all_misses)

    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "long_job_p50_s": median(misses["alu"]),
        "short_job_p50_ms": 1000.0 * median(misses["acc"]),
        "hit_p50_ms": 1000.0 * median(hits),
        "job_tail_s": tail_s, "job_tail_percentile": tail_pct,
        "jobs_per_s": len(done) / elapsed,
        "samples": {"acc": len(misses["acc"]), "alu": len(misses["alu"]),
                    "hit": len(hits), "miss": tail_n},
    }


# -- per-job service breakdown from the traced daemon's spans ---------------


def service_breakdown(spans):
    """Mean milliseconds of each daemon-side service step (traced run):
    per call for building a problem, a journal append and a checkpoint;
    per cache-miss job for the wait in the queue (submit's return to the
    runner's start), the run, and the wake (the run's end to the return
    of the ``wait`` that polled for it)."""
    by_job = {}
    for span in spans:
        job_id = span.attrs.get("job_id")
        # A cache hit reports the id of the job it repeats; skip it.
        if job_id is not None and not span.attrs.get("cached"):
            by_job.setdefault(job_id, {})[span.name] = span
    queue, wake, run = [], [], []
    for steps in by_job.values():
        submit, started = steps.get("service.submit"), steps.get("service.run")
        if submit is None or started is None:
            continue
        queue.append(started.start - submit.end)
        run.append(started.end - started.start)
        if "service.wait" in steps:
            wake.append(steps["service.wait"].end - started.end)
    out = {"service.queue_ms": _mean_ms(queue), "service.run_ms": _mean_ms(run),
           "service.wake_ms": _mean_ms(wake)}
    for metric, name in (("service.build_problem_ms", "service.build_problem"),
                         ("service.journal_ms", "service.journal"),
                         ("service.checkpoint_ms", "service.checkpoint")):
        out[metric] = _mean_ms([s.end - s.start for s in spans
                                if s.name == name and not s.dropped])
    return out


def job_fingerprints(spans):
    """Exact per-job counts, by job class (``acc``, ``alu``, and ``hit``
    for a submission served from the cache): for each class, the distinct
    count dicts seen.  One per class means every job of the class repeated
    the same counts exactly."""
    per_job = {}
    for root, counts in ledger.root_counts(spans):
        job_id = root.attrs.get("job_id")
        if job_id is None:
            continue
        if root.name == "service.submit" and root.attrs.get("cached"):
            job_id = ("hit", id(root))
        job = per_job.setdefault(job_id, {"kind": "hit", "counts": {}})
        if root.name == "service.submit" and not root.attrs.get("cached"):
            job["kind"] = root.attrs["design"][:3]
        for name, count in counts.items():
            job["counts"][name] = job["counts"].get(name, 0) + count
    by_class = {}
    for job in per_job.values():
        seen = by_class.setdefault(job["kind"], [])
        if job["counts"] not in seen:
            seen.append(job["counts"])
    return by_class


def _mean_ms(values):
    return 1000.0 * sum(values) / len(values) if values else 0.0


CLIENT_TARGETS = (
    ledger.Target("repro.service.client", "ServiceClient.submit",
                  "service.client_submit"),
)
