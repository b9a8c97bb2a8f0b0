#!/usr/bin/env python3
"""Chaos lane: ``kill -9`` the synthesis daemon and prove nothing is lost.

Each round starts the daemon (``python -m repro.service``) on a fresh
state directory, submits a mix of accumulator and ALU jobs, then sends
``SIGKILL`` after a randomized delay — deliberately landing anywhere in
the pipeline: before the first checkpoint, between checkpoints, or after
completion.  The restarted daemon must then:

* re-admit every interrupted job and run all of them to ``done``;
* produce **bit-identical** designs to an undisturbed reference run
  (resume handles reuse solved instructions verbatim, and the engine's
  canonicalization makes the remainder deterministic);
* serve resubmissions of the same requests from the idempotency cache;
* leave **zero orphan processes** tied to the state directory;
* report ``recovery.ok`` through the ``health`` op after the kill;
* shut down gracefully (exit code 0) when asked.

The kill delays are drawn from a seeded RNG, so a failing round is
reproducible with ``--seed``.

A **telemetry round** runs first (skip with ``--no-telemetry-round``):
an undisturbed daemon with tracing on serves the same jobs while the
harness scrapes ``telemetry`` and ``health``, asserting nonzero
``service.request`` / ``solver.check`` latency percentiles; a
deliberately poisoned job (the chaos-gated ``chaos_poison`` design)
must then leave at least one schema-valid flight-recorder dump and flip
``health`` to ``degraded``; finally ``trace_report.py --job`` must
attribute every solver query of every completed job to its submission's
single trace id (0 orphans).

Run: ``PYTHONPATH=src python scripts/chaos_service.py [--rounds N]``
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.service import SynthesisService  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

DESIGNS = ["accumulator", "alu_machine"]


def reference_designs():
    """Undisturbed in-process runs: the bit-identical ground truth."""
    reference = {}
    with tempfile.TemporaryDirectory() as state:
        service = SynthesisService(state, fsync=False)
        service.start()
        try:
            for design in DESIGNS:
                ack = service.submit(design)
                job = service.wait(ack["job_id"], timeout=300)
                assert job["state"] == "done", job
                reference[design] = job["result"]["design"]
        finally:
            service.shutdown(timeout=15.0)
    return reference


def start_daemon(state_dir, stall, procs, trace=None, chaos=False):
    """Start a daemon on ``state_dir``; its ``Popen`` joins ``procs``
    before anything can fail, so the round's cleanup can stop it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if chaos:
        # Unlocks the chaos-only poison-pill design in the daemon.
        env["REPRO_SERVICE_CHAOS"] = "1"
    argv = [sys.executable, "-m", "repro.service",
            "--state-dir", state_dir, "--tcp", "127.0.0.1:0",
            "--stall", str(stall)]
    if trace:
        argv += ["--trace", trace]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            text=True)
    procs.append(proc)
    banner = json.loads(proc.stdout.readline())
    _host, port = banner["listening"]
    return proc, port, banner


def stop_daemons(procs):
    """Kill and reap every daemon of a round that is still running.

    A round that passes has already shut its daemons down; one that fails
    an assertion must not leave them behind."""
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def orphans_for(state_dir):
    """PIDs (other than ours) whose cmdline mentions the state dir."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        if state_dir in cmdline:
            found.append(int(entry))
    return found


def _assert_histogram(metrics, name):
    """The named latency histogram must exist with nonzero percentiles."""
    summary = metrics.get(f"hist.{name}")
    assert summary and summary["count"] > 0, (
        f"telemetry: histogram {name} never observed: {summary}")
    assert summary["p50"] and summary["p99"], (
        f"telemetry: histogram {name} has empty percentiles: {summary}")
    return summary


def telemetry_round(stall):
    """The undisturbed observability round: scrape, poison, attribute."""
    import glob

    from repro.obs.schema import load_events
    import trace_report

    state_dir = tempfile.mkdtemp(prefix="chaos-telemetry-")
    trace_path = os.path.join(state_dir, "trace.jsonl")
    procs = []
    try:
        proc, port, _banner = start_daemon(state_dir, stall, procs,
                                           trace=trace_path, chaos=True)
        with ServiceClient.connect_retry(port=port) as client:
            health = client.health()
            assert health["status"] == "ok", (
                f"fresh daemon is not healthy: {health}")
            assert health["checks"]["recovery"]["ok"], health

            acks = {design: client.submit(design) for design in DESIGNS}
            traces = {}
            for design, ack in acks.items():
                assert ack.get("trace_id"), (
                    f"submit ack carries no trace id: {ack}")
                traces[design] = ack["trace_id"]
                job = client.wait(ack["job_id"], timeout=300)
                assert job["state"] == "done", job

            telemetry = client.telemetry()
            metrics = telemetry["metrics"]
            request_hist = _assert_histogram(metrics, "service.request")
            _assert_histogram(metrics, "solver.check")
            _assert_histogram(metrics, "service.queue_wait")

            # The poison pill: crash-loops to failed-permanent, which
            # must trip the flight recorder and degrade health.
            poison = client.submit("chaos_poison")
            job = client.wait(poison["job_id"], timeout=120)
            assert job["state"] == "failed-permanent", (
                f"poison job ended {job}")
            health = client.health()
            assert health["status"] == "degraded", (
                f"health ignored a fresh poison verdict: {health}")
            assert not health["checks"]["last_crash"]["ok"], health
            assert health["checks"]["flight"]["dumps"] >= 1, health
            client.shutdown()
        proc.wait(timeout=60)
        assert proc.returncode == 0, proc.returncode

        # With tracing on, dumps archive beside the trace (the tracer's
        # artifact dir); without it they land in <state>/flight — both
        # are inside the state dir here.
        dumps = glob.glob(os.path.join(state_dir, "**", "*flight-*.jsonl"),
                          recursive=True)
        assert dumps, "poison verdict left no flight-recorder dump"
        for dump in dumps:
            events, summary = load_events(dump)  # schema-valid or raises
            assert events[0]["attrs"]["reason"].startswith("poison-"), (
                f"unexpected dump reason in {dump}")

        # Per-job attribution: every solver query of every completed job
        # must slice to its submission's trace id with zero orphans.
        for design, ack in acks.items():
            code = trace_report.main(
                [trace_path, "--job", ack["job_id"], "--assert-attributed"])
            assert code == 0, (
                f"trace_report --job {ack['job_id']} ({design}) exited "
                f"{code}")
        print(f"telemetry round: request p50={request_hist['p50']}s "
              f"p99={request_hist['p99']}s, {len(dumps)} flight dump(s), "
              f"{len(acks)} job(s) fully attributed", flush=True)
    finally:
        stop_daemons(procs)
        shutil.rmtree(state_dir, ignore_errors=True)


def one_round(index, rng, reference, stall, trace=None):
    state_dir = tempfile.mkdtemp(prefix=f"chaos-service-{index}-")
    procs = []
    try:
        proc, port, _banner = start_daemon(state_dir, stall, procs,
                                           trace=trace)
        with ServiceClient.connect_retry(port=port) as client:
            job_ids = {}
            for design in DESIGNS:
                ack = client.submit(design)
                assert ack["state"] == "accepted", ack
                job_ids[design] = ack["job_id"]
            # Scrape the live ops mid-flight: both must answer while
            # jobs run, and the request histogram is already charging.
            telemetry = client.telemetry()
            assert telemetry["metrics"]["hist.service.request"]["count"], (
                f"round {index}: no service.request observations")
            health = client.health()
            assert health["status"] in ("ok", "degraded"), health
        # The randomized kill point: anywhere from "no checkpoint yet"
        # to "everything already done".
        delay = rng.uniform(0.0, 4 * stall + 1.0)
        time.sleep(delay)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        proc2, port2, banner2 = start_daemon(state_dir, 0.0, procs)
        recovery = banner2["recovery"]
        with ServiceClient.connect_retry(port=port2) as client:
            # The kill-9 recovery gate: the restarted daemon must report
            # a healthy journal and a completed recovery pass.
            health = client.health()
            assert health["checks"]["recovery"]["ok"], (
                f"round {index}: recovery unhealthy after kill -9: "
                f"{health}")
            assert health["checks"]["journal"]["ok"], (
                f"round {index}: journal unhealthy after kill -9: "
                f"{health}")
            for design, job_id in job_ids.items():
                job = client.wait(job_id, timeout=300)
                assert job["state"] == "done", (
                    f"round {index}: {design} ended {job}")
                got = job["result"]["design"]
                assert got == reference[design], (
                    f"round {index}: {design} recovery is not "
                    f"bit-identical to the reference run")
            # Idempotency: identical submissions are cache hits now.
            hits = 0
            for design in DESIGNS:
                again = client.submit(design)
                assert again["cached"], (
                    f"round {index}: {design} missed the result cache "
                    f"after recovery: {again}")
                hits += 1
            client.shutdown()
        proc2.wait(timeout=60)
        assert proc2.returncode == 0, (
            f"round {index}: graceful shutdown exited "
            f"{proc2.returncode}")
        leaked = orphans_for(state_dir)
        assert not leaked, (
            f"round {index}: orphan processes survived: {leaked}")
        print(f"round {index}: killed after {delay:.2f}s "
              f"(recovery: replayed={recovery['replayed']} "
              f"requeued={recovery['requeued']} "
              f"torn_tail={recovery['torn_tail']}), "
              f"{len(DESIGNS)} jobs bit-identical, {hits} cache hits, "
              f"0 orphans", flush=True)
    finally:
        stop_daemons(procs)
        shutil.rmtree(state_dir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(
        description="Kill -9 the synthesis daemon at randomized points "
        "and assert bit-identical recovery.")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20240808)
    parser.add_argument("--stall", type=float, default=0.3,
                        help="per-checkpoint stall in the daemon, so "
                        "kills land mid-job often")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record the first (killed) daemon's obs "
                        "trace to PATH")
    parser.add_argument("--no-telemetry-round", action="store_true",
                        help="skip the undisturbed telemetry/poison/"
                        "attribution round")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    if not args.no_telemetry_round:
        print("telemetry round (undisturbed, traced, poisoned)...",
              flush=True)
        telemetry_round(args.stall)
    print("computing reference designs (undisturbed runs)...", flush=True)
    reference = reference_designs()
    for index in range(args.rounds):
        one_round(index, rng, reference, args.stall,
                  trace=args.trace if index == 0 else None)
    print(f"chaos lane passed: {args.rounds} round(s), every kill point "
          "recovered bit-identically")
    return 0


if __name__ == "__main__":
    sys.exit(main())
