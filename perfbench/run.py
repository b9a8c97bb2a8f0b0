"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``ts_rv32i``: a Table 1 row, ``synthesize()`` called repeatedly on a
  freshly built problem (``table1.py``);
* ``service_stream``: a closed-loop job stream against a synthesis daemon
  in its own process (``stream.py``, ``daemon.py``).

With ``--trace 0`` the run is untraced and reports the end-to-end metrics:

* ``synth_s``: median wall of one synthesis the user waits for: the
  ``synthesize()`` call on a Table 1 row; submit to ``done`` of a
  cache-miss ``alu_machine`` job on the stream;
* ``ops_per_s``: verified results per second of measured time
  (syntheses; stream submissions, cache hits included);
* ``peak_rss_mb``: peak resident memory of the process that synthesizes
  (this process; the daemon on the stream);
* ``setup_s``: median over several fresh set-ups of process start to the
  first timed call (imports and problem construction; on the stream,
  daemon start, store open, connect and ping).

With ``--trace 1`` the run wraps each layer's entry points from outside
(``ledger.py``) and reports the per-layer metrics, per operation, and
writes the whole ledger to ``.perfbench/ledger-WORKLOAD-seedN.json``.

Every output is checked by an oracle that does not come from the
synthesizer (``oracles.py``).  The line before the result holds the
details: sample counts, the exact-count fingerprint and whether it
repeated, and on the stream the per-class latencies.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("ts_rv32i", "service_stream")
#: fresh set-ups timed per run; ``setup_s`` is their median
SETUP_TRIALS = 5
WORKDIR = ".perfbench"


def _setup_row(workload):
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload],
        stdout=subprocess.PIPE, text=True)
    with probe.stdout:
        line = probe.stdout.readline()
    elapsed = time.perf_counter() - start
    if probe.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed")
    return elapsed


def _fingerprint(workload, key, fingerprints):
    """The distinct exact-count fingerprints of a run, whether they
    repeated, and whether they match the recorded baseline."""
    distinct = []
    for fingerprint in fingerprints:
        if fingerprint not in distinct:
            distinct.append(fingerprint)
    with open(os.path.join(HERE, "baseline.json")) as handle:
        recorded = json.load(handle)["fingerprints"].get(workload, {}).get(key)
    return {"counts": distinct[0] if len(distinct) == 1 else distinct,
            "repeated": len(distinct) == 1,
            "matches_baseline": distinct == [recorded]}


def run_row(args):
    import table1

    detail = {}
    if not args.trace:
        setups = [_setup_row(args.workload) for _ in range(SETUP_TRIALS)]
        reps, failed = table1.run(args.workload, args.seed, args.seconds)
        times = [rep["synth_s"] for rep in reps]
        metrics = {
            "synth_s": (statistics.median(times), "s"),
            "ops_per_s": ((len(reps) - failed) / sum(times), "1/s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        detail["samples"] = {"synth_s": len(times), "setup_s": len(setups)}
        detail["synth_tail_s"] = ledger.tail(times)
        detail["fingerprint"] = _fingerprint(
            args.workload, "untraced",
            [rep["fingerprint"] for rep in reps if "fingerprint" in rep])
        return metrics, detail, len(reps), failed

    # Traced: alternate untraced and traced repetitions, untraced first so
    # lazy imports are done before any wrapper is installed.
    session = ledger.Session()
    reps, failed = table1.run(
        args.workload, args.seed, args.seconds, minimum=2,
        context=lambda index: session if index % 2 else nullcontext())
    plain = [rep["synth_s"] for rep in reps[0::2]]
    traced = [rep["synth_s"] for rep in reps[1::2]]
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    summary = ledger.summarize(session.recorder.spans, session.wall)
    layers = ledger.layer_metrics(session.recorder.spans, summary,
                                  session.counters, len(traced), 0, overhead)
    detail["ledger"] = _ledger_record(args, summary, layers)
    detail["fingerprint"] = _fingerprint(
        args.workload, "traced",
        [counts for _, counts in ledger.root_counts(session.recorder.spans)])
    if not summary["reconciled"]:
        failed += 1  # the ledger does not add up: the run is not usable
    return layers, detail, len(reps), failed


def _ledger_record(args, summary, layers, **extra):
    record = {
        "workload": args.workload, "seed": args.seed,
        "traced_wall_s": summary["traced_wall_s"],
        "unattributed_s": summary["unattributed_s"],
        "reconcile_error": summary["reconcile_error"],
        "reconciled": summary["reconciled"],
        "largest_layer": ledger.largest_layer(summary),
        "shares": {name: entry["self_s"] / summary["traced_wall_s"]
                   for name, entry in sorted(summary["layers"].items())},
        "layers": summary["layers"],
        "metrics": {name: value for name, (value, _) in layers.items()},
        **extra,
    }
    path = os.path.join(WORKDIR, f"ledger-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return {"path": path, "largest_layer": record["largest_layer"],
            "reconciled": record["reconciled"],
            "reconcile_error": record["reconcile_error"]}


def _stream_once(run_dir, tag, seed, seconds, traced=False):
    """One daemon, one closed-loop stream; returns records, elapsed,
    the daemon's exit report, the connect time and the client session."""
    import stream

    daemon = stream.Daemon(run_dir, tag, traced=traced)
    session = ledger.Session(stream.CLIENT_TARGETS) if traced \
        else nullcontext()
    try:
        client, setup = daemon.connect()
        try:
            with session:
                records, elapsed = stream.drive(client, seed, seconds)
        finally:
            client.close()
    finally:
        report = daemon.stop()
    return records, elapsed, report, setup, session


def run_stream(args, run_dir):
    import stream

    detail = {}
    if not args.trace:
        setups = []
        for trial in range(SETUP_TRIALS - 1):
            daemon = stream.Daemon(run_dir, f"setup{trial}")
            try:
                client, elapsed = daemon.connect()
                client.close()
            finally:
                daemon.stop()
            setups.append(elapsed)
        records, elapsed, report, setup, _ = _stream_once(
            run_dir, "main", args.seed, args.seconds)
        setups.append(setup)
        failed = stream.check(records)
        figures = stream.summary(records, elapsed)
        metrics = {
            "synth_s": (figures["long_job_p50_s"], "s"),
            "ops_per_s": (figures["jobs_per_s"], "1/s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        detail.update(figures)
        detail["samples"]["setup_s"] = len(setups)
        return metrics, detail, len(records), failed

    # Traced: half the time untraced (for the overhead), half traced.
    half = args.seconds / 2.0
    plain, plain_s, _, _, _ = _stream_once(run_dir, "plain", args.seed, half)
    records, elapsed, report, _, client = _stream_once(
        run_dir, "traced", args.seed, half, traced=True)
    failed = stream.check(plain) + stream.check(records)
    overhead = (len(plain) / plain_s) / (len(records) / elapsed) - 1.0
    layers = {name: tuple(value) for name, value in report["layers"].items()}
    layers["trace.overhead"] = (overhead, "ratio")
    client_summary = ledger.summarize(client.recorder.spans, client.wall)
    submits = [s.end - s.start for s in client.recorder.spans]
    service = dict(report["service"], **{
        "service.submit_ms": 1000.0 * statistics.median(submits)})
    summary = ledger.merge([report["summary"], client_summary])
    detail["ledger"] = _ledger_record(
        args, summary, layers, service=service,
        daemon_reconcile_error=report["summary"]["reconcile_error"],
        client_reconcile_error=client_summary["reconcile_error"])
    detail["service"] = service
    # One fingerprint per job class; each class must repeat exactly.
    by_class = report["fingerprint"]
    detail["fingerprint"] = {
        kind: _fingerprint(args.workload, f"traced.{kind}", counts)
        for kind, counts in sorted(by_class.items())}
    if not summary["reconciled"]:
        failed += 1
    return layers, detail, len(plain) + len(records), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no synthesizer sources under {SRC}: run from a checkout")
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    run_dir = os.path.join(WORKDIR, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.workload == "service_stream":
            metrics, detail, attempted, failed = run_stream(args, run_dir)
        else:
            metrics, detail, attempted, failed = run_row(args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
