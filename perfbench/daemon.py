"""Daemon side of the service workload.

Registers the stream's renamed problem copies, then serves a
``SynthesisService`` (fsync on, one runner thread) on a Unix socket until
SIGTERM.  Prints ``{"listening": ...}`` once the socket is bound and, at
exit, one JSON line with the process's peak resident memory and, with
``--trace``, the per-layer ledger of its lifetime.

    python3 perfbench/daemon.py --state-dir DIR --socket PATH [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ledger  # noqa: E402
import stream  # noqa: E402


def _exit_with_parent(parent):
    """Drain as on SIGTERM once the process that started this daemon is
    gone, so a killed benchmark run leaves no daemon behind."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os.kill(os.getpid(), signal.SIGTERM)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.service import problems
    from repro.service.daemon import SynthesisService

    for kind in stream.CLASSES:
        for serial in range(stream.COPIES):
            name = f"{kind}_{serial:05d}"
            problems.register_problem(
                name, functools.partial(stream.copy_problem, name))
    service = SynthesisService(args.state_dir, threads=1, fsync=True)

    def ready(address):
        print(json.dumps({"listening": address}), flush=True)

    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()
    session = ledger.Session() if args.trace else contextlib.nullcontext()
    with session:
        service.serve(socket_path=args.socket, ready=ready)
    report = {"peak_rss_mb":
              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        spans = session.recorder.spans
        summary = ledger.summarize(spans, session.wall)
        submits = [s for s in spans if s.name == "service.submit"]
        hits = sum(1 for s in submits if s.attrs.get("cached"))
        report.update(
            summary=summary, submissions=len(submits),
            layers=ledger.layer_metrics(spans, summary, session.counters,
                                        max(1, len(submits)), hits, 0.0),
            service=stream.service_breakdown(spans),
            fingerprint=stream.job_fingerprints(spans))
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
