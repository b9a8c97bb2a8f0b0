"""Run the synthesis daemon: ``python -m repro.service``.

Examples::

    python -m repro.service --state-dir /tmp/synth --socket /tmp/synth.sock
    python -m repro.service --state-dir /tmp/synth --tcp 127.0.0.1:7341

The daemon prints one JSON line (``{"listening": ...}``) once the socket
is bound, so harnesses can wait for readiness by reading stdout.  Send
SIGTERM (or SIGINT) for a graceful drain; ``kill -9`` to exercise the
crash-recovery path — the next start replays the journal and finishes
the stranded jobs.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.daemon import SynthesisService
from repro.smt.backends import SolverConfig


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Crash-safe control-logic synthesis daemon.",
    )
    parser.add_argument("--state-dir", required=True,
                        help="durable state directory (journal, snapshot, "
                        "checkpoints)")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--socket", help="Unix socket path to listen on")
    group.add_argument("--tcp", metavar="HOST:PORT",
                       help="TCP address to listen on (PORT may be 0 for "
                       "an ephemeral port)")
    parser.add_argument("--threads", type=int, default=1,
                        help="runner worker threads (default 1)")
    parser.add_argument("--backend", default=None,
                        help="solver backend name for all jobs")
    parser.add_argument("--max-queue-depth", type=int, default=32)
    parser.add_argument("--max-active-per-tenant", type=int, default=8)
    parser.add_argument("--tenant-conflict-cap", type=int, default=None)
    parser.add_argument("--max-crashes", type=int, default=3)
    parser.add_argument("--stall", type=float, default=0.0,
                        help="sleep this many seconds after every "
                        "checkpoint (chaos-test determinism knob)")
    parser.add_argument("--no-fsync", action="store_true",
                        help="skip fsync on journal/handle writes "
                        "(tests only; voids the durability contract)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record an obs/v1 JSONL trace of the "
                        "daemon's lifetime to PATH")
    args = parser.parse_args(argv)

    if args.trace:
        from repro.obs.trace import Tracer, install
        install(Tracer(args.trace))

    service = SynthesisService(
        args.state_dir, config=SolverConfig(backend=args.backend),
        threads=args.threads,
        max_queue_depth=args.max_queue_depth,
        max_active_per_tenant=args.max_active_per_tenant,
        tenant_conflict_cap=args.tenant_conflict_cap,
        max_crashes=args.max_crashes, fsync=not args.no_fsync,
        stall=args.stall,
    )

    host = port = None
    if args.tcp:
        host, _, port_text = args.tcp.rpartition(":")
        host, port = host or "127.0.0.1", int(port_text)

    def ready(address):
        if isinstance(address, tuple):
            payload = {"listening": list(address)}
        else:
            payload = {"listening": address}
        payload["recovery"] = service.recovery_report
        print(json.dumps(payload), flush=True)

    service.serve(socket_path=args.socket, host=host, port=port,
                  ready=ready)
    return 0


if __name__ == "__main__":
    sys.exit(main())
