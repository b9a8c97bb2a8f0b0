"""Process-level checks for the sandboxed solver children (Linux ``/proc``).

The containment claims are about real processes and threads, so the
tests look them up in the operating system rather than asking the
backend what it believes it spawned.
"""

import os
import threading

WORKER_MODULE = b"repro.runtime.incremental_worker"
READER_THREAD = "incremental-worker-reader"


def live_worker_pids():
    """PIDs of this process's children still running the worker module."""
    me = str(os.getpid())
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read()
        except OSError:
            continue
        # The command name may hold spaces or parentheses: parse the
        # fields after the last ')' (state, then ppid).
        ppid = stat.rsplit(")", 1)[1].split()[1]
        if ppid == me and WORKER_MODULE in cmdline:
            pids.add(int(entry))
    return pids


def reader_threads():
    """Live threads draining a worker child's stdout."""
    return {t for t in threading.enumerate() if t.name == READER_THREAD}
