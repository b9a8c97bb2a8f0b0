"""A small JSON-lines client for the synthesis service.

Speaks the :mod:`repro.service.protocol` framing over a Unix or TCP
socket, raises the daemon's typed errors locally
(:class:`ServiceError` carrying ``type``/``reason``/``retryable``), and
wraps the common ops.  Used by the smoke/chaos harnesses and
``python -m repro.service.client``-style scripting.
"""

from __future__ import annotations

import socket
import time

from repro.obs.trace import new_trace_id
from repro.service.protocol import decode_line, encode_line

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A typed error response from the daemon."""

    def __init__(self, error):
        super().__init__(error.get("message", "service error"))
        self.type = error.get("type", "service.internal")
        self.reason = error.get("reason", "internal")
        self.retryable = bool(error.get("retryable", False))

    @classmethod
    def timeout(cls, exc):
        """A client-side socket timeout as a typed, retryable error."""
        return cls({
            "type": "service.client",
            "reason": "timeout",
            "message": f"request timed out: {exc or 'socket timeout'}",
            "retryable": True,
        })


class ServiceClient:
    """One connection to the daemon; requests are serialized on it."""

    def __init__(self, socket_path=None, host=None, port=None,
                 timeout=180.0):
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(socket_path)
        else:
            self._sock = socket.create_connection(
                (host or "127.0.0.1", port), timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def close(self):
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    # -- plumbing --------------------------------------------------------

    def request(self, **message):
        """Send one request dict; return the ``ok`` payload or raise.

        A socket timeout surfaces as a *typed*
        ``ServiceError(reason="timeout", retryable=True)`` — callers get
        the same error shape for client-side deadlines as for daemon
        rejections instead of a raw ``socket.timeout`` leaking through.
        """
        try:
            self._sock.sendall(encode_line(message))
            line = self._reader.readline()
        except socket.timeout as exc:
            raise ServiceError.timeout(exc) from exc
        if not line:
            raise ConnectionError("service closed the connection")
        response = decode_line(line)
        if not response.get("ok"):
            raise ServiceError(response.get("error", {}))
        return response

    # -- convenience ops -------------------------------------------------

    def ping(self):
        return self.request(op="ping")

    def submit(self, design, mode="per_instruction", tenant="default",
               timeout=None, trace_id=None):
        """Submit a job, minting its cross-process trace context.

        The trace id rides the request as ``trace``; the daemon stamps
        every event the job produces — across runner threads and worker
        subprocesses — with it, and echoes it in the ack
        (``trace_id``), so the submitter can later slice the daemon's
        trace with ``scripts/trace_report.py --job``.
        """
        return self.request(op="submit", design=design, mode=mode,
                            tenant=tenant, timeout=timeout,
                            trace=trace_id or new_trace_id())

    def status(self, job_id):
        return self.request(op="status", job_id=job_id)["job"]

    def wait(self, job_id, timeout=120.0):
        return self.request(op="wait", job_id=job_id,
                            timeout=timeout)["job"]

    def stats(self):
        return self.request(op="stats")

    def telemetry(self):
        """Metrics snapshot + flight recorder status."""
        return self.request(op="telemetry")

    def health(self):
        """Typed health checks (``status``/``checks``/``draining``)."""
        return self.request(op="health")

    def shutdown(self):
        return self.request(op="shutdown")

    @staticmethod
    def connect_retry(socket_path=None, host=None, port=None,
                      deadline=10.0, pause=0.05):
        """Connect, retrying while the daemon is still binding its socket."""
        stop = time.monotonic() + deadline
        while True:
            try:
                return ServiceClient(socket_path=socket_path, host=host,
                                     port=port)
            except (FileNotFoundError, ConnectionError, OSError):
                if time.monotonic() >= stop:
                    raise
                time.sleep(pause)
