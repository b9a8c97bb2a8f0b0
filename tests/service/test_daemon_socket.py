"""The JSON-lines socket protocol, served over a real Unix socket."""

import threading

import pytest

from repro.service import ServiceClient, ServiceError, SynthesisService
from repro.service.protocol import decode_line, encode_line, error_response


@pytest.fixture
def served(tmp_path):
    """A daemon serving on a Unix socket in a background thread."""
    socket_path = str(tmp_path / "svc.sock")
    service = SynthesisService(tmp_path / "state", fsync=False)
    ready = threading.Event()
    thread = threading.Thread(
        target=service.serve,
        kwargs={"socket_path": socket_path, "install_signals": False,
                "ready": lambda _addr: ready.set()},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10.0)
    yield socket_path, service
    service.drain_event.set()
    service._serve_stop.set()
    thread.join(15.0)


def test_ping_submit_wait_over_the_socket(served):
    socket_path, _service = served
    with ServiceClient.connect_retry(socket_path=socket_path) as client:
        assert client.ping()["pong"]
        ack = client.submit("accumulator")
        assert ack["state"] == "accepted"
        job = client.wait(ack["job_id"], timeout=60)
        assert job["state"] == "done"
        assert job["result"]["design"].startswith("design ")
        stats = client.stats()
        assert stats["jobs"] == {"done": 1}


def test_telemetry_and_health_over_the_socket(served):
    socket_path, _service = served
    with ServiceClient.connect_retry(socket_path=socket_path) as client:
        ack = client.submit("accumulator")
        assert client.wait(ack["job_id"], timeout=60)["state"] == "done"
        telemetry = client.telemetry()
        assert set(telemetry) == {"ok", "metrics", "flight"}
        assert telemetry["metrics"]["hist.service.request"]["count"] > 0
        assert client.health()["status"] == "ok"


def test_typed_errors_cross_the_wire(served):
    socket_path, _service = served
    with ServiceClient.connect_retry(socket_path=socket_path) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.submit("no_such_design")
        assert excinfo.value.type == "service.admission"
        assert excinfo.value.reason == "unknown-design"
        assert not excinfo.value.retryable
        with pytest.raises(ServiceError) as excinfo:
            client.request(op="bogus")
        assert excinfo.value.type == "service.request"


def test_two_clients_share_one_daemon(served):
    socket_path, _service = served
    with ServiceClient.connect_retry(socket_path=socket_path) as one, \
            ServiceClient.connect_retry(socket_path=socket_path) as two:
        ack = one.submit("accumulator")
        job = two.wait(ack["job_id"], timeout=60)
        assert job["state"] == "done"
        # The second client's identical submission is a cache hit.
        again = two.submit("accumulator")
        assert again["cached"]


def test_protocol_line_roundtrip():
    line = encode_line({"op": "ping"})
    assert line.endswith(b"\n")
    assert decode_line(line) == {"op": "ping"}
    with pytest.raises(ValueError):
        decode_line(b"[1, 2]\n")


def test_error_response_shapes():
    from repro.service import AdmissionRejected, JournalFault

    shaped = error_response(AdmissionRejected(reason="queue-full"))
    assert shaped["error"]["type"] == "service.admission"
    assert shaped["error"]["retryable"]
    shaped = error_response(JournalFault("disk on fire"))
    assert shaped["error"]["type"] == "service.journal"
    assert shaped["error"]["reason"] == "journal-fault"
    shaped = error_response(KeyError("job_id"))
    assert shaped["error"]["type"] == "service.request"
    shaped = error_response(RuntimeError("?"))
    assert shaped["error"]["type"] == "service.internal"
