"""Client-side transport behaviour of :class:`repro.service.ServiceClient`.

A daemon restart between requests leaves the client holding a dead
keep-alive socket.  These tests pin the contract for that case:

* transport failures surface as :class:`ServiceClientError` with kind
  ``"connection"`` -- never as a bare :class:`BrokenPipeError`;
* idempotent ops (``ping`` / ``query`` / ``list`` / ``stats``) reconnect
  and retry exactly once;
* mutating ops (``apply`` et al.) never retry -- an ambiguous failure could
  otherwise double-apply workload units.

The daemon is played by a minimal in-test server: one accept loop that
answers a configurable number of requests per connection and then drops it,
which is exactly what a restart looks like from the client's side.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.service import ServiceClient, ServiceClientError
from repro.service import protocol


class _FlakyServer:
    """Answers ``requests_per_connection`` requests, then drops the socket."""

    def __init__(self, requests_per_connection: int = 1) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._per_connection = requests_per_connection
        self.address = "tcp:127.0.0.1:{}".format(self._listener.getsockname()[1])
        self.requests: list = []
        self.connections = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with connection:
                reader = connection.makefile("rb")
                writer = connection.makefile("wb")
                for _ in range(self._per_connection):
                    try:
                        message = protocol.read_message(reader)
                    except protocol.WireError:
                        break
                    if message is None:
                        break
                    self.requests.append(message)
                    protocol.write_message(writer, protocol.ok({"op": message["op"]}))
                # Hard-close (shutdown, not just close: the makefile objects
                # would otherwise keep the fd open): from the client's side
                # this is indistinguishable from a daemon restart between
                # requests.
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    def stop(self) -> None:
        # close() alone does not wake a thread blocked in accept() on Linux,
        # so a "stopped" server could still answer; shutdown() does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "flaky server thread did not exit"


@pytest.fixture
def flaky_server():
    server = _FlakyServer(requests_per_connection=1)
    yield server
    server.stop()


def test_idempotent_op_reconnects_once(flaky_server):
    with ServiceClient(flaky_server.address, timeout=10) as client:
        assert client.ping() == {"op": "ping"}
        # The server dropped the connection after the first answer; the next
        # ping must transparently reconnect and succeed.
        assert client.stats() == {"op": "stats"}
    assert flaky_server.connections == 2
    assert [message["op"] for message in flaky_server.requests] == ["ping", "stats"]


def test_mutating_op_never_retries(flaky_server):
    with ServiceClient(flaky_server.address, timeout=10) as client:
        assert client.ping() == {"op": "ping"}
        with pytest.raises(ServiceClientError) as failure:
            client.apply("some-session", steps=3)
        assert failure.value.kind == "connection"
    # The dead keep-alive socket is only discovered at read time, so the
    # apply rode connection 1 and -- being non-idempotent -- was NOT
    # replayed on a fresh connection.
    assert flaky_server.connections == 1
    assert [message["op"] for message in flaky_server.requests] == ["ping"]


def test_connection_failure_kind_when_daemon_is_gone(tmp_path):
    # A socket path that never existed: nothing can be listening on it.
    client = ServiceClient(f"unix:{tmp_path / 'gone.sock'}", timeout=2)
    with pytest.raises(ServiceClientError) as failure:
        client.ping()
    assert failure.value.kind == "connection"
    # Mutating ops against a dead daemon fail the same typed way.
    with pytest.raises(ServiceClientError) as mutation_failure:
        client.apply("s", steps=1)
    assert mutation_failure.value.kind == "connection"
