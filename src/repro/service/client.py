"""Thin client for the ``repro-mis serve`` daemon.

:class:`ServiceClient` wraps one socket connection with the wire protocol of
:mod:`repro.service.protocol` and exposes each service op as a method.  It
connects lazily on the first request, keeps the connection open across
requests (the protocol is a strict in-order pipeline), and works as a
context manager::

    from repro.service import ServiceClient

    with ServiceClient("tcp:127.0.0.1:7411") as client:
        client.create("demo", spec_dict)
        client.apply_batch("demo", steps=10)
        print(client.query("demo", "mis")["mis"])

Error responses become :class:`ServiceClientError` with the wire ``kind``
attached, so callers can branch on ``error.kind == "unknown-session"``
without parsing messages.  Transport failures (the daemon restarted between
requests, a half-closed keep-alive socket) surface the same way with kind
``"connection"`` -- never as a bare :class:`BrokenPipeError` -- and
*idempotent* ops (``ping`` / ``query`` / ``list`` / ``stats``) transparently
reconnect and retry once before giving up.  Mutating ops never retry: a
``create`` or ``apply`` that died mid-flight may or may not have been
applied, and replaying it blindly could double-apply workload units.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, List, Optional

from repro.service import protocol


class ServiceClientError(RuntimeError):
    """A request the daemon answered with an error response.

    ``kind`` carries the wire error kind; transport-level failures use the
    client-side kind ``"connection"``.
    """

    def __init__(self, message: str, kind: str = "internal") -> None:
        super().__init__(message)
        self.kind = kind


#: Ops safe to retry on a fresh connection: they read daemon/session state
#: without mutating it, so a replay after an ambiguous failure is harmless.
_IDEMPOTENT_OPS = frozenset({"ping", "query", "list", "stats"})


class ServiceClient:
    """One connection to a daemon; one method per service op."""

    def __init__(self, address: protocol.Address, timeout: Optional[float] = 30.0):
        self._address = address
        self._timeout = timeout
        self._socket: Optional[socket.socket] = None
        self._reader = None
        self._writer = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        """Open the connection now (otherwise the first request does)."""
        if self._socket is None:
            self._socket = protocol.connect(self._address, timeout=self._timeout)
            self._reader = self._socket.makefile("rb")
            self._writer = self._socket.makefile("wb")
        return self

    def close(self) -> None:
        """Close the connection (the daemon keeps the sessions, not us)."""
        for stream in (self._reader, self._writer):
            if stream is not None:
                try:
                    stream.close()
                except OSError:  # pragma: no cover - already gone
                    pass
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:  # pragma: no cover - already gone
                pass
        self._socket = self._reader = self._writer = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The request primitive
    # ------------------------------------------------------------------
    def request(self, op: str, **params: Any) -> Any:
        """Send one request; return the ``result`` or raise ServiceClientError.

        A dead connection (the daemon restarted since the last request) is
        reported as kind ``"connection"``; idempotent ops retry once on a
        fresh connection first.
        """
        try:
            return self._request_once(op, params)
        except ServiceClientError as failure:
            if failure.kind != "connection" or op not in _IDEMPOTENT_OPS:
                raise
        # One reconnect attempt: the previous life's keep-alive socket is
        # gone, but the restarted daemon (same address) may be healthy.
        return self._request_once(op, params)

    def _request_once(self, op: str, params: Dict[str, Any]) -> Any:
        try:
            self.connect()
            protocol.write_message(self._writer, protocol.request(op, params))
            response = protocol.read_message(self._reader)
        except (BrokenPipeError, ConnectionError, OSError) as failure:
            self.close()
            raise ServiceClientError(
                f"lost connection to the daemon at {self._address!r} "
                f"(op {op!r}): {failure}",
                kind="connection",
            ) from None
        if response is None:
            self.close()
            raise ServiceClientError(
                f"daemon closed the connection mid-request (op {op!r})",
                kind="connection",
            )
        if response.get("ok"):
            return response.get("result")
        raise ServiceClientError(
            response.get("error", "unknown error"),
            kind=response.get("kind", "internal"),
        )

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        """Daemon liveness, protocol version and shard count."""
        return self.request("ping")

    def create(self, session: str, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Create a session from a ``ScenarioSpec.to_dict()`` form."""
        return self.request("create", session=session, spec=spec)

    def apply(self, session: str, steps: int = 1) -> Dict[str, Any]:
        """Advance the session by ``steps`` workload units."""
        return self.request("apply", session=session, steps=steps)

    def apply_batch(self, session: str, steps: int) -> Dict[str, Any]:
        """Multi-unit ingestion (the service's batched hot path)."""
        return self.request("apply_batch", session=session, steps=steps)

    def query(self, session: str, what: str = "status") -> Dict[str, Any]:
        """Read ``status`` / ``mis`` / ``states`` / ``metrics``."""
        return self.request("query", session=session, what=what)

    def checkpoint(self, session: str) -> Dict[str, Any]:
        """Write the session's spool checkpoint without evicting it."""
        return self.request("checkpoint", session=session)

    def evict(self, session: str) -> Dict[str, Any]:
        """Checkpoint to the spool and drop the live session."""
        return self.request("evict", session=session)

    def close_session(self, session: str) -> Dict[str, Any]:
        """Forget the session and delete its spool checkpoint."""
        return self.request("close", session=session)

    def list_sessions(self) -> List[Dict[str, Any]]:
        """All sessions across all shards."""
        return self.request("list")

    def stats(self) -> Dict[str, Any]:
        """Aggregated daemon statistics (plus per-shard detail)."""
        return self.request("stats")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain and exit (same path as SIGTERM)."""
        return self.request("shutdown")
