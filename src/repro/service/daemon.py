"""The ``repro-mis serve`` daemon: a sharded multi-session MIS service.

:class:`MISService` ties the pieces together:

* it spawns ``shards`` worker processes (:mod:`repro.service.shard`), each
  owning a :class:`~repro.service.host.SessionHost` over the shared spool
  directory;
* it listens on a unix socket or localhost TCP
  (:mod:`repro.service.protocol` addresses) with one thread per client
  connection, and routes every session-targeted request to the owning
  shard by a stable hash of the session id -- ``crc32(id) % shards`` --
  so a restarted daemon with the same shard count routes identically;
* at startup it scans the spool for checkpoints left by a previous life
  and hands each shard its share to adopt, so sessions drained at the last
  SIGTERM resume exactly, on demand;
* on shutdown it drains every shard: each checkpoints all live sessions to
  the spool before exiting.

Daemon-level ops (answered without touching a shard): ``ping``, ``stats``
(aggregated across shards), ``list`` (ditto) and ``shutdown``.  Everything
else must carry a ``session`` parameter and lands on one shard.

:func:`run_service` is the CLI entry: it installs the SIGTERM/SIGINT ->
graceful-drain handler, prints the ``listening on <address>`` line (tests
and scripts parse it to discover an ephemeral port) and blocks until a
signal or a ``shutdown`` request arrives.
"""

from __future__ import annotations

import os
import signal
import socketserver
import sys
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.service import protocol
from repro.service.host import SESSION_ID_PATTERN, SPOOL_SUFFIX, HostConfig
from repro.service.shard import ShardHandle, spawn_shards

#: Ops the daemon answers itself; everything else routes to a shard.
DAEMON_OPS = ("ping", "stats", "list", "shutdown")

#: Shard ops that fan out to every shard and concatenate/aggregate.
_FANOUT_OPS = ("list", "stats")


def shard_for(session_id: str, num_shards: int) -> int:
    """Stable session -> shard routing (identical across daemon restarts)."""
    return zlib.crc32(session_id.encode("utf-8")) % num_shards


@dataclass
class ServiceConfig:
    """Everything ``repro-mis serve`` needs to start."""

    spool_dir: str
    bind: str = "tcp:127.0.0.1:0"
    shards: int = 2
    #: Per-shard live-session capacity before LRU eviction.
    max_live: int = 64
    #: Preferred rehydration backends (see :class:`HostConfig`).
    engine: Optional[str] = None
    network: Optional[str] = None

    def host_config(self) -> HostConfig:
        return HostConfig(
            spool_dir=self.spool_dir,
            max_live=self.max_live,
            engine=self.engine,
            network=self.network,
        )


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: a newline-delimited JSON request pipeline."""

    def handle(self) -> None:  # pragma: no cover - exercised via live sockets
        service: "MISService" = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                message = protocol.read_message(self.rfile)
            except protocol.WireError as failure:
                protocol.write_message(
                    self.wfile, protocol.error(str(failure), kind="bad-request")
                )
                return  # framing is broken; drop the connection
            if message is None:
                return
            response = service.dispatch(message)
            try:
                protocol.write_message(self.wfile, response)
            except (BrokenPipeError, OSError):
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _UnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True

else:  # pragma: no cover - non-posix
    _UnixServer = None


class MISService:
    """The daemon object: shard pool + socket server + graceful shutdown."""

    def __init__(self, config: ServiceConfig) -> None:
        if config.shards < 1:
            raise ValueError("shards must be at least 1")
        self._config = config
        spool = Path(config.spool_dir)
        spool.mkdir(parents=True, exist_ok=True)
        # Shards first: they must exist before the first connection, and a
        # socket created afterwards is never inherited by a worker.
        assignments = self._spool_assignments(spool, config.shards)
        self._shards: tuple = spawn_shards(
            config.shards, config.host_config(), assignments
        )
        self._family, location = protocol.parse_address(config.bind)
        self._unix_path: Optional[str] = None
        if self._family == "unix":
            if _UnixServer is None:  # pragma: no cover - non-posix
                raise protocol.WireError(
                    "unix sockets are unavailable on this platform; use tcp:"
                )
            self._unix_path = location
            if os.path.exists(location):
                os.unlink(location)  # a stale socket from a crashed daemon
            self._server = _UnixServer(location, _Handler)
        else:
            self._server = _TCPServer(location, _Handler)
        self._server.service = self  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = False
        self._lock = threading.Lock()
        #: Set by the ``shutdown`` op (and the CLI's signal handler).
        self.shutdown_requested = threading.Event()

    @staticmethod
    def _spool_assignments(spool: Path, shards: int) -> Dict[int, List[str]]:
        """Split spooled session ids from a previous life across the shards."""
        assignments: Dict[int, List[str]] = {index: [] for index in range(shards)}
        for path in sorted(spool.glob(f"*{SPOOL_SUFFIX}")):
            session_id = path.name[: -len(SPOOL_SUFFIX)]
            if SESSION_ID_PATTERN.match(session_id):
                assignments[shard_for(session_id, shards)].append(session_id)
        return assignments

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound listening address (actual port when binding port 0)."""
        if self._family == "unix":
            return protocol.format_address("unix", self._unix_path)
        host, port = self._server.server_address[:2]
        return protocol.format_address("tcp", (host, port))

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    # ------------------------------------------------------------------
    # Request dispatch (shared by socket handler and in-process callers)
    # ------------------------------------------------------------------
    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one request message with one response message."""
        op = message.get("op")
        params = message.get("params", {})
        if not isinstance(op, str):
            return protocol.error(f"request needs a string 'op', got {op!r}", "bad-request")
        if not isinstance(params, dict):
            return protocol.error("'params' must be an object", "bad-request")
        if op == "ping":
            return protocol.ok(
                {
                    "service": "repro-mis",
                    "protocol": protocol.PROTOCOL_VERSION,
                    "shards": self.num_shards,
                    "address": self.address,
                }
            )
        if op == "shutdown":
            self.shutdown_requested.set()
            return protocol.ok({"shutting_down": True})
        if op in _FANOUT_OPS:
            return self._fanout(op, params)
        session_id = params.get("session")
        if not isinstance(session_id, str) or not session_id:
            return protocol.error(
                f"op {op!r} needs a 'session' parameter", "bad-request"
            )
        shard: ShardHandle = self._shards[shard_for(session_id, self.num_shards)]
        return shard.request(op, params)

    def _fanout(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        responses = [shard.request(op, params) for shard in self._shards]
        for response in responses:
            if not response.get("ok"):
                return response
        if op == "list":
            rows: List[Dict[str, Any]] = []
            for response in responses:
                rows.extend(response["result"])
            return protocol.ok(sorted(rows, key=lambda row: row["session"]))
        # stats: sum counters, keep per-shard detail
        totals: Dict[str, Any] = {"shards": self.num_shards}
        per_shard = [response["result"] for response in responses]
        for key in ("sessions", "live", "evicted", "ops", "applied",
                    "evictions", "rehydrations"):
            totals[key] = sum(result[key] for result in per_shard)
        totals["per_shard"] = per_shard
        return protocol.ok(totals)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Serve in a background thread (in-process daemon for tests/examples)."""
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, name="repro-mis-serve", daemon=True
        )
        self._serve_thread.start()

    def stop(self, drain: bool = True) -> List[str]:
        """Stop listening and shut the shard pool down.

        With ``drain=True`` (the graceful path) every shard checkpoints all
        its live sessions to the spool first; the returned list holds the
        drained session ids.  Safe to call twice.
        """
        with self._lock:
            if self._stopped:
                return []
            self._stopped = True
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        drained: List[str] = []
        for shard in self._shards:
            if drain:
                report = shard.drain()
                if report.get("ok"):
                    drained.extend(report["result"]["drained"])
            else:
                shard.drain()  # the sentinel is also how workers exit
        for shard in self._shards:
            shard.join(timeout=10.0)
        if self._unix_path and os.path.exists(self._unix_path):
            try:
                os.unlink(self._unix_path)
            except OSError:  # pragma: no cover - racing rm
                pass
        return sorted(drained)

    # Context manager sugar for tests and examples.
    def __enter__(self) -> "MISService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_service(config: ServiceConfig, stream=None) -> int:
    """Run a daemon until SIGTERM/SIGINT or a ``shutdown`` request (CLI path).

    Prints ``listening on <address>`` once the socket is bound -- subprocess
    tests bind ``tcp:127.0.0.1:0`` and parse this line for the real port --
    and a drain summary on the way out.
    """
    stream = stream if stream is not None else sys.stdout
    service = MISService(config)

    def _request_shutdown(signum, frame):  # pragma: no cover - signal path
        service.shutdown_requested.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _request_shutdown)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        service.start()
        print(f"listening on {service.address}", file=stream, flush=True)
        print(
            f"shards={service.num_shards} spool={config.spool_dir} "
            f"max-live={config.max_live}",
            file=stream,
            flush=True,
        )
        service.shutdown_requested.wait()
        drained = service.stop(drain=True)
        print(f"drained {len(drained)} session(s) to spool", file=stream, flush=True)
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    return 0
