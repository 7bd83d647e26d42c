"""Wire protocol of the ``repro-mis serve`` daemon (stdlib only).

The service speaks newline-delimited JSON over a stream socket -- a unix
domain socket or localhost TCP.  One request is one JSON object on one
line::

    {"op": "create", "params": {"spec": {...}}}\n

and one response is one JSON object on one line::

    {"ok": true, "result": {...}}\n
    {"ok": false, "error": "no such session 's7'", "kind": "unknown-session"}\n

A connection is a plain request/response pipeline: the client may keep it
open and send any number of requests in order.  Every value on the wire is
plain JSON -- scenario specs travel as their exact
:meth:`~repro.scenario.spec.ScenarioSpec.to_dict` form, node labels as the
trace codec of :func:`repro.workloads.trace.encode_node` -- so any language
with a socket and a JSON parser can talk to the daemon.

Addresses are written ``tcp:HOST:PORT`` or ``unix:PATH`` everywhere (CLI
flags, client constructors, the daemon's "listening on" line);
:func:`parse_address` / :func:`format_address` are the single
parse/print pair.

Error ``kind`` values the daemon uses:

* ``bad-request`` -- malformed JSON, unknown op, missing/invalid parameters;
* ``spec-error`` -- a scenario spec that fails validation (the message
  carries the spec layer's did-you-mean hints);
* ``unknown-session`` -- the session id is neither live nor spooled;
* ``session-exists`` -- ``create`` with an id that is already taken;
* ``internal`` -- anything else (the daemon never crashes a shard on a
  request; the traceback summary comes back in ``error``).
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional, Tuple, Union

#: Bump when the request/response shape changes incompatibly; ``ping``
#: reports it so clients can check before issuing real work.  Version 2
#: dropped ``mis_size`` from the session status every reply carries.
PROTOCOL_VERSION = 2

#: Error kinds (see module docstring).
ERROR_KINDS = (
    "bad-request",
    "spec-error",
    "unknown-session",
    "session-exists",
    "internal",
)

Address = Union[str, Tuple[str, int]]


class WireError(ValueError):
    """A message that cannot be framed or parsed."""


def parse_address(address: Address) -> Tuple[str, Any]:
    """Normalize an address into ``("tcp", (host, port))`` or ``("unix", path)``.

    Accepts the string forms ``tcp:HOST:PORT`` and ``unix:PATH`` (what the
    CLI flags and the daemon's "listening on" line use) plus a plain
    ``(host, port)`` tuple.
    """
    if isinstance(address, tuple):
        host, port = address
        return "tcp", (str(host), int(port))
    if not isinstance(address, str):
        raise WireError(f"unsupported address {address!r}")
    if address.startswith("unix:"):
        path = address[len("unix:") :]
        if not path:
            raise WireError("unix address needs a socket path: unix:PATH")
        return "unix", path
    if address.startswith("tcp:"):
        rest = address[len("tcp:") :]
        host, separator, port = rest.rpartition(":")
        if not separator or not host or not port:
            raise WireError(f"tcp address needs tcp:HOST:PORT, got {address!r}")
        try:
            return "tcp", (host, int(port))
        except ValueError:
            raise WireError(f"tcp port must be an integer, got {port!r}") from None
    raise WireError(
        f"address {address!r} must start with 'tcp:' or 'unix:' "
        "(e.g. tcp:127.0.0.1:7411 or unix:/tmp/repro-mis.sock)"
    )


def format_address(family: str, location: Any) -> str:
    """Inverse of :func:`parse_address` (the daemon's "listening on" form)."""
    if family == "unix":
        return f"unix:{location}"
    host, port = location
    return f"tcp:{host}:{port}"


def connect(address: Address, timeout: Optional[float] = None) -> socket.socket:
    """Open a client socket to a daemon address (either family)."""
    family, location = parse_address(address)
    if family == "unix":
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-posix
            raise WireError("unix sockets are unavailable on this platform; use tcp:")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(location)
        except BaseException:
            sock.close()
            raise
        return sock
    return socket.create_connection(location, timeout=timeout)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_message(document: Dict[str, Any]) -> bytes:
    """One JSON object as one utf-8 line (the only frame on the wire)."""
    try:
        text = json.dumps(document, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as error:
        raise WireError(f"message is not JSON-serializable: {error}") from None
    if "\n" in text:  # pragma: no cover - json.dumps never emits newlines
        raise WireError("encoded message must be newline-free")
    return text.encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one received line back into a message dict."""
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"not a JSON message: {error}") from None
    if not isinstance(document, dict):
        raise WireError(f"a message must be a JSON object, got {type(document).__name__}")
    return document


def write_message(stream: Any, document: Dict[str, Any]) -> None:
    """Write one framed message to a file-like binary stream and flush."""
    stream.write(encode_message(document))
    stream.flush()


def read_message(stream: Any) -> Optional[Dict[str, Any]]:
    """Read the next framed message (``None`` on a cleanly closed stream)."""
    line = stream.readline()
    if not line:
        return None
    return decode_message(line)


# ----------------------------------------------------------------------
# Request / response shapes
# ----------------------------------------------------------------------
def request(op: str, params: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build a request message."""
    return {"op": op, "params": dict(params or {})}


def ok(result: Any = None) -> Dict[str, Any]:
    """Build a success response."""
    return {"ok": True, "result": result}


def error(message: str, kind: str = "internal") -> Dict[str, Any]:
    """Build an error response (``kind`` from :data:`ERROR_KINDS`)."""
    if kind not in ERROR_KINDS:  # pragma: no cover - defensive
        kind = "internal"
    return {"ok": False, "error": str(message), "kind": kind}
