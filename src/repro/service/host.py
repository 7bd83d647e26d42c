"""The per-shard session host: many live sessions, checkpoint-backed eviction.

A :class:`SessionHost` is the process-agnostic core of one shard worker
(:mod:`repro.service.shard`): it owns a table of scenario sessions keyed by
id, dispatches the service ops (``create`` / ``apply`` / ``apply_batch`` /
``query`` / ``checkpoint`` / ``evict`` / ``close`` / ``list`` / ``stats`` /
``drain``) and keeps its memory bounded through the spool directory --

* at most ``max_live`` sessions are held live; past that the least recently
  used one is *evicted*: checkpointed to ``<spool>/<id>.ckpt.json`` through
  :mod:`repro.scenario.checkpoint_io` and dropped from memory;
* any request that targets an evicted session transparently *rehydrates* it:
  the checkpoint is loaded and :meth:`~repro.scenario.session.Session.resume`
  continues it exactly where it stopped -- on the host's preferred backend
  when one is configured (``engine=`` for sequential sessions, ``network=``
  for protocol sessions), since both snapshot flavors are label-keyed and
  cross-backend restore is differential-proven;
* ``drain`` (the SIGTERM path) evicts *every* live session, so a restarted
  host -- pointed at the same spool via :meth:`adopt_spool` -- resumes all of
  them with outputs identical to never-interrupted runs.

A spool phase costs what its own session costs, however many others are
live: the host holds CPython's cyclic collector off while it writes a
session's checkpoint and while it loads and resumes one.  Those phases
allocate a session's worth of containers, and a collection they trigger
would walk every live session's objects too; their temporaries die by
reference count instead.  The previous :func:`gc.isenabled` state comes
back afterwards, also when the phase fails.  Library code (the checkpoint
codec, :class:`~repro.scenario.session.Session`, the engines) never touches
the process-global collector.

The host is deliberately single-threaded: a shard worker serializes its
requests, and concurrency comes from running many shards
(:mod:`repro.service.daemon`).  Everything it returns is plain JSON-ready
data (node labels through the trace codec), so the daemon can forward
results to the wire untouched.
"""

from __future__ import annotations

import contextlib
import gc
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.distributed.state import NetworkStateError
from repro.scenario.checkpoint_io import (
    CheckpointFormatError,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario.session import Session
from repro.scenario.spec import ScenarioSpec, ScenarioSpecError
from repro.workloads.trace import encode_node

#: Session ids are path fragments (spool file names), so they are restricted
#: to a safe alphabet -- no separators, no dots-only names.
SESSION_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Spool file suffix; everything else in the spool directory is ignored.
SPOOL_SUFFIX = ".ckpt.json"

#: ``query`` facets the host answers.
QUERY_KINDS = ("status", "mis", "states", "metrics")


class ServiceError(Exception):
    """Base class of request failures; ``kind`` matches the wire protocol."""

    kind = "internal"


class BadRequestError(ServiceError):
    """Malformed or unsupported request parameters."""

    kind = "bad-request"


class UnknownSessionError(ServiceError):
    """The session id is neither live nor spooled on this host."""

    kind = "unknown-session"


class SessionExistsError(ServiceError):
    """``create`` targeting an id that is already live or spooled."""

    kind = "session-exists"


@dataclass
class HostConfig:
    """Tunables of one session host (one shard worker)."""

    spool_dir: str
    #: Live-session capacity before LRU eviction kicks in.
    max_live: int = 64
    #: Preferred engine for rehydrating *sequential* sessions (``None`` keeps
    #: the backend the checkpoint was taken on).
    engine: Optional[str] = None
    #: Preferred network core for rehydrating *protocol* sessions.  Note the
    #: async caveat: crossing cores mid-run is only exact under a
    #: channel-deterministic scheduler (see
    #: :mod:`repro.testing.protocol_differential`).
    network: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain form (what the daemon ships to a worker process)."""
        return {
            "spool_dir": self.spool_dir,
            "max_live": self.max_live,
            "engine": self.engine,
            "network": self.network,
        }


@dataclass
class _Entry:
    """One session the host knows about (live, evicted, or both)."""

    session_id: str
    session: Optional[Session] = None
    #: Whether a spool checkpoint exists on disk for this session.
    spooled: bool = False


@contextlib.contextmanager
def _collector_held() -> Iterator[None]:
    """Hold the cyclic garbage collector off for one spool phase."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class SessionHost:
    """Own, evict and rehydrate many scenario sessions (one shard's core)."""

    def __init__(self, config: HostConfig) -> None:
        self._config = config
        self._spool = Path(config.spool_dir)
        self._spool.mkdir(parents=True, exist_ok=True)
        if config.max_live < 1:
            raise ValueError("max_live must be at least 1")
        self._entries: Dict[str, _Entry] = {}
        #: The entries with a live session, least recently used first.
        self._live: OrderedDict[str, _Entry] = OrderedDict()
        # Host lifetime counters, for ``stats`` (they outlive closed sessions).
        self._ops = 0
        self._applied = 0
        self._evictions = 0
        self._rehydrations = 0

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    #: op name -> handler method name (the full service surface of a host).
    OPS = {
        "create": "op_create",
        "apply": "op_apply",
        "apply_batch": "op_apply_batch",
        "query": "op_query",
        "checkpoint": "op_checkpoint",
        "evict": "op_evict",
        "close": "op_close",
        "list": "op_list",
        "stats": "op_stats",
        "drain": "op_drain",
    }

    def handle(self, op: str, params: Dict[str, Any]) -> Any:
        """Dispatch one request; raises :class:`ServiceError` subclasses."""
        handler = self.OPS.get(op)
        if handler is None:
            raise BadRequestError(
                f"unknown op {op!r}; known ops: {tuple(self.OPS)}"
            )
        if not isinstance(params, dict):
            raise BadRequestError(f"params must be an object, got {params!r}")
        self._ops += 1
        return getattr(self, handler)(params)

    def handle_safely(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        """Like :meth:`handle`, but returns a wire-shaped response dict.

        A request must never take the shard process down: every failure is
        folded into an error response (scenario-spec problems keep their
        did-you-mean messages under kind ``spec-error``, as do spool files
        that do not decode or restore).
        """
        from repro.service import protocol

        try:
            return protocol.ok(self.handle(op, params))
        except ServiceError as failure:
            return protocol.error(str(failure), kind=failure.kind)
        except (ScenarioSpecError, CheckpointFormatError, NetworkStateError) as failure:
            return protocol.error(str(failure), kind="spec-error")
        except Exception as failure:  # noqa: BLE001 - shard must survive
            return protocol.error(
                f"{type(failure).__name__}: {failure}", kind="internal"
            )

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def op_create(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``create``: build a session from a ScenarioSpec dict."""
        session_id = self._session_id_param(params)
        record = params.get("spec")
        if not isinstance(record, dict):
            raise BadRequestError("create needs a 'spec' object (ScenarioSpec.to_dict form)")
        if session_id in self._entries or self._spool_path(session_id).exists():
            raise SessionExistsError(f"session {session_id!r} already exists")
        spec = ScenarioSpec.from_dict(record)
        session = Session(spec)
        entry = _Entry(session_id=session_id, session=session)
        self._entries[session_id] = entry
        self._touch(entry)
        self._enforce_capacity(keep=session_id)
        return self._status(entry)

    def op_apply(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``apply``: advance the session by ``steps`` workload units (default 1).

        A *unit* is whatever the spec declares: one change, or -- when the
        spec sets ``batch_size`` -- one
        :meth:`~repro.core.dynamic_mis.DynamicMIS.apply_batch` chunk.
        """
        steps = params.get("steps", 1)
        if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
            raise BadRequestError(f"steps must be a positive integer, got {steps!r}")
        entry = self._live_entry(self._session_id_param(params))
        applied = 0
        for _ in range(steps):
            if entry.session.step() is None:
                break
            applied += 1
        self._applied += applied
        self._enforce_capacity(keep=entry.session_id)
        status = self._status(entry)
        status["applied"] = applied
        return status

    def op_apply_batch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``apply_batch``: ``apply`` with a mandatory multi-unit count.

        The separate op name keeps the wire honest about the unit of work:
        batch-shaped ingestion (the service's hot path) should arrive as one
        request per batch window, not one request per change.
        """
        if "steps" not in params:
            raise BadRequestError("apply_batch needs 'steps' (use 'apply' for one unit)")
        return self.op_apply(params)

    def op_query(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``query``: read one facet of a session (rehydrating it if needed)."""
        what = params.get("what", "status")
        if what not in QUERY_KINDS:
            raise BadRequestError(
                f"unknown query {what!r}; known queries: {QUERY_KINDS}"
            )
        entry = self._live_entry(self._session_id_param(params))
        result = self._status(entry)
        if what == "mis":
            result["mis"] = sorted(
                (encode_node(node) for node in entry.session.mis()), key=repr
            )
        elif what == "states":
            result["states"] = sorted(
                ([encode_node(node), bool(in_mis)] for node, in_mis in
                 entry.session.states().items()),
                key=repr,
            )
        elif what == "metrics":
            result["metrics"] = entry.session.metrics_summary()
        self._enforce_capacity(keep=entry.session_id)
        return result

    def op_checkpoint(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``checkpoint``: write the session's spool checkpoint, keep it live."""
        entry = self._live_entry(self._session_id_param(params))
        path = self._write_spool(entry)
        status = self._status(entry)
        status["path"] = str(path)
        return status

    def op_evict(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``evict``: checkpoint to the spool and drop the live session."""
        session_id = self._session_id_param(params)
        entry = self._entries.get(session_id)
        if entry is None:
            raise UnknownSessionError(f"no such session {session_id!r}")
        if entry.session is not None:
            self._evict(entry)
        return self._status(entry)

    def op_close(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``close``: forget the session and delete its spool checkpoint."""
        session_id = self._session_id_param(params)
        entry = self._entries.pop(session_id, None)
        self._live.pop(session_id, None)
        spool = self._spool_path(session_id)
        existed = entry is not None or spool.exists()
        if not existed:
            raise UnknownSessionError(f"no such session {session_id!r}")
        status = (
            self._status(entry)
            if entry is not None and entry.session is not None
            else {"session": session_id}
        )
        try:
            spool.unlink()
        except OSError:
            pass
        status["closed"] = True
        return status

    def op_list(self, params: Dict[str, Any]) -> List[Dict[str, Any]]:
        """``list``: id, liveness and progress of every known session."""
        rows = []
        for session_id in sorted(self._entries):
            entry = self._entries[session_id]
            row = {
                "session": session_id,
                "live": entry.session is not None,
                "spooled": entry.spooled,
            }
            if entry.session is not None:
                row.update(
                    position=entry.session.position, done=entry.session.done
                )
            rows.append(row)
        return rows

    def op_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``stats``: host-level counters (the daemon aggregates across shards)."""
        return {
            "sessions": len(self._entries),
            "live": len(self._live),
            "evicted": len(self._entries) - len(self._live),
            "ops": self._ops,
            "applied": self._applied,
            "evictions": self._evictions,
            "rehydrations": self._rehydrations,
            "max_live": self._config.max_live,
        }

    def op_drain(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``drain``: evict every live session (the graceful-shutdown path)."""
        drained = []
        for entry in list(self._live.values()):
            self._evict(entry)
            drained.append(entry.session_id)
        return {"drained": sorted(drained), "sessions": len(self._entries)}

    # ------------------------------------------------------------------
    # Spool adoption (restart path)
    # ------------------------------------------------------------------
    def adopt_spool(self, session_ids: Optional[List[str]] = None) -> List[str]:
        """Register spooled sessions from a previous daemon life (lazily).

        ``session_ids`` restricts adoption to this host's share (the daemon
        routes ids to shards); ``None`` adopts every spool file.  Sessions
        are *not* loaded here -- the first request rehydrates them -- so a
        restart with thousands of spooled sessions stays O(#files).
        """
        adopted = []
        wanted = None if session_ids is None else set(session_ids)
        for path in sorted(self._spool.glob(f"*{SPOOL_SUFFIX}")):
            session_id = path.name[: -len(SPOOL_SUFFIX)]
            if not SESSION_ID_PATTERN.match(session_id):
                continue
            if wanted is not None and session_id not in wanted:
                continue
            if session_id in self._entries:
                continue
            self._entries[session_id] = _Entry(session_id=session_id, spooled=True)
            adopted.append(session_id)
        return adopted

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _session_id_param(self, params: Dict[str, Any]) -> str:
        session_id = params.get("session")
        if not isinstance(session_id, str) or not SESSION_ID_PATTERN.match(session_id):
            raise BadRequestError(
                f"'session' must match {SESSION_ID_PATTERN.pattern}, got {session_id!r}"
            )
        return session_id

    def _spool_path(self, session_id: str) -> Path:
        return self._spool / f"{session_id}{SPOOL_SUFFIX}"

    def _touch(self, entry: _Entry) -> None:
        self._live[entry.session_id] = entry
        self._live.move_to_end(entry.session_id)

    def _live_entry(self, session_id: str) -> _Entry:
        """The entry with a live session, rehydrating from the spool if needed."""
        entry = self._entries.get(session_id)
        if entry is None:
            # A restarted host may not have adopted this id yet.
            if self._spool_path(session_id).exists():
                entry = _Entry(session_id=session_id, spooled=True)
                self._entries[session_id] = entry
            else:
                raise UnknownSessionError(f"no such session {session_id!r}")
        if entry.session is None:
            entry.session = self._rehydrate(session_id)
            self._rehydrations += 1
        self._touch(entry)
        return entry

    def _rehydrate(self, session_id: str) -> Session:
        with _collector_held():
            checkpoint = load_checkpoint(self._spool_path(session_id))
            overrides: Dict[str, Any] = {}
            if checkpoint.runner == "sequential" and self._config.engine:
                overrides["engine"] = self._config.engine
            if checkpoint.runner == "protocol" and self._config.network:
                overrides["network"] = self._config.network
            return Session.resume(checkpoint, **overrides)

    def _write_spool(self, entry: _Entry) -> Path:
        path = self._spool_path(entry.session_id)
        with _collector_held():
            save_checkpoint(path, entry.session.checkpoint())
        entry.spooled = True
        return path

    def _evict(self, entry: _Entry) -> None:
        self._write_spool(entry)
        entry.session = None
        del self._live[entry.session_id]
        self._evictions += 1

    def _enforce_capacity(self, keep: str) -> None:
        """Evict LRU live sessions past ``max_live`` (never the one in use)."""
        while len(self._live) > self._config.max_live:
            victim = next(entry for entry in self._live.values() if entry.session_id != keep)
            self._evict(victim)

    def _status(self, entry: _Entry) -> Dict[str, Any]:
        status: Dict[str, Any] = {"session": entry.session_id}
        if entry.session is not None:
            status.update(entry.session.status())
            status["live"] = True
        else:
            status["live"] = False
        status["spooled"] = entry.spooled
        return status
