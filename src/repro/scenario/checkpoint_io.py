"""JSON serialization of :class:`~repro.scenario.session.SessionCheckpoint`.

A checkpoint is only useful if it survives the process that took it.  This
module flattens a session checkpoint -- the spec, the position, the backend
snapshot (either flavor, both label-level: an
:class:`~repro.core.engine_api.EngineSnapshot` or a
:class:`~repro.distributed.state.NetworkSnapshot`), the sequential
statistics and the adaptive adversary's RNG state -- into plain JSON and
back, exactly (machine-checked by the round-trip tests in
``tests/test_scenario_session.py``).  A checkpoint holds state, not
history: the sequential statistics and the snapshot's metrics are
fixed-size :class:`~repro.core.state_api.Totals` (count, sum and maximum
per counter and per change kind), so its size does not grow with the
session's age.  Per-change detail is in the records a session returns and
in its sinks, never in a checkpoint.

Node labels are encoded with the trace codec
(:func:`repro.workloads.trace.encode_node`), so every node type the library
uses (ints, strings, nested tuples from the reductions) round-trips.  A
snapshot encodes each label once and reuses the code in its edge,
priority-key and state rows; decoding keeps scalar labels as they are and
hands only tagged tuples (and the invalid bare lists) to
:func:`~repro.workloads.trace.decode_node`.  The
CLI's ``run --checkpoint-every N --checkpoint-path p.json`` writes these
files and ``run --resume-from p.json`` continues them -- on any registered
backend, thanks to the label-keyed snapshots.  :func:`save_checkpoint`
writes one line of compact JSON; whitespace is insignificant to the
decoder, so indented files written by earlier versions load unchanged.

Three record versions exist.  ``repro-checkpoint-v3`` is what this module
writes: ``statistics`` is ``{"changes": rows, "batches": rows}`` and the
network snapshot's ``metrics`` is ``rows``, where ``rows`` is the
:meth:`~repro.core.state_api.Totals.to_record` list of ``[kind, [count,
sum, max, ...]]`` pairs in first-appearance order.  The two older versions
stored one entry per applied change instead -- a list per statistics field
and one record per change in ``metrics`` -- and decoding folds those rows
into the same totals, so every old file still resumes exactly.
``repro-checkpoint-v2`` added the asynchronous scheduler's resumable RNG
state and a ``journal`` key; ``repro-checkpoint-v1`` files lack both -- a
missing scheduler state defaults to ``None``, which the restore paths
accept as "fresh stream".  Some v2 files are *delta* checkpoints: their
snapshot fields hold the state at the journal's ``base_position``, and the
journal entries lead on to ``position``.  A session's state is a pure
function of ``(spec, position)``, so such a record decodes by re-executing
the spec from that base to ``position``; the entries are not read.

A network record holds no per-node local knowledge: restore derives it from
the states, as bootstrap does.  v2 records written before that carry an
extra ``knowledge`` row per directed edge, which decoding ignores.
"""

from __future__ import annotations

import dataclasses
import json
import os
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.dynamic_mis import BATCH_COUNTERS, CHANGE_COUNTERS, MaintainerStatistics
from repro.core.engine_api import EngineSnapshot
from repro.core.state_api import Totals
from repro.distributed.metrics import METRIC_COUNTERS
from repro.distributed.state import NetworkSnapshot
from repro.scenario.session import SessionCheckpoint, _replayed_checkpoint
from repro.scenario.spec import ScenarioSpec
from repro.workloads.trace import decode_node, encode_node

FORMAT = "repro-checkpoint-v3"
FORMAT_V2 = "repro-checkpoint-v2"
FORMAT_V1 = "repro-checkpoint-v1"

#: Formats :func:`checkpoint_from_dict` accepts (newest first).
SUPPORTED_FORMATS = (FORMAT, FORMAT_V2, FORMAT_V1)


class CheckpointFormatError(ValueError):
    """A serialized checkpoint that cannot be decoded."""


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _encode_key(key: Tuple) -> list:
    # Recursive: the reductions produce nested-tuple priority keys, and a
    # shallow list() would round-trip the inner tuples as lists, silently
    # breaking label-keyed restore equality.
    return [_encode_key(part) if isinstance(part, tuple) else part for part in key]


def _decode_key(value) -> Tuple:
    return tuple(
        _decode_key(part) if isinstance(part, list) else part for part in value
    )


def _encode_state_tree(state: Optional[Tuple]):
    """Opaque resumable states (scheduler RNG position): tuples -> lists."""
    if state is None:
        return None
    return [
        _encode_state_tree(part) if isinstance(part, tuple) else part for part in state
    ]


def _decode_state_tree(value) -> Optional[Tuple]:
    if value is None:
        return None
    return tuple(
        _decode_state_tree(part) if isinstance(part, list) else part for part in value
    )


def _label_codes(snapshot) -> Dict[Any, Any]:
    """Each snapshot label's trace-codec encoding, computed once per label.

    Every label reappears in the edge, priority-key and state rows, so the
    rows look their codes up here instead of re-encoding.
    """
    return {node: encode_node(node) for node in snapshot.nodes}


def _encode_nodes_edges(snapshot, codes) -> Dict[str, Any]:
    return {
        "nodes": [codes[node] for node in snapshot.nodes],
        "edges": [[codes[u], codes[v]] for u, v in snapshot.edges],
        "priority_keys": [
            [codes[node], _encode_key(key)] for node, key in snapshot.priority_keys.items()
        ],
    }


#: An encoded label of one of these types is the label itself; anything else
#: (a tagged tuple, or a bare list for it to reject) goes to decode_node.
_SCALARS = frozenset({int, float, str, bool, type(None)})


def _decode_nodes_edges(record) -> Dict[str, Any]:
    return {
        "nodes": tuple(
            value if type(value) in _SCALARS else decode_node(value) for value in record["nodes"]
        ),
        "edges": tuple(
            (
                u if type(u) in _SCALARS else decode_node(u),
                v if type(v) in _SCALARS else decode_node(v),
            )
            for u, v in record["edges"]
        ),
        "priority_keys": {
            node if type(node) in _SCALARS else decode_node(node): _decode_key(key)
            for node, key in record["priority_keys"]
        },
    }


# ----------------------------------------------------------------------
# Snapshot flavors
# ----------------------------------------------------------------------
def _encode_engine_snapshot(snapshot: EngineSnapshot) -> Dict[str, Any]:
    codes = _label_codes(snapshot)
    record = {"kind": "engine"}
    record.update(_encode_nodes_edges(snapshot, codes))
    record["states"] = [[codes[node], bool(in_mis)] for node, in_mis in snapshot.states.items()]
    return record


def _decode_engine_snapshot(record) -> EngineSnapshot:
    parts = _decode_nodes_edges(record)
    return EngineSnapshot(
        nodes=parts["nodes"],
        edges=parts["edges"],
        states={
            node if type(node) in _SCALARS else decode_node(node): bool(in_mis)
            for node, in_mis in record["states"]
        },
        priority_keys=parts["priority_keys"],
    )


def _encode_network_snapshot(snapshot: NetworkSnapshot) -> Dict[str, Any]:
    codes = _label_codes(snapshot)
    record = {"kind": "network", "protocol": snapshot.protocol}
    record.update(_encode_nodes_edges(snapshot, codes))
    record["states"] = [[codes[node], value] for node, value in snapshot.states.items()]
    record["scheduler_cursor"] = snapshot.scheduler_cursor
    record["metrics"] = snapshot.metrics.to_record()
    record["scheduler_state"] = _encode_state_tree(snapshot.scheduler_state)
    return record


def _decode_network_snapshot(record, per_change: bool) -> NetworkSnapshot:
    parts = _decode_nodes_edges(record)
    if per_change:
        metrics = _folded_metrics(record["metrics"])
    else:
        metrics = Totals.from_record(METRIC_COUNTERS, record["metrics"])
    return NetworkSnapshot(
        protocol=record["protocol"],
        nodes=parts["nodes"],
        edges=parts["edges"],
        states={
            node if type(node) in _SCALARS else decode_node(node): value
            for node, value in record["states"]
        },
        priority_keys=parts["priority_keys"],
        scheduler_cursor=record["scheduler_cursor"],
        metrics=metrics,
        # v1 records predate scheduler state; None restores as "fresh stream".
        scheduler_state=_decode_state_tree(record.get("scheduler_state")),
    )


# ----------------------------------------------------------------------
# Runner extras
# ----------------------------------------------------------------------
def _encode_statistics(statistics: Optional[MaintainerStatistics]) -> Optional[Dict[str, Any]]:
    if statistics is None:
        return None
    return {"changes": statistics.changes.to_record(), "batches": statistics.batches.to_record()}


def _decode_statistics(record, per_change: bool) -> Optional[MaintainerStatistics]:
    if record is None:
        return None
    if per_change:
        return _folded_statistics(record)
    return MaintainerStatistics(
        changes=Totals.from_record(CHANGE_COUNTERS, record["changes"]),
        batches=Totals.from_record(BATCH_COUNTERS, record["batches"]),
    )


#: v1/v2 per-change statistics lists, in counter order.
_CHANGE_LISTS = (
    "influenced_sizes",
    "adjustments",
    "propagation_depths",
    "state_flips",
    "update_work",
)
_BATCH_LISTS = ("batch_sizes", "batch_influenced_sizes", "batch_adjustments", "batch_levels")


def _folded_statistics(record) -> MaintainerStatistics:
    """A v1/v2 record's per-change statistics lists, folded into totals."""
    statistics = MaintainerStatistics()
    lists = (record[name] for name in _CHANGE_LISTS)
    for kind, *values in zip(record["change_kinds"], *lists, strict=True):
        statistics.changes.add(kind, values)
    for values in zip(*(record[name] for name in _BATCH_LISTS), strict=True):
        statistics.batches.add("batch", values)
    return statistics


def _folded_metrics(records) -> Totals:
    """A v1/v2 snapshot's per-change metric records, folded into totals."""
    totals = Totals(METRIC_COUNTERS)
    for record in records:
        totals.add(record["change_kind"], [record[name] for name in METRIC_COUNTERS])
    return totals


def _encode_workload_state(state: Optional[Tuple]):
    if state is None:
        return None
    tag, remaining, rng_state = state
    version, internal, gauss = rng_state
    return [tag, remaining, [version, list(internal), gauss]]


def _decode_workload_state(record) -> Optional[Tuple]:
    if record is None:
        return None
    tag, remaining, rng_state = record
    version, internal, gauss = rng_state
    # random.Random.setstate needs the exact nested tuple shape back.
    return (tag, int(remaining), (version, tuple(internal), gauss))


# ----------------------------------------------------------------------
# Whole checkpoints
# ----------------------------------------------------------------------
def checkpoint_to_dict(checkpoint: SessionCheckpoint) -> Dict[str, Any]:
    """Flatten a :class:`SessionCheckpoint` into a JSON-compatible dict."""
    if isinstance(checkpoint.snapshot, NetworkSnapshot):
        snapshot_record = _encode_network_snapshot(checkpoint.snapshot)
    elif isinstance(checkpoint.snapshot, EngineSnapshot):
        snapshot_record = _encode_engine_snapshot(checkpoint.snapshot)
    else:  # pragma: no cover - defensive
        raise CheckpointFormatError(
            f"cannot serialize snapshot of type {type(checkpoint.snapshot).__name__}"
        )
    return {
        "format": FORMAT,
        "spec": checkpoint.spec.to_dict(),
        "position": checkpoint.position,
        "snapshot": snapshot_record,
        "statistics": _encode_statistics(checkpoint.statistics),
        "workload_state": _encode_workload_state(checkpoint.workload_state),
        "elapsed_s": checkpoint.elapsed_s,
    }


def checkpoint_from_dict(record: Dict[str, Any]) -> SessionCheckpoint:
    """Decode :func:`checkpoint_to_dict` output back into a checkpoint.

    Accepts every version in :data:`SUPPORTED_FORMATS`: the per-change rows
    of v1 and v2 records fold into totals, and v1 records simply lack the
    scheduler-state and journal fields, which decode as ``None``.  A legacy
    delta record (non-null ``journal``) re-executes its spec from the stored
    base to its position (see the module docstring).
    """
    if not isinstance(record, dict) or record.get("format") not in SUPPORTED_FORMATS:
        raise CheckpointFormatError(
            f"not a supported checkpoint record (expected format in "
            f"{SUPPORTED_FORMATS})"
        )
    if "spec" not in record:
        # A missing spec must not silently decode to the *default* scenario:
        # the restored snapshot would run a wrong workload without any error.
        raise CheckpointFormatError("malformed checkpoint record: missing 'spec'")
    # Decoded first so spec problems surface as ScenarioSpecError (with their
    # did-you-mean hints) instead of a generic malformed-checkpoint error.
    spec = ScenarioSpec.from_dict(record["spec"])
    per_change = record["format"] != FORMAT
    try:
        snapshot_record = record["snapshot"]
        kind = snapshot_record["kind"]
        if kind == "network":
            snapshot = _decode_network_snapshot(snapshot_record, per_change)
        elif kind == "engine":
            snapshot = _decode_engine_snapshot(snapshot_record)
        else:
            raise CheckpointFormatError(f"unknown snapshot kind {kind!r}")
        checkpoint = SessionCheckpoint(
            spec=spec,
            position=int(record["position"]),
            snapshot=snapshot,
            statistics=_decode_statistics(record.get("statistics"), per_change),
            workload_state=_decode_workload_state(record.get("workload_state")),
            elapsed_s=float(record.get("elapsed_s", 0.0)),
        )
        journal = record.get("journal")
        if journal is None:
            return checkpoint
        base_position = journal.get("base_position") if isinstance(journal, dict) else None
        if type(base_position) is not int or not 0 <= base_position <= checkpoint.position:
            raise CheckpointFormatError(
                f"legacy delta checkpoint needs a journal base_position in "
                f"[0, {checkpoint.position}], got {base_position!r}"
            )
        base = dataclasses.replace(checkpoint, position=base_position)
        return _replayed_checkpoint(spec, checkpoint.position, start=base)
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, CheckpointFormatError):
            raise
        raise CheckpointFormatError(f"malformed checkpoint record: {error}") from None


def save_checkpoint(path, checkpoint: SessionCheckpoint) -> None:
    """Write a checkpoint to a JSON file (atomically replaced on rewrite).

    The file is one line of compact JSON (``separators=(",", ":")``, sorted
    keys): an indented dump would make CPython fall back from its C encoder
    to the pure-Python one, several times slower and ~3x larger on disk.
    ``python -m json.tool`` pretty-prints it for reading.

    The temporary sibling carries the pid plus a random fragment, so two
    sessions checkpointing to the same path never clobber each other's
    half-written file, and it is removed again if encoding or writing
    fails part-way.  The temp file is fsynced *before* the atomic rename:
    without the flush-to-disk barrier a crash shortly after the rename could
    leave a truncated file under the final name -- the one failure mode the
    service daemon's spool directory must never see, since an evicted
    session IS its checkpoint file.  On POSIX the parent directory is
    fsynced *after* the rename, so the rename itself is durable too: an
    acknowledged eviction cannot come back as the previous checkpoint.
    """
    target = Path(path)
    # Serialize before touching the filesystem: an encode failure must not
    # leave an orphaned temp file behind.
    text = json.dumps(checkpoint_to_dict(checkpoint), separators=(",", ":"), sort_keys=True) + "\n"
    temporary = target.with_name(
        f".{target.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp"
    )
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        try:
            temporary.unlink()
        except OSError:
            pass
        raise
    if os.name == "posix":
        # The rename lives in the directory: until the directory is synced
        # too, a power loss can bring back the previous checkpoint.
        directory = os.open(target.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def load_checkpoint(path) -> SessionCheckpoint:
    """Read a checkpoint from a JSON file written by :func:`save_checkpoint`."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise CheckpointFormatError(f"cannot read checkpoint file {path!r}: {error}") from None
    except UnicodeDecodeError as error:
        raise CheckpointFormatError(f"not valid UTF-8: {error}") from None
    try:
        record = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointFormatError(f"not valid JSON: {error}") from None
    return checkpoint_from_dict(record)
