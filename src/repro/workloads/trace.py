"""Serialization of graphs and change traces.

Experiments are only reproducible if the exact workload can be stored next to
the results.  This module serializes starting graphs and topology-change
sequences to plain JSON-compatible dictionaries (and to JSON files), and loads
them back, so that

* a workload generated once (e.g. a production-like churn trace) can be
  replayed against any engine or baseline later,
* benchmark inputs can be archived together with EXPERIMENTS.md, and
* regression tests can pin down the exact change sequence that triggered a
  bug.

Only the built-in node types used throughout the library (ints, strings and
tuples thereof, as produced by the reductions) are supported; tuples are
encoded as tagged lists so that round-trips are exact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, Sequence

from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
    TopologyChange,
)

Node = Hashable

_TUPLE_TAG = "__tuple__"


class TraceFormatError(ValueError):
    """Raised when a serialized trace or graph cannot be decoded."""


# ----------------------------------------------------------------------
# Node encoding
# ----------------------------------------------------------------------
def encode_node(node: Node) -> Any:
    """Encode a node identifier into a JSON-compatible value."""
    if isinstance(node, tuple):
        return {_TUPLE_TAG: [encode_node(part) for part in node]}
    if isinstance(node, (str, int, float, bool)) or node is None:
        return node
    raise TraceFormatError(f"unsupported node type {type(node).__name__!r} for {node!r}")


def decode_node(value: Any) -> Node:
    """Decode a node identifier produced by :func:`encode_node`."""
    if isinstance(value, dict):
        if set(value) != {_TUPLE_TAG}:
            raise TraceFormatError(f"unexpected node encoding {value!r}")
        return tuple(decode_node(part) for part in value[_TUPLE_TAG])
    if isinstance(value, list):
        raise TraceFormatError("bare lists are not valid node encodings")
    return value


# ----------------------------------------------------------------------
# Change encoding
# ----------------------------------------------------------------------
def encode_change(change: TopologyChange) -> Dict[str, Any]:
    """Encode one topology change as a plain dictionary."""
    if isinstance(change, EdgeInsertion):
        return {"kind": "edge_insertion", "u": encode_node(change.u), "v": encode_node(change.v)}
    if isinstance(change, EdgeDeletion):
        return {
            "kind": "edge_deletion",
            "u": encode_node(change.u),
            "v": encode_node(change.v),
            "graceful": change.graceful,
        }
    if isinstance(change, NodeInsertion):
        return {
            "kind": "node_insertion",
            "node": encode_node(change.node),
            "neighbors": [encode_node(other) for other in change.neighbors],
        }
    if isinstance(change, NodeUnmuting):
        return {
            "kind": "node_unmuting",
            "node": encode_node(change.node),
            "neighbors": [encode_node(other) for other in change.neighbors],
        }
    if isinstance(change, NodeDeletion):
        return {
            "kind": "node_deletion",
            "node": encode_node(change.node),
            "graceful": change.graceful,
        }
    raise TraceFormatError(f"unknown change type {change!r}")


def decode_change(record: Dict[str, Any]) -> TopologyChange:
    """Decode one topology change produced by :func:`encode_change`."""
    try:
        kind = record["kind"]
    except (TypeError, KeyError):
        raise TraceFormatError(f"change record without a kind: {record!r}") from None
    if kind == "edge_insertion":
        return EdgeInsertion(decode_node(record["u"]), decode_node(record["v"]))
    if kind == "edge_deletion":
        return EdgeDeletion(
            decode_node(record["u"]),
            decode_node(record["v"]),
            graceful=bool(record.get("graceful", True)),
        )
    if kind == "node_insertion":
        return NodeInsertion(
            decode_node(record["node"]),
            tuple(decode_node(other) for other in record.get("neighbors", [])),
        )
    if kind == "node_unmuting":
        return NodeUnmuting(
            decode_node(record["node"]),
            tuple(decode_node(other) for other in record.get("neighbors", [])),
        )
    if kind == "node_deletion":
        return NodeDeletion(
            decode_node(record["node"]), graceful=bool(record.get("graceful", True))
        )
    raise TraceFormatError(f"unknown change kind {kind!r}")


# ----------------------------------------------------------------------
# Graph encoding
# ----------------------------------------------------------------------
def encode_graph(graph: DynamicGraph) -> Dict[str, Any]:
    """Encode a graph as ``{"nodes": [...], "edges": [[u, v], ...]}``."""
    return {
        "nodes": [encode_node(node) for node in sorted(graph.nodes(), key=repr)],
        "edges": [[encode_node(u), encode_node(v)] for u, v in graph.edges()],
    }


def decode_graph(record: Dict[str, Any]) -> DynamicGraph:
    """Decode a graph produced by :func:`encode_graph`."""
    try:
        nodes = [decode_node(value) for value in record["nodes"]]
        edges = [(decode_node(u), decode_node(v)) for u, v in record["edges"]]
    except (TypeError, KeyError) as error:
        raise TraceFormatError(f"malformed graph record: {error}") from None
    return DynamicGraph(nodes=nodes, edges=edges)


# ----------------------------------------------------------------------
# Whole traces
# ----------------------------------------------------------------------
def encode_trace(
    changes: Sequence[TopologyChange],
    initial_graph: DynamicGraph | None = None,
    metadata: Dict[str, Any] | None = None,
) -> Dict[str, Any]:
    """Encode a workload (optional starting graph + change sequence + metadata)."""
    record: Dict[str, Any] = {
        "format": "repro-trace-v1",
        "changes": [encode_change(change) for change in changes],
    }
    if initial_graph is not None:
        record["initial_graph"] = encode_graph(initial_graph)
    if metadata:
        record["metadata"] = dict(metadata)
    return record


def decode_trace(record: Dict[str, Any]) -> Dict[str, Any]:
    """Decode a workload into ``{"changes", "initial_graph", "metadata"}`` keys."""
    if not isinstance(record, dict) or record.get("format") != "repro-trace-v1":
        raise TraceFormatError("not a repro-trace-v1 record")
    changes = [decode_change(entry) for entry in record.get("changes", [])]
    graph = decode_graph(record["initial_graph"]) if "initial_graph" in record else None
    return {
        "changes": changes,
        "initial_graph": graph,
        "metadata": dict(record.get("metadata", {})),
    }


def save_trace(
    path,
    changes: Sequence[TopologyChange],
    initial_graph: DynamicGraph | None = None,
    metadata: Dict[str, Any] | None = None,
) -> None:
    """Write a workload to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(encode_trace(changes, initial_graph, metadata), handle, indent=2, sort_keys=True)


def load_trace(path) -> Dict[str, Any]:
    """Read a workload from a JSON file written by :func:`save_trace`."""
    return _load_trace(path, graph=True)


def _load_trace(path, graph: bool) -> Dict[str, Any]:
    """:func:`load_trace`; without ``graph`` the starting graph is not decoded (``None``)."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not graph and isinstance(record, dict):
        record.pop("initial_graph", None)
    return decode_trace(record)
