"""Topology-change events (paper, Section 2).

The paper distinguishes six changes in the *distributed* model:

* **edge insertion** -- a new communication link appears; both endpoints are
  notified.
* **graceful edge deletion** -- a link retires but may still carry messages
  until the system is stable again.
* **abrupt edge deletion** -- a link disappears immediately.
* **node insertion** -- a brand new node arrives, possibly with several edges.
* **graceful node deletion** -- a node retires but relays messages until the
  system is stable.
* **abrupt node deletion** -- a node disappears immediately.
* **node unmuting** -- a previously invisible node that overheard its
  neighbors' communication becomes visible (it already knows their IDs and
  states, so it needs no discovery phase).

At the template level (Section 3) only four changes exist -- the
graceful/abrupt and unmuting distinctions only affect *communication*.  The
dataclasses below capture the distributed-level change together with the
flags that the simulators need (``graceful``, ``unmuting``); the template
engine and the sequential maintainers simply ignore those flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Tuple, Union

from repro.graph.dynamic_graph import DynamicGraph, GraphError, canonical_edge

Node = Hashable


@dataclass(frozen=True)
class EdgeInsertion:
    """Insertion of the edge ``{u, v}`` between two existing nodes."""

    u: Node
    v: Node

    kind = "edge_insertion"

    def endpoints(self) -> Tuple[Node, Node]:
        """The two endpoints of the affected edge."""
        return (self.u, self.v)


@dataclass(frozen=True)
class EdgeDeletion:
    """Deletion of the edge ``{u, v}``; graceful deletions may relay messages."""

    u: Node
    v: Node
    graceful: bool = True

    kind = "edge_deletion"

    def endpoints(self) -> Tuple[Node, Node]:
        """The two endpoints of the affected edge."""
        return (self.u, self.v)


@dataclass(frozen=True)
class NodeInsertion:
    """Insertion of a new node, possibly with multiple edges."""

    node: Node
    neighbors: Tuple[Node, ...] = field(default_factory=tuple)

    kind = "node_insertion"


@dataclass(frozen=True)
class NodeUnmuting:
    """A previously invisible node becomes visible.

    The node already overheard its neighbors' communication, so unlike a node
    insertion it knows their random IDs and states upfront; the distributed
    implementation therefore needs only O(1) broadcasts for it.  At the
    template level it is identical to a node insertion.
    """

    node: Node
    neighbors: Tuple[Node, ...] = field(default_factory=tuple)

    kind = "node_unmuting"


@dataclass(frozen=True)
class NodeDeletion:
    """Deletion of a node together with all of its incident edges."""

    node: Node
    graceful: bool = True

    kind = "node_deletion"


TopologyChange = Union[EdgeInsertion, EdgeDeletion, NodeInsertion, NodeUnmuting, NodeDeletion]

CHANGE_KINDS = (
    "edge_insertion",
    "edge_deletion",
    "node_insertion",
    "node_unmuting",
    "node_deletion",
)


def validate_change(graph: DynamicGraph, change: TopologyChange) -> None:
    """Raise :class:`GraphError` if ``change`` cannot be applied to ``graph``."""
    if isinstance(change, EdgeInsertion):
        if not graph.has_node(change.u) or not graph.has_node(change.v):
            raise GraphError(f"edge insertion {change} references a missing node")
        if change.u == change.v:
            raise GraphError("edge insertion would create a self loop")
        if graph.has_edge(change.u, change.v):
            raise GraphError(f"edge ({change.u!r}, {change.v!r}) already exists")
    elif isinstance(change, EdgeDeletion):
        if not graph.has_edge(change.u, change.v):
            raise GraphError(f"edge ({change.u!r}, {change.v!r}) does not exist")
    elif isinstance(change, (NodeInsertion, NodeUnmuting)):
        if graph.has_node(change.node):
            raise GraphError(f"node {change.node!r} already exists")
        for other in change.neighbors:
            if not graph.has_node(other):
                raise GraphError(f"insertion neighbor {other!r} does not exist")
            if other == change.node:
                raise GraphError("node insertion would create a self loop")
        if len(set(change.neighbors)) != len(change.neighbors):
            raise GraphError("duplicate neighbors in node insertion")
    elif isinstance(change, NodeDeletion):
        if not graph.has_node(change.node):
            raise GraphError(f"node {change.node!r} does not exist")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown change type: {change!r}")


def validate_batch(graph, changes) -> None:
    """Validate a whole batch against the *evolving* topology without mutating it.

    Engines call this before applying any graph delta of
    :meth:`~repro.core.engine_api.MISEngine.apply_batch`, so an invalid
    change anywhere in the batch raises :class:`GraphError` while the engine
    is still untouched (atomic failure).  ``graph`` only needs ``has_node`` /
    ``has_edge``, so :class:`~repro.graph.dynamic_graph.DynamicGraph`, the
    fast engine and its read view all qualify.

    The evolving state is an overlay keyed by batch position.  ``touched``
    maps every node inserted or deleted in the batch to the position of its
    last such change; the base graph stops counting for it (deletion
    destroyed its edges; a re-inserted label starts fresh with only its
    declared neighbors).  ``fresh`` maps each node inserted and still
    present to its declared neighbor set, and ``edge_ops`` maps an edge to
    the position and outcome of its last edge change.  An edge or neighbor
    entry only counts while neither endpoint has been touched since it was
    made, so a deletion never has to rebuild anything.
    """
    touched: dict = {}
    fresh: dict = {}
    edge_ops: dict = {}
    has_node = graph.has_node

    def node_exists(node: Node) -> bool:
        return node in fresh if node in touched else has_node(node)

    def edge_exists(u: Node, v: Node) -> bool:
        since_u = touched.get(u, -1)
        since_v = touched.get(v, -1)
        op = edge_ops.get(canonical_edge(u, v))
        if op is not None and op[0] > since_u and op[0] > since_v:
            return op[1]
        if since_u > since_v:
            return v in fresh.get(u, ())
        if since_v > since_u:
            return u in fresh.get(v, ())
        return since_u < 0 and graph.has_edge(u, v)

    for position, change in enumerate(changes):
        if isinstance(change, EdgeInsertion):
            if not node_exists(change.u) or not node_exists(change.v):
                raise GraphError(f"edge insertion {change} references a missing node")
            if change.u == change.v:
                raise GraphError("edge insertion would create a self loop")
            if edge_exists(change.u, change.v):
                raise GraphError(f"edge ({change.u!r}, {change.v!r}) already exists")
            edge_ops[canonical_edge(change.u, change.v)] = (position, True)
        elif isinstance(change, EdgeDeletion):
            if not edge_exists(change.u, change.v):
                raise GraphError(f"edge ({change.u!r}, {change.v!r}) does not exist")
            edge_ops[canonical_edge(change.u, change.v)] = (position, False)
        elif isinstance(change, (NodeInsertion, NodeUnmuting)):
            node = change.node
            if node_exists(node):
                raise GraphError(f"node {node!r} already exists")
            for other in change.neighbors:  # once per neighbor edge: node_exists inlined
                if other == node:
                    raise GraphError("node insertion would create a self loop")
                if not (other in fresh if other in touched else has_node(other)):
                    raise GraphError(f"insertion neighbor {other!r} does not exist")
            neighbors = set(change.neighbors)
            if len(neighbors) != len(change.neighbors):
                raise GraphError("duplicate neighbors in node insertion")
            touched[node] = position
            fresh[node] = neighbors
        elif isinstance(change, NodeDeletion):
            if not node_exists(change.node):
                raise GraphError(f"node {change.node!r} does not exist")
            touched[change.node] = position
            fresh.pop(change.node, None)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown change type: {change!r}")


def apply_change_to_graph(graph: DynamicGraph, change: TopologyChange) -> None:
    """Apply ``change`` to ``graph`` in place (validating first)."""
    validate_change(graph, change)
    if isinstance(change, EdgeInsertion):
        graph.add_edge(change.u, change.v)
    elif isinstance(change, EdgeDeletion):
        graph.remove_edge(change.u, change.v)
    elif isinstance(change, (NodeInsertion, NodeUnmuting)):
        graph.add_node_with_edges(change.node, change.neighbors)
    elif isinstance(change, NodeDeletion):
        graph.remove_node(change.node)


def inverse_change(graph_before: DynamicGraph, change: TopologyChange) -> TopologyChange:
    """Return the change that undoes ``change`` (given the graph before it).

    Used by workload generators that build "there and back" sequences for the
    history-independence experiments.
    """
    if isinstance(change, EdgeInsertion):
        return EdgeDeletion(change.u, change.v)
    if isinstance(change, EdgeDeletion):
        return EdgeInsertion(change.u, change.v)
    if isinstance(change, (NodeInsertion, NodeUnmuting)):
        return NodeDeletion(change.node)
    if isinstance(change, NodeDeletion):
        neighbors = tuple(sorted(graph_before.neighbors(change.node), key=repr))
        return NodeInsertion(change.node, neighbors)
    raise TypeError(f"unknown change type: {change!r}")
