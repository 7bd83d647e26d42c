"""A mutable undirected graph tailored for dynamic topology-change workloads.

The paper's model (Section 2) is an undirected network graph ``G = (V, E)``
that evolves through single topology changes: edge insertions and deletions,
node insertions and deletions, and node unmuting.  Every engine in this
library -- the sequential template engine, the synchronous and asynchronous
distributed simulators, and the reduction-based matching/coloring maintainers
-- manipulates an instance of :class:`DynamicGraph`.

Design notes
------------
* Nodes are arbitrary hashable identifiers.  The library mostly uses ints,
  while the reductions use tuples (edge endpoints for the line graph, node /
  copy-index pairs for the clique blowup).
* Adjacency is stored as ``dict[node, set[node]]`` which gives O(1) expected
  insertion, deletion and membership checks, and O(deg) neighbor iteration.
* The class never mutates caller-provided collections and never exposes its
  internal sets directly (``neighbors`` returns a frozen copy by default, or
  a live iterator via :meth:`iter_neighbors` for hot paths).
* A monotonically increasing ``version`` counter is bumped on every mutation;
  derived views (line graph, blowup) and caches use it to detect staleness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


class GraphError(Exception):
    """Raised when an operation would violate graph consistency.

    Examples include inserting an edge whose endpoints are absent, deleting a
    non-existent node, or adding a self loop (the paper's model has no self
    loops: a node never communicates with itself).
    """


_BUILTINS = (int, float, bool, str, tuple, type(None))
#: Pairs of two different builtin label types whose ``<=`` always raises
#: ``TypeError``: all of them except a number against a number.
_UNORDERABLE_TYPES = frozenset(
    (left, right)
    for left in _BUILTINS
    for right in _BUILTINS
    if left is not right and not {left, right} <= {int, float, bool}
)


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical ordered representation of the undirected edge.

    Undirected edges are stored and reported as a sorted 2-tuple so that
    ``(u, v)`` and ``(v, u)`` always compare equal.  Sorting is done on
    ``repr`` if the nodes are not mutually orderable, which keeps the function
    total for heterogeneous node types (used by the reductions).  Type pairs
    that can never compare (an int against a fresh string label, say) go
    straight to the ``repr`` rule instead of raising and catching first.
    """
    if type(u) is not type(v) and (type(u), type(v)) in _UNORDERABLE_TYPES:
        return (u, v) if repr(u) <= repr(v) else (v, u)
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class DynamicGraph:
    """Mutable undirected simple graph with O(1) expected updates.

    Parameters
    ----------
    nodes:
        Optional iterable of initial nodes.
    edges:
        Optional iterable of initial edges, given as 2-tuples.  Endpoints not
        already present are added implicitly.

    Examples
    --------
    >>> g = DynamicGraph(nodes=[1, 2, 3], edges=[(1, 2)])
    >>> g.has_edge(2, 1)
    True
    >>> g.add_edge(2, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.remove_node(1)
    >>> g.num_edges()
    1
    """

    __slots__ = ("_adjacency", "_num_edges", "_version")

    def __init__(
        self,
        nodes: Optional[Iterable[Node]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        self._adjacency: Dict[Node, Set[Node]] = {}
        self._num_edges: int = 0
        self._version: int = 0
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v in edges:
                if u not in self._adjacency:
                    self.add_node(u)
                if v not in self._adjacency:
                    self.add_node(v)
                if not self.has_edge(u, v):
                    self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotone mutation counter (bumped on every successful mutation)."""
        return self._version

    def num_nodes(self) -> int:
        """Number of nodes currently in the graph."""
        return len(self._adjacency)

    def num_edges(self) -> int:
        """Number of undirected edges currently in the graph."""
        return self._num_edges

    def nodes(self) -> List[Node]:
        """Return a list of all nodes (copy; safe to mutate)."""
        return list(self._adjacency)

    def edges(self) -> List[Edge]:
        """Return all edges in canonical form (copy; safe to mutate)."""
        seen: Set[Edge] = set()
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                seen.add(canonical_edge(u, v))
        return sorted(seen, key=repr)

    def has_node(self, node: Node) -> bool:
        """Return True iff ``node`` is present."""
        return node in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return True iff the undirected edge ``{u, v}`` is present."""
        nbrs = self._adjacency.get(u)
        return nbrs is not None and v in nbrs

    def degree(self, node: Node) -> int:
        """Degree of ``node``.

        Raises
        ------
        GraphError
            If the node is not present.
        """
        try:
            return len(self._adjacency[node])
        except KeyError:
            raise GraphError(f"node {node!r} is not in the graph") from None

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """Return the neighbor set of ``node`` as an immutable snapshot."""
        try:
            return frozenset(self._adjacency[node])
        except KeyError:
            raise GraphError(f"node {node!r} is not in the graph") from None

    def iter_neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over neighbors without copying (do not mutate meanwhile)."""
        try:
            return iter(self._adjacency[node])
        except KeyError:
            raise GraphError(f"node {node!r} is not in the graph") from None

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for an empty graph)."""
        if not self._adjacency:
            return 0
        return max(len(nbrs) for nbrs in self._adjacency.values())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert an isolated node.

        Raises
        ------
        GraphError
            If the node already exists.
        """
        if node in self._adjacency:
            raise GraphError(f"node {node!r} already exists")
        self._adjacency[node] = set()
        self._version += 1

    def add_node_with_edges(self, node: Node, neighbors: Iterable[Node]) -> None:
        """Insert ``node`` together with edges to existing ``neighbors``.

        This mirrors the paper's node-insertion topology change, in which a
        new node arrives "possibly with multiple edges".

        Raises
        ------
        GraphError
            If the node exists, a neighbor is missing, or a neighbor equals
            the node itself.
        """
        neighbor_list = list(neighbors)
        for v in neighbor_list:
            if v == node:
                raise GraphError("self loops are not allowed")
            if v not in self._adjacency:
                raise GraphError(f"neighbor {v!r} is not in the graph")
        if len(set(neighbor_list)) != len(neighbor_list):
            raise GraphError("duplicate neighbors in node insertion")
        self.add_node(node)
        for v in neighbor_list:
            self.add_edge(node, v)

    def remove_node(self, node: Node) -> FrozenSet[Node]:
        """Delete ``node`` and all incident edges; return its old neighbors.

        Raises
        ------
        GraphError
            If the node is not present.
        """
        if node not in self._adjacency:
            raise GraphError(f"node {node!r} is not in the graph")
        old_neighbors = frozenset(self._adjacency[node])
        for v in old_neighbors:
            self._adjacency[v].discard(node)
            self._num_edges -= 1
        del self._adjacency[node]
        self._version += 1
        return old_neighbors

    def add_edge(self, u: Node, v: Node) -> None:
        """Insert the undirected edge ``{u, v}``.

        Raises
        ------
        GraphError
            If an endpoint is missing, the edge exists, or ``u == v``.
        """
        if u == v:
            raise GraphError("self loops are not allowed")
        if u not in self._adjacency:
            raise GraphError(f"node {u!r} is not in the graph")
        if v not in self._adjacency:
            raise GraphError(f"node {v!r} is not in the graph")
        if v in self._adjacency[u]:
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)
        self._num_edges += 1
        self._version += 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Delete the undirected edge ``{u, v}``.

        Raises
        ------
        GraphError
            If the edge is not present.
        """
        if u not in self._adjacency or v not in self._adjacency[u]:
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        self._adjacency[u].discard(v)
        self._adjacency[v].discard(u)
        self._num_edges -= 1
        self._version += 1

    # ------------------------------------------------------------------
    # Derived data
    # ------------------------------------------------------------------
    def copy(self) -> "DynamicGraph":
        """Return an independent deep copy of the graph."""
        clone = DynamicGraph()
        clone._adjacency = {node: set(nbrs) for node, nbrs in self._adjacency.items()}
        clone._num_edges = self._num_edges
        clone._version = 0
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "DynamicGraph":
        """Return the induced subgraph on ``nodes`` (missing nodes ignored)."""
        keep = {node for node in nodes if node in self._adjacency}
        sub = DynamicGraph(nodes=keep)
        for u in keep:
            for v in self._adjacency[u]:
                if v in keep and not sub.has_edge(u, v):
                    sub.add_edge(u, v)
        return sub

    def connected_components(self) -> List[Set[Node]]:
        """Return connected components as a list of node sets."""
        remaining = set(self._adjacency)
        components: List[Set[Node]] = []
        while remaining:
            root = next(iter(remaining))
            component = {root}
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for v in self._adjacency[node]:
                    if v not in component:
                        component.add(v)
                        frontier.append(v)
            remaining -= component
            components.append(component)
        return components

    def adjacency_dict(self) -> Dict[Node, FrozenSet[Node]]:
        """Return a read-only snapshot of the full adjacency structure."""
        return {node: frozenset(nbrs) for node, nbrs in self._adjacency.items()}

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adjacency)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicGraph):
            return NotImplemented
        return self.adjacency_dict() == other.adjacency_dict()

    def __repr__(self) -> str:
        return (
            f"DynamicGraph(num_nodes={self.num_nodes()}, "
            f"num_edges={self.num_edges()})"
        )
