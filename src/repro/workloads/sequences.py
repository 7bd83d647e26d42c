"""Generators of long-lived topology-change sequences.

The paper's guarantees are *per change*: every single topology change costs a
constant number of adjustments/rounds/broadcasts in expectation, for any
change and any (oblivious) sequence.  The experiments therefore drive the
engines with long sequences of changes; this module produces them.

All generators are deterministic functions of their ``seed`` and never touch
the global random state.  Generators that need to know the evolving topology
(e.g. to avoid deleting a non-existent edge) simulate the evolution on a
private copy of the starting graph; they never mutate the caller's graph.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import random
from typing import Callable, Deque, Iterable, List, Optional, Tuple

from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    TopologyChange,
    apply_change_to_graph,
)


def build_sequence(graph: DynamicGraph, seed: Optional[int] = None) -> List[TopologyChange]:
    """A change sequence that builds ``graph`` starting from the empty graph.

    Nodes are inserted first (isolated), then edges are inserted one at a
    time.  If ``seed`` is given, both insertion orders are shuffled, which
    yields a *different history* for the same final graph -- exactly what the
    history-independence experiment needs.
    """
    nodes = sorted(graph.nodes(), key=repr)
    edges = sorted(graph.edges(), key=repr)
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(nodes)
        rng.shuffle(edges)
    changes: List[TopologyChange] = [NodeInsertion(node) for node in nodes]
    changes.extend(EdgeInsertion(u, v) for u, v in edges)
    return changes


def incremental_build_sequence(graph: DynamicGraph, seed: int = 0) -> List[TopologyChange]:
    """Build ``graph`` by inserting each node together with its already-present neighbors.

    This exercises the node-insertion-with-edges path instead of the
    edge-by-edge path, giving a second style of history for the same target.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.nodes(), key=repr)
    rng.shuffle(nodes)
    inserted = set()
    changes: List[TopologyChange] = []
    for node in nodes:
        present_neighbors = tuple(
            sorted((v for v in graph.neighbors(node) if v in inserted), key=repr)
        )
        changes.append(NodeInsertion(node, present_neighbors))
        inserted.add(node)
    return changes


def detour_build_sequence(
    graph: DynamicGraph, num_detours: int = 5, seed: int = 0
) -> List[TopologyChange]:
    """Build ``graph`` but insert and later remove ``num_detours`` extra edges.

    The extra edges are chosen among node pairs that are *not* edges of the
    target graph; each is inserted at a random point and removed again before
    the end, so the final graph is exactly ``graph`` while the history
    differs substantially from a plain build.
    """
    rng = random.Random(seed)
    base = build_sequence(graph, seed=seed)
    node_list = sorted(graph.nodes(), key=repr)
    non_edges: List[Tuple] = []
    for i, u in enumerate(node_list):
        for v in node_list[i + 1 :]:
            if not graph.has_edge(u, v):
                non_edges.append((u, v))
    rng.shuffle(non_edges)
    detours = non_edges[:num_detours]

    # Insert the detour edge right after both endpoints exist, delete it at the end.
    changes = list(base)
    insertion_positions = {}
    for position, change in enumerate(changes):
        if isinstance(change, NodeInsertion):
            insertion_positions[change.node] = position
    offset = 0
    for u, v in detours:
        ready = max(insertion_positions[u], insertion_positions[v]) + 1 + offset
        changes.insert(ready, EdgeInsertion(u, v))
        offset += 1
    changes.extend(EdgeDeletion(u, v) for u, v in detours)
    return changes


def edge_churn_sequence(
    graph: DynamicGraph, num_changes: int, seed: int = 0, insert_probability: float = 0.5
) -> List[TopologyChange]:
    """Random sequence of edge insertions and deletions starting from ``graph``.

    Every step tosses a coin: with ``insert_probability`` it inserts a uniform
    random missing edge (if any), otherwise it deletes a uniform random
    existing edge (if any).  The node set never changes.
    """
    if graph.num_nodes() < 2:
        raise ValueError("edge churn needs at least two nodes")
    working = _ChurnGraph(graph, seed)
    return working.run(num_changes, working.edge_change, insert_probability)


def node_churn_sequence(
    graph: DynamicGraph,
    num_changes: int,
    seed: int = 0,
    insert_probability: float = 0.5,
    attachment_probability: float = 0.3,
    graceful_probability: float = 0.5,
) -> List[TopologyChange]:
    """Random sequence of node insertions and deletions starting from ``graph``.

    Inserted nodes get fresh identifiers (strings ``"n<k>"``) and attach to
    each existing node independently with ``attachment_probability``.
    Deletions pick a uniform existing node and are marked graceful with
    probability ``graceful_probability`` (the flag only matters to the
    distributed simulators).
    """
    working = _ChurnGraph(graph, seed, label_prefix="n")
    probabilities = (insert_probability, attachment_probability, graceful_probability)
    return working.run(num_changes, working.node_change, *probabilities)


def mixed_churn_sequence(
    graph: DynamicGraph,
    num_changes: int,
    seed: int = 0,
    edge_change_probability: float = 0.7,
) -> List[TopologyChange]:
    """Interleaved edge and node churn (the general fully dynamic workload)."""
    working = _ChurnGraph(graph, seed, label_prefix="m")

    def draw() -> Optional[TopologyChange]:
        if working.rng.random() < edge_change_probability and len(working.nodes) >= 2:
            return working.edge_change(0.5)
        return working.node_change(0.5, 0.3, 0.5)

    return working.run(num_changes, draw)


def sliding_window_sequence(
    num_nodes: int, window_size: int, num_changes: int, seed: int = 0
) -> List[TopologyChange]:
    """Edges arrive continuously and expire after ``window_size`` further arrivals.

    Starts from an empty graph on ``num_nodes`` nodes; the generated sequence
    alternates insertions of fresh random edges with deletions of the oldest
    live edge once the window is full.  Models link churn in, e.g., an
    overlay network.
    """
    rng = random.Random(seed)
    working = DynamicGraph(nodes=range(num_nodes))
    live: Deque[Tuple] = collections.deque()
    changes: List[TopologyChange] = []
    attempts = 0
    while len(changes) < num_changes and attempts < 50 * num_changes:
        attempts += 1
        if len(live) >= window_size:
            u, v = live.popleft()
            if working.has_edge(u, v):
                change = EdgeDeletion(u, v, graceful=bool(rng.getrandbits(1)))
                apply_change_to_graph(working, change)
                changes.append(change)
            continue
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v or working.has_edge(u, v):
            continue
        change = EdgeInsertion(*canonical_edge(u, v))
        apply_change_to_graph(working, change)
        live.append(canonical_edge(u, v))
        changes.append(change)
    return changes


def teardown_sequence(graph: DynamicGraph, seed: Optional[int] = None) -> List[TopologyChange]:
    """A sequence that removes every edge and node of ``graph`` one at a time."""
    edges = sorted(graph.edges(), key=repr)
    nodes = sorted(graph.nodes(), key=repr)
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(edges)
        rng.shuffle(nodes)
    changes: List[TopologyChange] = [EdgeDeletion(u, v) for u, v in edges]
    changes.extend(NodeDeletion(node) for node in nodes)
    return changes


def replay_on_graph(graph: DynamicGraph, changes: Iterable[TopologyChange]) -> DynamicGraph:
    """Return the graph obtained by applying ``changes`` to a copy of ``graph``."""
    working = graph.copy()
    for change in changes:
        apply_change_to_graph(working, change)
    return working


def alternative_histories(
    graph: DynamicGraph, num_histories: int, seed: int = 0
) -> List[List[TopologyChange]]:
    """Several different change histories that all end at the same ``graph``.

    Used by the history-independence experiment: the output distribution of a
    history independent algorithm must be identical across all of them.
    """
    histories: List[List[TopologyChange]] = []
    for index in range(num_histories):
        style = index % 3
        if style == 0:
            histories.append(build_sequence(graph, seed=seed + index))
        elif style == 1:
            histories.append(incremental_build_sequence(graph, seed=seed + index))
        else:
            histories.append(
                detour_build_sequence(graph, num_detours=3 + index, seed=seed + index)
            )
    return histories


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
class _ChurnGraph:
    """The evolving private copy of the topology a churn generator draws from.

    The node list and the edge index stay sorted by ``repr`` -- the orders
    of ``sorted(graph.nodes(), key=repr)`` and :meth:`DynamicGraph.edges` --
    instead of being re-sorted before every change.  ``rng.choice`` indexes
    both, so the draws are the ones a re-sort before every change would
    give.  The node list is a plain list updated by ``bisect``: it has only
    n entries.  The edge index is a :class:`_ReprIndex`, whose updates cost
    O(log m) comparisons plus list edits of at most ``2 * _BLOCK`` entries
    each, so a node insertion with d neighbours costs O(d log m), not
    O(d m).  It is built at the first draw of a present edge, which node
    churn never makes.
    """

    def __init__(self, graph: DynamicGraph, seed: int, label_prefix: str = "") -> None:
        self.rng = random.Random(seed)
        self.graph = graph.copy()
        self.nodes = sorted(self.graph.nodes(), key=repr)
        self._edges: Optional[_ReprIndex] = None
        self._fresh_labels = (f"{label_prefix}{k}" for k in itertools.count(1))

    def run(
        self, num_changes: int, draw: Callable[..., Optional[TopologyChange]], *args: float
    ) -> List[TopologyChange]:
        """Apply up to ``num_changes`` draws ``draw(*args)``; stop at the first ``None``."""
        changes: List[TopologyChange] = []
        for _ in range(num_changes):
            change = draw(*args)
            if change is None:
                break
            self.apply(change)
            changes.append(change)
        return changes

    def edge_change(self, insert_probability: float) -> Optional[TopologyChange]:
        """A coin toss between a missing edge to insert and a present one to delete."""
        if self.rng.random() < insert_probability:
            return self._missing_edge() or self._present_edge()
        return self._present_edge() or self._missing_edge()

    def node_change(
        self, insert_probability: float, attachment_probability: float, graceful_probability: float
    ) -> TopologyChange:
        """Insert a fresh node (always when <= 2 are left) or delete a uniform one."""
        if self.rng.random() < insert_probability or len(self.nodes) <= 2:
            node = next(label for label in self._fresh_labels if not self.graph.has_node(label))
            neighbors = tuple(v for v in self.nodes if self.rng.random() < attachment_probability)
            return NodeInsertion(node, neighbors)
        victim = self.rng.choice(self.nodes)
        return NodeDeletion(victim, graceful=self.rng.random() < graceful_probability)

    def apply(self, change: TopologyChange) -> None:
        """Apply ``change`` to the sorted indexes and the graph."""
        if self._edges is not None:
            _index_edges(self._edges, self.graph, change)
        if isinstance(change, NodeDeletion):
            _remove_sorted(self.nodes, change.node)
        elif isinstance(change, NodeInsertion):
            bisect.insort(self.nodes, change.node, key=repr)
        apply_change_to_graph(self.graph, change)

    def _missing_edge(self) -> Optional[EdgeInsertion]:
        for _ in range(200):
            u = self.rng.choice(self.nodes)
            v = self.rng.choice(self.nodes)
            if u != v and not self.graph.has_edge(u, v):
                return EdgeInsertion(*canonical_edge(u, v))
        return None

    def _present_edge(self) -> Optional[EdgeDeletion]:
        if self._edges is None:
            self._edges = _ReprIndex(self.graph.edges())
        if not self._edges:
            return None
        u, v = self.rng.choice(self._edges)
        return EdgeDeletion(u, v, graceful=bool(self.rng.getrandbits(1)))


#: Half the largest block of a :class:`_ReprIndex`.  Larger blocks make
#: every insert and remove move more entries, smaller ones make every
#: indexed read walk more blocks.  Generating the ``lifecycle`` benchmark
#: spec's workload on a 2-CPU container, values from 32 to 512 measured
#: within noise of each other and 2048 about 20% slower.
_BLOCK = 512


class _ReprIndex:
    """A sequence kept sorted by ``repr``, in blocks of at most ``2 * _BLOCK``.

    It holds the items a list sorted with ``key=repr`` would hold, in the
    same order, ties included: :meth:`insert` goes after equal keys, as
    ``bisect.insort`` does, and :meth:`remove` deletes the first ``==`` item
    from the first key not below its own on, as :func:`_remove_sorted`
    does.  Each block keeps a parallel list of its items' ``repr`` keys,
    and ``_maxes`` holds each block's last key, so an update computes one
    ``repr`` and bisects in C over strings.  ``index[k]`` walks the block
    lengths to the global k-th item, which is all ``random.choice`` needs.
    """

    def __init__(self, items: List) -> None:
        """Index ``items``, which must already be sorted by ``repr``."""
        keys = [repr(item) for item in items]
        starts = range(0, len(items), _BLOCK)
        self._blocks = [items[start : start + _BLOCK] for start in starts]
        self._keys = [keys[start : start + _BLOCK] for start in starts]
        self._maxes = [block_keys[-1] for block_keys in self._keys]
        self._len = len(items)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index: int):
        for block in self._blocks:
            if index < len(block):
                return block[index]
            index -= len(block)
        raise IndexError("index out of range")

    def insert(self, item) -> None:
        """Insert ``item`` after every item whose key is at most its own."""
        key = repr(item)
        maxes = self._maxes
        self._len += 1
        if not maxes:
            self._blocks.append([item])
            self._keys.append([key])
            maxes.append(key)
            return
        i = bisect.bisect_right(maxes, key)
        if i == len(maxes):
            i -= 1
            maxes[i] = key
        block, keys = self._blocks[i], self._keys[i]
        position = bisect.bisect_right(keys, key)
        block.insert(position, item)
        keys.insert(position, key)
        if len(block) > 2 * _BLOCK:
            self._blocks[i : i + 1] = block[:_BLOCK], block[_BLOCK:]
            self._keys[i : i + 1] = keys[:_BLOCK], keys[_BLOCK:]
            maxes.insert(i, keys[_BLOCK - 1])

    def remove(self, item) -> None:
        """Delete the first item ``== item`` from the first key not below its own on."""
        key = repr(item)
        start = bisect.bisect_left(self._maxes, key)
        position = bisect.bisect_left(self._keys[start], key) if start < len(self._maxes) else 0
        for i in range(start, len(self._blocks)):
            block = self._blocks[i]
            try:
                position = block.index(item, position)
            except ValueError:
                position = 0
                continue
            keys = self._keys[i]
            del block[position], keys[position]
            self._len -= 1
            if block:
                self._maxes[i] = keys[-1]
            else:
                del self._blocks[i], self._keys[i], self._maxes[i]
            return
        raise ValueError(f"{item!r} is not in the index")


def _index_edges(edges: _ReprIndex, graph: DynamicGraph, change: TopologyChange) -> None:
    """Update ``edges`` for ``change`` before it is applied to ``graph``."""
    if isinstance(change, EdgeInsertion):
        edges.insert(canonical_edge(change.u, change.v))
    elif isinstance(change, EdgeDeletion):
        edges.remove(canonical_edge(change.u, change.v))
    elif isinstance(change, NodeInsertion):
        for v in change.neighbors:
            edges.insert(canonical_edge(change.node, v))
    elif isinstance(change, NodeDeletion):
        for v in graph.neighbors(change.node):
            edges.remove(canonical_edge(change.node, v))


def _remove_sorted(items: List, item) -> None:
    """Delete ``item`` from ``items``, a list sorted by ``repr`` (ties scanned in order)."""
    del items[items.index(item, bisect.bisect_left(items, repr(item), key=repr))]
