"""Array-backed dynamic MIS engine (the ``"fast"`` backend).

:class:`FastEngine` maintains exactly the same output as
:class:`~repro.core.template.TemplateEngine` -- the random-greedy MIS of the
current graph under the order ``pi`` -- but stores everything in flat,
index-addressed arrays instead of dicts and sets of hashable labels:

* node labels are *interned* to dense integer ids on arrival; ids of deleted
  nodes go to a free list and are reused by later insertions, so the arrays
  never grow beyond the historical peak node count;
* adjacency is one ``array('q')`` of neighbor ids per node (grow-on-demand,
  deletion swaps with the last entry), giving cache-friendly O(deg) scans
  with no hashing on the hot path;
* priorities, MIS states and liveness live in parallel arrays indexed by id.

The interning, the adjacency rows and their one-pass build live in
:class:`InternedGraph`, which the fast network cores of
:mod:`repro.distributed.fast_network` subclass too; :class:`FastGraphView`
reads that one layout for either backend.

The influenced-set propagation of Algorithm 1 is an iterative loop over
integer ids that mirrors :func:`repro.core.influenced.propagate_influence`
*level by level*: within a level every dirty node re-evaluates the MIS
invariant against a snapshot of the states, then all flips commit together.
Because flips only commit between levels, the per-level evaluation order is
irrelevant and both engines produce identical level sets, influenced sets,
adjustment counts and work counters -- this is machine-checked by the
differential conformance suite in ``tests/conformance/``.  A batch
(:meth:`FastEngine.apply_batch`) runs the same walk, seeded with every node
its changes touched; the engine has one level loop and needs nothing but the
standard library.

Unlike the template engine -- which copies the full state dict on every
change and rescans all nodes to count adjustments (O(n) per change) -- the
fast engine touches only the influenced neighborhood, so its per-change cost
is proportional to the influenced-set walk that Theorem 1 bounds.  See
``benchmarks/bench_a4_engine_backends.py`` for the measured speedup.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.engine_api import BatchUpdateReport, EngineSnapshot, MISEngine
from repro.core.invariant import InvariantViolation
from repro.core.priorities import PriorityAssigner, RandomPriorityAssigner
from repro.graph.dynamic_graph import DynamicGraph, GraphError, canonical_edge

Node = Hashable

_NO_ID = -1


@dataclass(frozen=True)
class FastUpdateReport:
    """Per-change report of :class:`FastEngine`.

    Field-compatible with the quantities
    :class:`~repro.core.dynamic_mis.MaintainerStatistics` records from a
    template :class:`~repro.core.template.UpdateReport`, but stored as plain
    integers instead of a full propagation trace (keeping the trace would put
    dict/set churn back on the hot path).
    """

    change_type: str
    v_star: Optional[Node]
    v_star_star: Optional[Node]
    influenced_size: int
    num_adjustments: int
    num_levels: int
    state_flips: int
    update_work: int
    evaluations: int
    influenced_labels: FrozenSet[Node]

    @property
    def influenced_set(self) -> Set[Node]:
        """The influenced set ``S`` as labels (parity with the template report)."""
        return set(self.influenced_labels)


class InternedGraph:
    """Label-interned adjacency store behind the array-backed backends.

    Node labels are interned to dense ids ``0..capacity-1``; ids of deleted
    nodes go to a LIFO free list and are reused by later insertions.  Per id
    the store keeps the label, the priority key (and its float part, the
    cheap first comparison), liveness and one ``array('q')`` row of neighbor
    ids.  :class:`FastEngine` and the fast network cores subclass it and add
    only their own id-indexed arrays, in ``super()`` overrides of
    :meth:`_build`, :meth:`_new_slot`, :meth:`_intern` and :meth:`_release`.
    """

    _priorities: PriorityAssigner

    def _build(self, nodes: Iterable[Node], edges: Iterable[Tuple[Node, Node]]) -> None:
        """(Re)build the interned storage for ``nodes`` and ``edges`` at once.

        The labels get ids ``0..n-1`` in the given order with an empty free
        list -- the layout that interning them one by one into empty storage
        would give -- but every id-indexed array is built in one pass, not
        one :meth:`_intern` at a time.  This is the single build path of
        bootstrap and restore on both backends (subclasses then fill their
        own arrays at full size); :meth:`_intern` serves later insertions.
        """
        labels = list(nodes)
        assign = self._priorities.assign
        keys = [tuple(assign(label)) for label in labels]
        count = len(labels)
        # id-indexed parallel arrays (grown together by _new_slot).
        self._labels: List[Optional[Node]] = list(labels)  # id -> label (None = free slot)
        self._prio: List[float] = [float(key[0]) for key in keys]  # repro-lint: transient -- cache of _keys[nid][0], rebuilt on restore
        self._keys: List[Optional[Tuple]] = list(keys)  # id -> full priority key
        self._alive = bytearray(b"\x01") * count  # repro-lint: transient -- id -> 1 iff live; restore rebuilds every snapshot node
        # Label interning.
        self._id_of: Dict[Node, int] = {label: nid for nid, label in enumerate(labels)}
        self._free: List[int] = []  # repro-lint: transient -- interning free list, empty after restore
        # Adjacency: one array('q') of neighbor ids per node, filled in edge order.
        rows: List[List[int]] = [[] for _ in range(count)]
        id_of = self._id_of
        num_edges = 0
        for u, v in edges:
            iu, iv = id_of[u], id_of[v]
            rows[iu].append(iv)
            rows[iv].append(iu)
            num_edges += 1
        self._adj: List[array] = [array("q", row) for row in rows]
        self._num_edges = num_edges  # repro-lint: transient -- derived count; the snapshot stores the edge list

    # ------------------------------------------------------------------
    # Interning / slot management
    # ------------------------------------------------------------------
    def _new_slot(self) -> int:
        nid = len(self._labels)
        self._labels.append(None)
        self._adj.append(array("q"))
        self._prio.append(0.0)
        self._keys.append(None)
        self._alive.append(0)
        return nid

    def _intern(self, label: Node) -> int:
        """Assign ``label`` a dense id (reusing a free slot) and its priority."""
        nid = self._free.pop() if self._free else self._new_slot()
        key = self._priorities.assign(label)
        self._labels[nid] = label
        self._prio[nid] = float(key[0])
        self._keys[nid] = tuple(key)
        self._alive[nid] = 1
        self._id_of[label] = nid
        return nid

    def _release(self, nid: int) -> None:
        """Return a dead id to the free list (its label was already unmapped).

        A free slot keeps no adjacency, so :meth:`_intern` reuses it as is.
        """
        self._labels[nid] = None
        self._keys[nid] = None
        del self._adj[nid][:]
        self._free.append(nid)

    def _require(self, label: Node) -> int:
        nid = self._id_of.get(label)
        if nid is None:
            raise GraphError(f"node {label!r} is not in the graph")
        return nid

    def _earlier(self, a: int, b: int) -> bool:
        """True iff id ``a`` comes before id ``b`` in ``pi``."""
        pa, pb = self._prio[a], self._prio[b]
        if pa != pb:
            return pa < pb
        return self._keys[a] < self._keys[b]

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def priorities(self) -> PriorityAssigner:
        """The order ``pi``."""
        return self._priorities

    @property
    def graph(self) -> "FastGraphView":
        """Read-only :class:`DynamicGraph`-shaped view of the current topology."""
        return FastGraphView(self)

    def num_nodes(self) -> int:
        """Number of live nodes."""
        return len(self._id_of)

    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def capacity(self) -> int:
        """Number of allocated id slots (live + free); never shrinks."""
        return len(self._labels)

    def free_slots(self) -> int:
        """Number of ids currently waiting on the free list."""
        return len(self._free)

    def nodes(self) -> List[Node]:
        """All live node labels."""
        return list(self._id_of)

    def has_node(self, label: Node) -> bool:
        """Whether ``label`` is a live node."""
        return label in self._id_of

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        iu = self._id_of.get(u)
        iv = self._id_of.get(v)
        return iu is not None and iv is not None and iv in self._adj[iu]

    def degree(self, label: Node) -> int:
        """Degree of ``label`` (raises :class:`GraphError` if absent)."""
        return len(self._adj[self._require(label)])

    def neighbor_labels(self, label: Node) -> List[Node]:
        """The neighbor labels of ``label``."""
        labels = self._labels
        return [labels[m] for m in self._adj[self._require(label)]]

    def check_interning_invariants(self) -> None:
        """Assert the interning / free-list / adjacency bookkeeping is sound.

        Exercised by the property-based tests after every change batch:
        live ids and free ids partition the slot range, the label<->id maps
        are mutually inverse, adjacency is symmetric, contains only live ids
        and no self loops, and the edge counter matches the arrays.
        """
        if not __debug__:  # pragma: no cover - -O strips the asserts below
            raise RuntimeError(
                "check_interning_invariants needs assertions enabled (do not run "
                "the conformance suite under python -O)"
            )
        capacity = len(self._labels)
        for parallel in (self._adj, self._prio, self._keys):
            assert len(parallel) == capacity, "parallel arrays diverged in length"
        assert len(self._alive) == capacity
        free = set(self._free)
        assert len(free) == len(self._free), "duplicate ids on the free list"
        live = set(self._id_of.values())
        assert not (free & live), "id is both free and live"
        assert free | live == set(range(capacity)), "leaked id slot"
        half_edges = 0
        for label, nid in self._id_of.items():
            assert self._alive[nid] and self._labels[nid] == label, "intern map broken"
            assert self._keys[nid] is not None and self._prio[nid] == self._keys[nid][0]
            assert self._priorities.knows(label), "live node lost its priority"
            row = self._adj[nid]
            assert len(set(row)) == len(row), "duplicate adjacency entry"
            for m in row:
                assert m != nid, "self loop"
                assert self._alive[m], "edge to a dead node"
                assert nid in self._adj[m], "asymmetric adjacency"
            half_edges += len(row)
        for nid in free:
            assert not self._alive[nid], "free id still alive"
            assert self._labels[nid] is None and self._keys[nid] is None
            assert len(self._adj[nid]) == 0, "free id kept adjacency"
        assert half_edges == 2 * self._num_edges, "edge counter out of sync"


class FastGraphView:
    """Read-only :class:`DynamicGraph`-shaped facade over an :class:`InternedGraph`.

    Lets existing graph-consuming code (CLI summaries, clustering fallback,
    benchmarks, validation checks) read the topology of a fast engine or a
    fast network core without materializing dict-of-set adjacency.
    Mutations must go through the backend's topology-change API.
    """

    __slots__ = ("_store",)

    def __init__(self, store: InternedGraph) -> None:
        self._store = store

    def num_nodes(self) -> int:
        return self._store.num_nodes()

    def num_edges(self) -> int:
        return self._store.num_edges()

    def nodes(self) -> List[Node]:
        return self._store.nodes()

    def has_node(self, node: Node) -> bool:
        return self._store.has_node(node)

    def has_edge(self, u: Node, v: Node) -> bool:
        return self._store.has_edge(u, v)

    def degree(self, node: Node) -> int:
        return self._store.degree(node)

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        return frozenset(self._store.neighbor_labels(node))

    def iter_neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self._store.neighbor_labels(node))

    def max_degree(self) -> int:
        return max((self.degree(node) for node in self.nodes()), default=0)

    def edges(self) -> List[Tuple[Node, Node]]:
        """Canonical edges in :meth:`DynamicGraph.edges` order (sorted by ``repr``).

        Walks each edge once, from its smaller id, and spells the sort key
        ``repr((u, v))`` from one ``repr`` per node.
        """
        store = self._store
        labels, adj = store._labels, store._adj
        edges: List[Tuple[Node, Node]] = []
        for label, nid in store._id_of.items():
            for m in adj[nid]:
                if m > nid:
                    edges.append(canonical_edge(label, labels[m]))
        spelled = {label: repr(label) for label in store._id_of}
        edges.sort(key=lambda edge: f"({spelled[edge[0]]}, {spelled[edge[1]]})")
        return edges

    def copy(self) -> DynamicGraph:
        """Materialize an independent :class:`DynamicGraph` snapshot."""
        return DynamicGraph(nodes=self.nodes(), edges=self.edges())

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return self.num_nodes()

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes())

    def __repr__(self) -> str:
        return f"FastGraphView(num_nodes={self.num_nodes()}, num_edges={self.num_edges()})"


class FastEngine(InternedGraph, MISEngine):
    """Array-backed sequential-semantics dynamic MIS maintainer.

    Drop-in alternative to :class:`~repro.core.template.TemplateEngine`
    (both implement the :class:`~repro.core.engine_api.MISEngine` contract):
    same topology-change API, same outputs under the same seed, an order of
    magnitude lower constant factors.  Registered as ``"fast"``, selected via
    ``DynamicMIS(engine="fast")``.

    Parameters
    ----------
    priorities:
        Order ``pi``.  Defaults to a fresh
        :class:`~repro.core.priorities.RandomPriorityAssigner` with ``seed``.
        The assigner is only consulted when a node is interned (insertion),
        never on the propagation hot path.
    seed:
        Seed for the default priority assigner (ignored when ``priorities``
        is given).
    initial_graph:
        Optional starting graph whose MIS is computed with one array-based
        greedy pass.
    """

    #: Declared here so that this waiver covers the engine, not the network cores.
    _keys: List[Optional[Tuple]]  # repro-lint: transient -- copy of the assigner's keys, which snapshot() reads

    def __init__(
        self,
        priorities: Optional[PriorityAssigner] = None,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
    ) -> None:
        self._priorities = priorities if priorities is not None else RandomPriorityAssigner(seed)
        self._build((), ())
        if initial_graph is not None:
            self._bootstrap(initial_graph)

    # ------------------------------------------------------------------
    # Build / bootstrap: the store plus the MIS bits and the walk stamps
    # ------------------------------------------------------------------
    def _build(self, nodes: Iterable[Node], edges: Iterable[Tuple[Node, Node]]) -> None:
        """Build the store, then this engine's id-indexed arrays at full size."""
        super()._build(nodes, edges)
        count = len(self._labels)
        self._state = bytearray(count)  # id -> 1 iff in MIS
        # Per-change scratch stamps (avoid clearing O(n) state every change).
        self._snap_stamp: List[int] = [0] * count  # repro-lint: transient -- id -> epoch of the old-state snapshot; per-change scratch
        self._snap_state = bytearray(count)  # repro-lint: transient -- id -> state at the change's start; per-change scratch
        self._infl_stamp: List[int] = [0] * count  # repro-lint: transient -- id -> epoch when first counted influenced; per-change scratch
        self._epoch = 0  # repro-lint: transient -- per-change stamp counter; stamps compare only within one change

    def _bootstrap(self, graph: DynamicGraph) -> None:
        self._build(graph.nodes(), graph.edges())
        # Greedy pass in increasing pi: any MIS neighbor was processed earlier,
        # unprocessed (hence later) neighbors still read as state 0.
        state = self._state
        order = sorted(range(len(self._labels)), key=lambda i: self._keys[i])
        for nid in order:
            if not any(state[m] for m in self._adj[nid]):
                state[nid] = 1

    def _new_slot(self) -> int:
        nid = super()._new_slot()
        self._state.append(0)
        self._snap_stamp.append(0)
        self._snap_state.append(0)
        self._infl_stamp.append(0)
        return nid

    def _intern(self, label: Node) -> int:
        nid = super()._intern(label)
        self._state[nid] = 0
        return nid

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def mis(self) -> Set[Node]:
        """The current maximal independent set (as labels)."""
        state = self._state
        return {label for label, nid in self._id_of.items() if state[nid]}

    def states(self) -> Dict[Node, bool]:
        """Copy of the full output map ``label -> in MIS?``."""
        state = self._state
        return {label: bool(state[nid]) for label, nid in self._id_of.items()}

    def in_mis(self, label: Node) -> bool:
        """Whether ``label`` is currently in the MIS."""
        return bool(self._state[self._require(label)])

    def clustering(self) -> Dict[Node, Node]:
        """Correlation clustering view: every node -> its cluster center.

        MIS nodes are their own centers; every other node joins its earliest
        (smallest key) MIS neighbor, exactly as
        :meth:`repro.core.dynamic_mis.DynamicMIS.clustering` computes from the
        template engine.
        """
        labels, state, prio, keys = self._labels, self._state, self._prio, self._keys
        centers: Dict[Node, Node] = {}
        for label, nid in self._id_of.items():
            if state[nid]:
                centers[label] = label
                continue
            best = _NO_ID
            for m in self._adj[nid]:
                if state[m] and (
                    best == _NO_ID
                    or prio[m] < prio[best]
                    or (prio[m] == prio[best] and keys[m] < keys[best])
                ):
                    best = m
            centers[label] = labels[best] if best != _NO_ID else None
        return centers

    def verify(self) -> None:
        """Assert the MIS invariant at every live node (used heavily in tests)."""
        for label, nid in self._id_of.items():
            if self._state[nid] != self._desired(nid):
                raise InvariantViolation(f"MIS invariant violated at node {label!r}")

    def check_interning_invariants(self) -> None:
        """The store's invariants, plus this engine's arrays matching its capacity."""
        super().check_interning_invariants()
        capacity = len(self._labels)
        for parallel in (self._snap_stamp, self._infl_stamp):
            assert len(parallel) == capacity, "parallel arrays diverged in length"
        assert len(self._state) == capacity and len(self._snap_state) == capacity

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def restore(self, snapshot: EngineSnapshot) -> None:
        """Rebuild the interned arrays from a label-level snapshot.

        The slot layout is *not* preserved -- labels are re-interned densely
        in snapshot order -- but every observable quantity (graph, states,
        priority keys, and therefore all future reports) is, which is all the
        :class:`~repro.core.engine_api.MISEngine` contract promises.
        """
        self._priorities.restore_keys(dict(snapshot.priority_keys))
        self._build(snapshot.nodes, snapshot.edges)
        id_of = self._id_of
        for label, in_mis in snapshot.states.items():
            self._state[id_of[label]] = 1 if in_mis else 0

    # ------------------------------------------------------------------
    # Topology changes
    # ------------------------------------------------------------------
    def insert_edge(self, u: Node, v: Node) -> FastUpdateReport:
        """Insert edge ``{u, v}`` and restore the invariant."""
        iu = self._id_of.get(u)
        iv = self._id_of.get(v)
        if iu is None or iv is None:
            raise GraphError("both endpoints must exist before inserting an edge")
        if u == v:
            raise GraphError("self loops are not allowed")
        if iv in self._adj[iu]:
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        self._adj[iu].append(iv)
        self._adj[iv].append(iu)
        self._num_edges += 1
        star = iv if self._earlier(iu, iv) else iu
        other = iu if star == iv else iv
        needs = self._state[star] != self._desired(star)
        return self._propagate(
            "edge_insertion", star, self._labels[other], source_changes=needs
        )

    def delete_edge(self, u: Node, v: Node) -> FastUpdateReport:
        """Delete edge ``{u, v}`` and restore the invariant."""
        iu = self._id_of.get(u)
        iv = self._id_of.get(v)
        if iu is None or iv is None or iv not in self._adj[iu]:
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        self._remove_half_edge(iu, iv)
        self._remove_half_edge(iv, iu)
        self._num_edges -= 1
        star = iv if self._earlier(iu, iv) else iu
        other = iu if star == iv else iv
        needs = self._state[star] != self._desired(star)
        return self._propagate(
            "edge_deletion", star, self._labels[other], source_changes=needs
        )

    def insert_node(self, label: Node, neighbors: Iterable[Node] = ()) -> FastUpdateReport:
        """Insert ``label`` with edges to existing ``neighbors``."""
        if label in self._id_of:
            raise GraphError(f"node {label!r} already exists")
        neighbor_list = list(neighbors)
        neighbor_ids: List[int] = []
        for other in neighbor_list:
            if other == label:
                raise GraphError("self loops are not allowed")
            oid = self._id_of.get(other)
            if oid is None:
                raise GraphError(f"neighbor {other!r} is not in the graph")
            neighbor_ids.append(oid)
        if len(set(neighbor_ids)) != len(neighbor_ids):
            raise GraphError("duplicate neighbors in node insertion")
        nid = self._intern(label)
        row = self._adj[nid]
        for oid in neighbor_ids:
            row.append(oid)
            self._adj[oid].append(nid)
        self._num_edges += len(neighbor_ids)
        # The new node enters with a provisional non-MIS output (state 0 set
        # by _intern); it flips iff it has no earlier MIS neighbor.
        needs = self._desired(nid)
        return self._propagate("node_insertion", nid, label, source_changes=needs)

    def delete_node(self, label: Node) -> FastUpdateReport:
        """Delete ``label`` and its incident edges, then restore the invariant."""
        nid = self._id_of.get(label)
        if nid is None:
            raise GraphError(f"node {label!r} is not in the graph")
        was_in_mis = bool(self._state[nid])
        later: List[int] = []
        if was_in_mis:
            later = [m for m in self._adj[nid] if self._earlier(nid, m)]
        for m in self._adj[nid]:
            self._remove_half_edge(m, nid)
        self._num_edges -= len(self._adj[nid])
        del self._adj[nid][:]
        self._alive[nid] = 0
        del self._id_of[label]
        report = self._propagate(
            "node_deletion",
            nid,
            label,
            source_changes=was_in_mis,
            source_alive=False,
            extra_dirty=later,
        )
        self._priorities.forget(label)
        self._release(nid)
        return report

    def apply_batch(self, changes: Sequence) -> BatchUpdateReport:
        """Apply ``changes`` atomically: array deltas first, one repair wave after.

        Every change is validated against the *evolving* topology and
        applied directly to the flat arrays -- no invariant repair in
        between -- while collecting the dirty seed set (later endpoints of
        edge changes, inserted nodes, former later-neighbors of deleted MIS
        nodes).  The single-change walk :meth:`_propagate`, started with no
        source from all the seeds at once, then restores the invariant.

        Matches :meth:`repro.core.template.TemplateEngine.apply_batch`
        report-for-report (influenced sets, adjustment counts, level/work
        counters), which the batched differential conformance suite checks.

        Raises
        ------
        GraphError
            If some change in the batch is invalid at its position -- raised
            by the up-front :func:`~repro.workloads.changes.validate_batch`
            pass, *before* any array delta is applied, so a failed batch
            leaves the engine untouched.
        """
        from repro.workloads.changes import (
            EdgeDeletion,
            EdgeInsertion,
            NodeDeletion,
            NodeInsertion,
            NodeUnmuting,
            validate_batch,
        )

        validate_batch(self, changes)
        id_of = self._id_of
        adj = self._adj
        # Dirty nodes are tracked by *label*, exactly like the template batch:
        # a label deleted and re-inserted inside the same batch keeps its seat
        # in the seed set even though its id changed.
        dirty_labels: Set[Node] = set()
        deleted_labels: Set[Node] = set()
        dead_slots: List[int] = []
        applied: List = []

        for change in changes:
            if isinstance(change, EdgeInsertion):
                iu, iv = id_of[change.u], id_of[change.v]
                adj[iu].append(iv)
                adj[iv].append(iu)
                self._num_edges += 1
                star = iv if self._earlier(iu, iv) else iu
                dirty_labels.add(self._labels[star])
            elif isinstance(change, EdgeDeletion):
                iu, iv = id_of[change.u], id_of[change.v]
                self._remove_half_edge(iu, iv)
                self._remove_half_edge(iv, iu)
                self._num_edges -= 1
                star = iv if self._earlier(iu, iv) else iu
                dirty_labels.add(self._labels[star])
            elif isinstance(change, (NodeInsertion, NodeUnmuting)):
                neighbor_ids = [id_of[other] for other in change.neighbors]
                nid = self._intern(change.node)
                row = adj[nid]
                for oid in neighbor_ids:
                    row.append(oid)
                    adj[oid].append(nid)
                self._num_edges += len(neighbor_ids)
                dirty_labels.add(change.node)
                deleted_labels.discard(change.node)
            elif isinstance(change, NodeDeletion):
                nid = id_of[change.node]
                if self._state[nid]:
                    labels = self._labels
                    dirty_labels.update(
                        labels[m] for m in adj[nid] if self._earlier(nid, m)
                    )
                for m in adj[nid]:
                    self._remove_half_edge(m, nid)
                self._num_edges -= len(adj[nid])
                del adj[nid][:]
                self._alive[nid] = 0
                del id_of[change.node]
                dirty_labels.discard(change.node)
                deleted_labels.add(change.node)
                dead_slots.append(nid)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown change type: {change!r}")
            applied.append(change)

        seed_nodes = {label for label in dirty_labels if label in id_of}
        walk = self._propagate(
            "batch",
            None,
            None,
            source_changes=False,
            extra_dirty=[id_of[label] for label in seed_nodes],
        )
        report = BatchUpdateReport(
            changes=applied,
            seed_nodes=seed_nodes,
            influenced_labels=walk.influenced_labels,
            influenced_size=walk.influenced_size,
            num_adjustments=walk.num_adjustments,
            num_levels=walk.num_levels,
            state_flips=walk.state_flips,
            update_work=walk.update_work,
            evaluations=walk.evaluations,
        )
        for label in deleted_labels:
            self._priorities.forget(label)
        for nid in dead_slots:
            self._release(nid)
        return report

    # ------------------------------------------------------------------
    # Propagation (the hot path)
    # ------------------------------------------------------------------
    def _propagate(
        self,
        change_type: str,
        source: Optional[int],
        v_star_star: Optional[Node],
        source_changes: bool,
        source_alive: bool = True,
        extra_dirty: Iterable[int] = (),
    ) -> FastUpdateReport:
        """Iterative influenced-set walk; mirrors ``propagate_influence``.

        A batch passes ``source=None``: the walk then starts from the
        ``extra_dirty`` seeds alone, with no changed node of its own.
        """
        state, adj, prio, keys = self._state, self._adj, self._prio, self._keys
        alive, labels = self._alive, self._labels
        self._epoch += 1
        epoch = self._epoch
        snap_stamp, snap_state = self._snap_stamp, self._snap_state
        infl_stamp = self._infl_stamp

        num_levels = 0
        state_flips = 0
        influenced = 0
        evaluations = 0
        work = 0
        touched: List[int] = []  # live ids whose state flipped at least once
        influenced_labels: List[Node] = []

        dirty: Set[int] = set()
        if source_changes:
            assert source is not None
            num_levels += 1
            state_flips += 1
            influenced += 1
            influenced_labels.append(labels[source] if source_alive else v_star_star)
            if source_alive:
                infl_stamp[source] = epoch
                snap_stamp[source] = epoch
                snap_state[source] = state[source]
                touched.append(source)
                state[source] ^= 1
                evaluations += 1
                work += len(adj[source])
                sp = prio[source]
                sk = keys[source]
                for m in adj[source]:
                    if prio[m] > sp or (prio[m] == sp and keys[m] > sk):
                        dirty.add(m)
        for m in extra_dirty:
            if alive[m]:
                dirty.add(m)

        cap = 2 * len(self._id_of) + 5
        level = 0
        while dirty:
            level += 1
            if level > cap:
                raise RuntimeError(
                    "influence propagation did not converge; the starting states "
                    "probably violated the MIS invariant before the change"
                )
            flipped: List[int] = []
            for nid in dirty:
                evaluations += 1
                work += len(adj[nid])
                if self._desired(nid) != state[nid]:
                    flipped.append(nid)
            if not flipped:
                break
            for nid in flipped:
                if snap_stamp[nid] != epoch:
                    snap_stamp[nid] = epoch
                    snap_state[nid] = state[nid]
                    touched.append(nid)
                if infl_stamp[nid] != epoch:
                    infl_stamp[nid] = epoch
                    influenced += 1
                    influenced_labels.append(labels[nid])
                state[nid] ^= 1
            state_flips += len(flipped)
            num_levels += 1
            dirty = set()
            for nid in flipped:
                np_, nk = prio[nid], keys[nid]
                for m in adj[nid]:
                    if prio[m] > np_ or (prio[m] == np_ and keys[m] > nk):
                        dirty.add(m)

        adjustments = sum(
            1 for nid in touched if alive[nid] and state[nid] != snap_state[nid]
        )
        return FastUpdateReport(
            change_type=change_type,
            v_star=labels[source] if source is not None and alive[source] else v_star_star,
            v_star_star=v_star_star,
            influenced_size=influenced,
            num_adjustments=adjustments,
            num_levels=num_levels,
            state_flips=state_flips,
            update_work=work,
            evaluations=evaluations,
            influenced_labels=frozenset(influenced_labels),
        )

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _desired(self, nid: int) -> bool:
        """MIS-invariant target state: no earlier neighbor may be in the MIS."""
        state, prio, keys = self._state, self._prio, self._keys
        pf = prio[nid]
        kf = keys[nid]
        for m in self._adj[nid]:
            if state[m] and (prio[m] < pf or (prio[m] == pf and keys[m] < kf)):
                return False
        return True

    def _remove_half_edge(self, nid: int, other: int) -> None:
        row = self._adj[nid]
        position = row.index(other)
        last = len(row) - 1
        if position != last:
            row[position] = row[last]
        del row[last]


def fast_greedy_mis(graph: DynamicGraph, priorities: PriorityAssigner) -> Set[Node]:
    """Array-based from-scratch greedy MIS (same output as ``greedy_mis``).

    Used by the distributed networks' reference-validation path when the
    ``"fast"`` reference engine is selected: at large ``n`` the interning +
    integer-scan pass is markedly cheaper than the dict/set recomputation.
    """
    engine = FastEngine(priorities=_ReadOnlyPriorities(priorities), initial_graph=graph)
    return engine.mis()


def reference_mis(graph: DynamicGraph, priorities: PriorityAssigner, engine: str) -> Set[Node]:
    """From-scratch greedy MIS via the selected backend.

    Single dispatch point for every reference-validation path (the
    distributed networks' ``verify(reference_engine=...)``).  Resolves
    ``engine`` through the backend registry
    (:func:`repro.core.engine_api.create_engine`), so any registered
    third-party backend is usable as a verification reference with no edits
    here; ``"template"`` short-circuits to the plain greedy pass (building a
    full template engine just to read its MIS would copy the graph twice).
    """
    if engine == "template":
        from repro.core.greedy import greedy_mis

        return greedy_mis(graph, priorities)
    from repro.core.engine_api import create_engine

    built = create_engine(
        engine, priorities=_ReadOnlyPriorities(priorities), initial_graph=graph
    )
    return built.mis()


class _ReadOnlyPriorities(PriorityAssigner):
    """Adapter that reads keys from an existing assigner without mutating it."""

    def __init__(self, base: PriorityAssigner) -> None:
        self._base = base

    def assign(self, node: Node) -> Tuple:
        return self._base.key(node)

    def forget(self, node: Node) -> None:  # pragma: no cover - never deleted
        pass

    def key(self, node: Node) -> Tuple:
        return self._base.key(node)

    def knows(self, node: Node) -> bool:
        return self._base.knows(node)
