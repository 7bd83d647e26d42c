"""Id-interned, flat-array network core for the distributed simulators.

The dict-based :class:`~repro.distributed.network.SynchronousMISNetwork`
keeps one :class:`~repro.distributed.node.NodeRuntime` per node -- sets of
neighbor labels, dicts of learned keys and states -- and its round loop
iterates *every* runtime every round.  That is faithful to the paper's model
but caps protocol experiments at a few thousand nodes: each change pays
``O(n)`` for the before/after output snapshots and ``O(n log n)`` per round
for the full sorted sweep, even when the repair wave touches three nodes.

The fast cores here run on the store of
:class:`~repro.core.fast_engine.FastEngine`, the
:class:`~repro.core.fast_engine.InternedGraph` base class (labels interned
to dense ids with free-list reuse, one ``array('q')`` adjacency row per
node), and add only the protocol's own id-indexed arrays:

* each node's *local knowledge* (the last state heard from each neighbor,
  and whether its random ID is known) lives in ``bytearray`` rows aligned
  index-for-index with the adjacency row -- dropping a neighbor swap-deletes
  all three rows in tandem, so the protocol rules are cache-friendly integer
  scans with no hashing on the hot path;
* per-round message buffers are lists of small integer tuples delivered
  through the adjacency rows, instead of per-node dict queues;
* the round loop only visits the *active* set -- nodes in transient states
  plus receivers a broadcast teaches something -- and a broadcast visits
  only those receivers: per node the core keeps the state its neighbors
  know and the set of neighbors that miss its key, so a hub's broadcast
  that teaches its neighbors nothing neither steps nor scans them;
* the adjustment count is computed from an epoch-stamped touched list,
  never from an ``O(n)`` state snapshot.

The three simulators here -- :class:`FastBufferedMISNetwork` (Algorithm 2),
:class:`FastDirectMISNetwork` (the direct template protocol) and
:class:`FastAsyncDirectMISNetwork` (the event-driven asynchronous execution)
-- are *observably identical* to their dict twins: same per-change metrics
(rounds, broadcasts, bits, state changes, adjustments and the adjusted-node
sets), same round-by-round traces under round logging, same outputs under
the same seed.  That claim is machine-checked by
:func:`repro.testing.protocol_differential.replay_protocol_differential` and
``tests/conformance/test_protocol_differential.py``; the speedup is measured
by ``benchmarks/bench_a5_distributed.py``.

Both cores share the :class:`~repro.distributed.network.NetworkSimulator`
surface (the change dispatch, ``apply_sequence``, ``metrics`` and
``verify``).  Select a core through the network registry:
``create_network(protocol, network="fast")``
(:mod:`repro.distributed.network_api`), or a spec's or the CLI's
``network`` option, which call it.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.fast_engine import InternedGraph
from repro.core.priorities import PriorityAssigner, RandomPriorityAssigner
from repro.core.state_api import EventSequence
from repro.distributed.message import MessageKind, id_message_bits, state_message_bits
from repro.distributed.metrics import ChangeMetrics, MetricsAggregator
from repro.distributed.async_network import AsyncDirectMISNetwork
from repro.distributed.network import (
    NetworkSimulator,
    ProtocolError,
    RoundRecord,
    SynchronousMISNetwork,
)
from repro.distributed.node import CODE_TO_STATE, NodeRuntime, NodeState
from repro.distributed.scheduler import DelayScheduler, RandomDelayScheduler
from repro.distributed.state import NetworkSnapshot, check_restorable
from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
)

Node = Hashable

# State codes (see repro.distributed.node.STATE_CODES): outputs first.
CODE_M = NodeState.M.code
CODE_M_BAR = NodeState.M_BAR.code
CODE_C = NodeState.C.code
CODE_R = NodeState.R.code
#: Knowledge rows use one extra code for "state never heard".
CODE_UNKNOWN = 4

_KIND_STATE = 0
_KIND_ID = 1
_KIND_VALUES = (MessageKind.STATE.value, MessageKind.ID_AND_STATE.value)
_STATE_VALUES = tuple(state.value for state in CODE_TO_STATE)

#: A broadcast in flight: ``(sender_id, kind_code, state_code, requests_introduction)``.
FastMessage = Tuple[int, int, int, bool]


class FastNetworkCore(InternedGraph, NetworkSimulator):
    """Interned storage shared by the synchronous and asynchronous fast simulators.

    On top of the :class:`~repro.core.fast_engine.InternedGraph` store
    (labels, priorities, adjacency, free-list reuse) it holds the protocol's
    id-indexed arrays -- state codes, knowledge rows aligned with the
    adjacency rows, the retiring and entered-C flags -- the delivery
    bookkeeping (each node's announced state and the neighbors missing its
    key) and the epoch-stamped adjustment accounting.  Subclasses add the
    round loop / event loop and the topology-change controller.
    """

    def __init__(
        self,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
        priorities: Optional[PriorityAssigner] = None,
    ) -> None:
        # Dealt keys are snapshotted label-keyed via _keys; restore_keys()
        # rebuilds the assigner from them.
        self._priorities = priorities if priorities is not None else RandomPriorityAssigner(seed)  # repro-lint: transient -- keys snapshotted via _keys
        self._aggregator = MetricsAggregator()
        if initial_graph is None:
            self._install((), ())
        else:
            self._install(initial_graph.nodes(), initial_graph.edges())

    # ------------------------------------------------------------------
    # Bootstrap and restore
    # ------------------------------------------------------------------
    def _install(
        self,
        nodes: Iterable[Node],
        edges: Iterable[Tuple[Node, Node]],
        states: Optional[Dict[Node, str]] = None,
    ) -> None:
        """Build a stable configuration: the store, then the protocol arrays.

        Labels intern in ``nodes`` order (:meth:`_build`, one pass).  Without
        ``states`` (bootstrap) the outputs are the greedy MIS in increasing
        ``pi``; with them (restore) each node takes its snapshot state.
        Either way the system is then stable: every node knows every
        neighbor's random ID and current output, the configuration each
        change's repair ends in.
        """
        self._build(nodes, edges)
        adj = self._adj
        count = len(adj)
        state = bytearray([CODE_M_BAR]) * count  # id -> protocol state code
        if states is None:
            # Greedy pass in increasing pi: any MIS neighbor was processed
            # earlier, unprocessed (hence later) neighbors still read as non-MIS.
            for nid in sorted(range(count), key=self._keys.__getitem__):
                if not any(state[m] == CODE_M for m in adj[nid]):
                    state[nid] = CODE_M
        else:
            for node, nid in self._id_of.items():
                state[nid] = NodeState(states[node]).code
        self._state = state
        # What each node's key-aware neighbors know of its state (equal to
        # _state between changes), and the neighbors that miss its key.
        self._announced = bytearray(state)  # repro-lint: transient -- delivery bookkeeping, equal to _state between changes
        self._unaware: Dict[int, Set[int]] = {}  # repro-lint: transient -- sender id -> neighbor ids missing its key; empty between changes
        # Knowledge rows aligned with the adjacency rows (stable: all known).
        self._nstate: List[bytearray] = [bytearray(map(state.__getitem__, row)) for row in adj]  # repro-lint: transient -- id -> known state per adjacency slot; restore derives it from the outputs
        self._nkey: List[bytearray] = [bytearray(b"\x01") * len(row) for row in adj]  # repro-lint: transient -- id -> 1 iff that neighbor's key is known; restore derives it from the outputs
        self._retiring = bytearray(count)  # id -> 1 while a graceful deletion relays
        self._entered_c = array("q", [-1]) * count  # repro-lint: transient -- per-repair scratch; snapshots are quiescent
        # Per-change adjustment accounting (epoch stamps avoid O(n) clears).
        self._snap_stamp: List[int] = [0] * count  # repro-lint: transient -- per-change accounting scratch
        self._snap_bit = bytearray(count)  # repro-lint: transient -- per-change accounting scratch
        self._epoch = 0  # repro-lint: transient -- per-change accounting scratch
        self._touched: List[int] = []  # repro-lint: transient -- per-change accounting scratch

    # ------------------------------------------------------------------
    # Interning / slot management: the protocol arrays on top of the store
    # ------------------------------------------------------------------
    def _new_slot(self) -> int:
        nid = super()._new_slot()
        self._nstate.append(bytearray())
        self._nkey.append(bytearray())
        self._state.append(CODE_M_BAR)
        self._announced.append(CODE_M_BAR)
        self._retiring.append(0)
        self._entered_c.append(-1)
        self._snap_stamp.append(0)
        self._snap_bit.append(0)
        return nid

    def _intern(self, label: Node) -> int:
        """Intern a node inserted mid-change.

        The new node is stamped into the touched set with a non-MIS "before"
        output, matching the dict controller's ``before.get(node, False)``.
        """
        nid = super()._intern(label)
        self._state[nid] = CODE_M_BAR
        self._announced[nid] = CODE_M_BAR
        self._retiring[nid] = 0
        self._entered_c[nid] = -1
        self._snap_stamp[nid] = self._epoch
        self._snap_bit[nid] = 0
        self._touched.append(nid)
        return nid

    def _release(self, nid: int) -> None:
        # A free slot keeps no rows, so _intern starts from empty ones.
        super()._release(nid)
        del self._nstate[nid][:]
        del self._nkey[nid][:]

    def _detach_node(self, nid: int, label: Node) -> None:
        """Remove a node from the topology, the arrays and its neighbors' views.

        The slot stays allocated (``_release`` returns it to the free list
        once the change that deleted the node has been fully accounted).
        """
        row = self._adj[nid]
        for m in list(row):
            self._remove_half_edge(m, nid)
        nkey = self._nkey[nid]
        if 0 in nkey:
            for position, m in enumerate(row):
                if not nkey[position]:
                    self._drop_unaware(m, nid)
        self._num_edges -= len(row)
        del row[:]
        del self._nstate[nid][:]
        del nkey[:]
        self._alive[nid] = 0
        del self._id_of[label]
        self._priorities.forget(label)

    # ------------------------------------------------------------------
    # Aligned adjacency + knowledge rows
    # ------------------------------------------------------------------
    def _add_half_edge(
        self, nid: int, other: int, known_state: int = CODE_UNKNOWN, known_key: int = 0
    ) -> None:
        self._adj[nid].append(other)
        self._nstate[nid].append(known_state)
        self._nkey[nid].append(known_key)
        if not known_key:
            self._unaware.setdefault(other, set()).add(nid)

    def _remove_half_edge(self, nid: int, other: int) -> None:
        row = self._adj[nid]
        position = row.index(other)
        last = len(row) - 1
        nstate = self._nstate[nid]
        nkey = self._nkey[nid]
        if not nkey[position]:
            self._drop_unaware(other, nid)
        if position != last:
            row[position] = row[last]
            nstate[position] = nstate[last]
            nkey[position] = nkey[last]
        del row[last]
        del nstate[last]
        del nkey[last]

    def _drop_unaware(self, sender: int, receiver: int) -> None:
        """Take ``receiver`` off the neighbors missing ``sender``'s key.

        Called when it learns the key or stops being a neighbor; a set
        leaves :attr:`_unaware` with its last receiver.
        """
        unaware = self._unaware[sender]
        unaware.discard(receiver)
        if not unaware:
            del self._unaware[sender]

    # ------------------------------------------------------------------
    # Local-knowledge views (the protocol rules)
    # ------------------------------------------------------------------
    def _no_earlier_neighbor_in_mis(self, nid: int) -> bool:
        """MIS-invariant test from local knowledge: no known earlier neighbor in M."""
        row = self._adj[nid]
        nstate = self._nstate[nid]
        nkey = self._nkey[nid]
        prio, keys = self._prio, self._keys
        p, key = prio[nid], keys[nid]
        for position, m in enumerate(row):
            if nstate[position] == CODE_M and nkey[position]:
                if prio[m] < p or (prio[m] == p and keys[m] < key):
                    return False
        return True

    def _no_later_neighbor_in_c(self, nid: int) -> bool:
        """Rule 3 guard: no known later neighbor is (to local knowledge) in C."""
        row = self._adj[nid]
        nstate = self._nstate[nid]
        nkey = self._nkey[nid]
        prio, keys = self._prio, self._keys
        p, key = prio[nid], keys[nid]
        for position, m in enumerate(row):
            if nstate[position] == CODE_C and nkey[position]:
                if prio[m] > p or (prio[m] == p and keys[m] > key):
                    return False
        return True

    def _all_earlier_neighbors_in_output_states(self, nid: int) -> bool:
        """Rule 4 guard: every known earlier neighbor is known to be in M or M_BAR."""
        row = self._adj[nid]
        nstate = self._nstate[nid]
        nkey = self._nkey[nid]
        prio, keys = self._prio, self._keys
        p, key = prio[nid], keys[nid]
        for position, m in enumerate(row):
            if nkey[position] and (prio[m] < p or (prio[m] == p and keys[m] < key)):
                if nstate[position] > CODE_M_BAR:
                    return False
        return True

    def _knows_all_neighbor_keys(self, nid: int) -> bool:
        return 0 not in self._nkey[nid]

    # ------------------------------------------------------------------
    # State changes and adjustment accounting
    # ------------------------------------------------------------------
    def _set_state(self, nid: int, code: int) -> None:
        if self._snap_stamp[nid] != self._epoch:
            self._snap_stamp[nid] = self._epoch
            self._snap_bit[nid] = 1 if self._state[nid] == CODE_M else 0
            self._touched.append(nid)
        self._state[nid] = code

    def _begin_change(self) -> None:
        self._epoch += 1
        self._touched = []

    def _finalize(self, metrics: ChangeMetrics) -> None:
        """Adjustment complexity from the touched set (no O(n) snapshots)."""
        state, alive, labels = self._state, self._alive, self._labels
        snap_bit = self._snap_bit
        adjusted: Set[Node] = set()
        for nid in self._touched:
            if alive[nid] and (1 if state[nid] == CODE_M else 0) != snap_bit[nid]:
                adjusted.add(labels[nid])
        metrics.adjusted_nodes = adjusted
        metrics.adjustments = len(adjusted)

    # ------------------------------------------------------------------
    # Read access (the store's read API is inherited)
    # ------------------------------------------------------------------
    def mis(self) -> Set[Node]:
        """The current maximal independent set (outputs of all nodes)."""
        state = self._state
        return {label for label, nid in self._id_of.items() if state[nid] == CODE_M}

    def states(self) -> Dict[Node, bool]:
        """Copy of the output map ``node -> in MIS?``."""
        state = self._state
        return {label: state[nid] == CODE_M for label, nid in self._id_of.items()}

    def node_runtime(self, label: Node) -> NodeRuntime:
        """Materialize a :class:`NodeRuntime` view of one node (tests/debugging).

        The returned record is a *copy* of the interned state -- mutating it
        does not affect the simulation (unlike the dict simulators, whose
        runtimes are live).
        """
        nid = self._require(label)
        labels = self._labels
        row = self._adj[nid]
        nstate = self._nstate[nid]
        nkey = self._nkey[nid]
        runtime = NodeRuntime(
            node_id=label,
            key=self._keys[nid],
            state=CODE_TO_STATE[self._state[nid]],
            neighbors={labels[m] for m in row},
        )
        for position, m in enumerate(row):
            runtime.learn_neighbor(
                labels[m],
                self._keys[m] if nkey[position] else None,
                CODE_TO_STATE[nstate[position]] if nstate[position] != CODE_UNKNOWN else None,
            )
        entered = self._entered_c[nid]
        runtime.entered_c_round = None if entered < 0 else int(entered)
        runtime.retiring = bool(self._retiring[nid])
        return runtime

    def verify(self, reference_engine: str = "fast") -> None:
        """The shared ``verify``, by default against the array-backed ``"fast"``
        engine: this core exists for networks where the dict recompute is slow."""
        super().verify(reference_engine)

    def _validation_graph(self) -> "FastNetworkCore":
        # The store answers has_node/has_edge itself: no view per change.
        return self

    def _mid_repair_nodes(self) -> List[Node]:
        state, retiring, labels = self._state, self._retiring, self._labels
        return [
            labels[nid]
            for nid in sorted(self._id_of.values())
            if state[nid] > CODE_M_BAR or retiring[nid]
        ]

    # ------------------------------------------------------------------
    # Snapshot / restore (the Checkpointable pair)
    # ------------------------------------------------------------------
    def snapshot(self) -> NetworkSnapshot:
        """Capture the simulator's state between changes.

        The snapshot is label-keyed -- dense ids, free lists and array
        layouts never leak into it -- so it restores into any registered
        network backend running the same protocol, including the dict/set
        simulators.
        """
        protocol = self._snapshot_protocol()
        state, keys = self._state, self._keys
        return NetworkSnapshot(
            protocol=protocol,
            nodes=tuple(self._id_of),
            edges=tuple(self.graph.edges()),
            states={label: _STATE_VALUES[state[nid]] for label, nid in self._id_of.items()},
            priority_keys={label: keys[nid] for label, nid in self._id_of.items()},
            scheduler_cursor=self._scheduler_cursor(),
            metrics=self._aggregator.totals.copy(),
            scheduler_state=self._scheduler_state(),
        )

    def restore(self, snapshot: NetworkSnapshot) -> None:
        """Reset the simulator to a previously captured :class:`NetworkSnapshot`.

        The interned storage is rebuilt from scratch through the bootstrap's
        build path, :meth:`_install`: labels intern in snapshot order,
        nodes take their snapshot states instead of the greedy pass, and the
        knowledge rows are derived from those states.  With the metric totals
        restored too, a resumed run is observably identical to an
        uninterrupted one.
        """
        check_restorable(snapshot, type(self).PROTOCOL)
        self._priorities.restore_keys(
            {node: tuple(key) for node, key in snapshot.priority_keys.items()}
        )
        self._install(snapshot.nodes, snapshot.edges, snapshot.states)
        self._aggregator = MetricsAggregator(snapshot.metrics.copy())

    def check_interning_invariants(self, expect_stable: bool = True) -> None:
        """Assert the interning / knowledge / adjacency bookkeeping is sound.

        The delivery bookkeeping is checked against the key bits:
        ``_unaware[s]`` holds exactly the neighbors whose key bit for ``s``
        is 0, and no empty set lingers in it.

        With ``expect_stable`` (between changes) additionally asserts the
        quiescence knowledge invariant: every node knows every neighbor's key
        and *current* state -- which is exactly what makes the protocols'
        local decisions agree with the global greedy MIS between repairs --
        so ``_unaware`` is empty and every node's announced state is its
        current one.
        """
        super().check_interning_invariants()
        capacity = len(self._labels)
        parallels = (
            self._nstate, self._nkey, self._state, self._announced, self._retiring, self._entered_c
        )
        for parallel in parallels + (self._snap_stamp, self._snap_bit):
            assert len(parallel) == capacity, "parallel arrays diverged in length"
        unaware: Dict[int, Set[int]] = {}
        for nid in sorted(self._id_of.values()):
            row = self._adj[nid]
            assert len(self._nstate[nid]) == len(row) == len(self._nkey[nid])
            for position, m in enumerate(row):
                if not self._nkey[nid][position]:
                    unaware.setdefault(m, set()).add(nid)
            if expect_stable:
                assert self._state[nid] <= CODE_M_BAR, "transient state at stability"
                assert self._announced[nid] == self._state[nid], "unannounced state at stability"
                for position, m in enumerate(row):
                    assert self._nkey[nid][position], "neighbor key unknown at stability"
                    assert self._nstate[nid][position] == self._state[m], (
                        "stale neighbor-state knowledge at stability"
                    )
        assert all(self._unaware.values()), "empty unaware set left behind"
        assert self._unaware == unaware, "unaware sets disagree with the key bits"


class FastSynchronousMISNetwork(FastNetworkCore):
    """Array-backed twin of :class:`~repro.distributed.network.SynchronousMISNetwork`.

    Implements the same synchronous round loop and topology-change controller
    (model-level notifications, discovery phases, metric accounting, round
    caps) over the interned arrays, visiting only the active node set each
    round.  The per-round protocol state machine is supplied by the two
    concrete subclasses, exactly mirroring the dict protocol classes.
    """

    # Shared with the dict twin by reference, so the safety caps can never
    # drift between the two backends.
    ROUND_CAP_FACTOR = SynchronousMISNetwork.ROUND_CAP_FACTOR
    ROUND_CAP_SLACK = SynchronousMISNetwork.ROUND_CAP_SLACK

    #: State codes whose messages make every receiver step, even one that
    #: already knows the sender's key and that state (see :meth:`_deliver`).
    ALWAYS_STEP_STATES: Tuple[int, ...] = ()

    def __init__(
        self,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
        priorities: Optional[PriorityAssigner] = None,
    ) -> None:
        self._round_logging = False  # repro-lint: transient -- observability toggle, not protocol state
        self._last_round_log: List[RoundRecord] = []  # repro-lint: transient -- observability scratch
        self._introduced: Set[int] = set()  # repro-lint: transient -- per-change discovery scratch, reset by _begin_change
        self._transient: Set[int] = set()  # repro-lint: transient -- ids in C or R mid-repair; empty between changes
        super().__init__(seed=seed, initial_graph=initial_graph, priorities=priorities)

    # ------------------------------------------------------------------
    # Observability (same surface as the dict simulator)
    # ------------------------------------------------------------------
    def enable_round_logging(self, enabled: bool = True) -> None:
        """Turn per-round observability records on or off (off by default)."""
        self._round_logging = enabled
        if not enabled:
            self._last_round_log = []

    def last_change_trace(self) -> List[RoundRecord]:
        """Round-by-round records of the most recent change (requires logging)."""
        return list(self._last_round_log)

    def restore(self, snapshot: NetworkSnapshot) -> None:
        super().restore(snapshot)
        self._transient = set()
        self._last_round_log = []

    def _begin_change(self) -> None:
        # The core's epoch bump, with this simulator's discovery reset folded
        # in: no super() call on the per-change path.
        self._epoch += 1
        self._touched = []
        self._introduced = set()

    # ------------------------------------------------------------------
    # Change handlers (mirror the dict controller step for step)
    # ------------------------------------------------------------------
    def _apply_edge_insertion(self, change: EdgeInsertion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_insertion")
        iu, iv = self._require(change.u), self._require(change.v)
        self._add_half_edge(iu, iv)
        self._add_half_edge(iv, iu)
        self._num_edges += 1
        # Section 4.1: both endpoints broadcast their random ID and state in
        # the first round so that each learns the other's order and output.
        seeds = [self._id_broadcast(iu), self._id_broadcast(iv)]
        self._introduced.update((iu, iv))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics)
        return metrics

    def _apply_edge_deletion(self, change: EdgeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_deletion")
        iu, iv = self._require(change.u), self._require(change.v)
        self._remove_half_edge(iu, iv)
        self._remove_half_edge(iv, iu)
        self._num_edges -= 1
        # Both endpoints are notified by the model; only the later one can be
        # in violation, and it can tell purely from local knowledge.
        later = iu if self._earlier(iv, iu) else iv
        seeds = self._maybe_seed_violation(later, metrics)
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics)
        return metrics

    def _apply_node_insertion(self, change: NodeInsertion) -> ChangeMetrics:
        metrics = ChangeMetrics("node_insertion")
        neighbor_ids = [self._id_of[other] for other in change.neighbors]
        nid = self._intern(change.node)
        for oid in neighbor_ids:
            self._add_half_edge(nid, oid)
            self._add_half_edge(oid, nid)
        self._num_edges += len(neighbor_ids)
        # Section 4.1: the new node broadcasts its ID and a provisional
        # non-MIS state; neighbors introduce themselves back (O(d(v*))
        # broadcasts), after which the new node can check the invariant.  An
        # isolated node has nobody to hear from and checks immediately.
        seeds = [self._id_broadcast(nid, requests_introduction=True)]
        self._introduced.add(nid)
        if not neighbor_ids:
            seeds.extend(self._maybe_seed_violation(nid, metrics))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics)
        return metrics

    def _apply_node_unmuting(self, change: NodeUnmuting) -> ChangeMetrics:
        metrics = ChangeMetrics("node_unmuting")
        neighbor_ids = [self._id_of[other] for other in change.neighbors]
        nid = self._intern(change.node)
        # The unmuted node overheard its neighbors all along: it already knows
        # their IDs and current states without any extra broadcast.
        for oid in neighbor_ids:
            self._add_half_edge(nid, oid, known_state=self._state[oid], known_key=1)
            self._add_half_edge(oid, nid)
        self._num_edges += len(neighbor_ids)
        # It announces itself once; nobody needs to introduce themselves back.
        seeds = [self._id_broadcast(nid, requests_introduction=False)]
        self._introduced.add(nid)
        seeds.extend(self._maybe_seed_violation(nid, metrics))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics)
        return metrics

    def _apply_node_deletion(self, change: NodeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("node_deletion")
        nid = self._require(change.node)
        was_in_mis = self._state[nid] == CODE_M
        if change.graceful and was_in_mis:
            # Graceful deletion: the node keeps relaying until the system is
            # stable.  It seeds the repair itself, with its final output
            # forced to non-MIS, and only then retires.
            self._retiring[nid] = 1
            seeds = self._seed_retirement(nid, metrics)
            self._run_until_stable(metrics, seeds)
            self._detach_node(nid, change.node)
        elif change.graceful:
            # A non-MIS node retires silently: no neighbor's invariant changes.
            self._detach_node(nid, change.node)
            self._run_until_stable(metrics, [])
        else:
            # Abrupt deletion: neighbors merely observe that the node is gone.
            former_neighbors = list(self._adj[nid])
            self._detach_node(nid, change.node)
            seeds: List[FastMessage] = []
            if was_in_mis:
                # Section 4.2: every former neighbor whose invariant broke
                # (it was non-MIS and its only earlier MIS neighbor was the
                # deleted node) switches to C in the first round.
                former_neighbors.sort(key=self._keys.__getitem__)
                for other in former_neighbors:
                    seeds.extend(self._maybe_seed_violation(other, metrics))
            self._run_until_stable(metrics, seeds)
        self._finalize(metrics)
        self._release(nid)
        return metrics

    def _detach_node(self, nid: int, label: Node) -> None:
        super()._detach_node(nid, label)
        self._transient.discard(nid)

    # ------------------------------------------------------------------
    # Protocol hooks (implemented by subclasses, at id level)
    # ------------------------------------------------------------------
    def _node_step(
        self, nid: int, inbox: Sequence[FastMessage], round_no: int
    ) -> Tuple[List[FastMessage], bool]:
        """Run one round of the protocol state machine at one node."""
        raise NotImplementedError

    def _seed_violation(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        """Reaction of a node that locally detects an MIS-invariant violation."""
        raise NotImplementedError

    def _seed_retirement(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        """Reaction of a gracefully deleted MIS node (it must hand off its role)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Simulator core
    # ------------------------------------------------------------------
    def _run_until_stable(
        self, metrics: ChangeMetrics, seed_messages: List[FastMessage]
    ) -> None:
        """Run synchronous rounds until the system is stable again.

        Identical round semantics to the dict simulator, but each round only
        visits the *active* set -- nodes in transient states plus receivers
        a broadcast teaches something -- instead of sweeping every runtime.
        A node outside that set provably does nothing in both protocol state
        machines, so the visit order (ascending ``pi`` within the active set)
        and every observable outcome coincide with the full sorted sweep.

        A message reaches only the receivers it teaches something
        (:meth:`_deliver`; every neighbor still counts as delivered): a
        receiver that already knows the sender's key and the state the
        message carries gets no inbox entry for it, neither a first one nor
        one appended to an inbox it holds from another message.  All
        messages are delivered before any node steps, and a knowledge row
        changes only in its node's own :meth:`_handle_inbox` or in a change
        handler, so absorbing such a message would rewrite exactly the key
        bit and state the receiver already holds.  Leaving it out is exact:

        * A receiver that holds an inbox anyway still steps, on the same
          knowledge.  A message matters beyond the knowledge row only as a
          newly learned key (never left out: a receiver missing the key gets
          every message) or as ``buffered``'s C trigger (never left out
          either, see below).
        * A receiver that gets no inbox takes no step.  ``direct``: between
          its own steps a node's output is the rule applied to its knowledge
          row (or, while it misses a neighbor's key, it does not evaluate at
          all).  Each change handler seeds every node whose rule can change
          -- the later endpoint, the former neighbors of an abruptly
          deleted MIS node, a new or unmuted node -- so a receiver whose row
          does not change would re-evaluate to its current state, neither
          flipping nor broadcasting.  Introductions answer only unknown
          keys.  ``buffered``: a node in M or M_BAR acts only on a C from an
          earlier neighbor or on a newly learned key, and nodes in C or R
          step anyway through the transient set.

        Rules 1-2 of ``buffered`` fire on every C from an earlier neighbor,
        known or not, so a C always reaches the sender's whole row
        (:attr:`FastBufferedMISNetwork.ALWAYS_STEP_STATES`).
        """
        self._last_round_log = []
        labels = self._labels
        pending = list(seed_messages)
        if pending:
            self._account_broadcasts(metrics, pending)
            metrics.rounds = max(metrics.rounds, 1)
            if self._round_logging:
                seed_record = RoundRecord(1)
                seed_record.broadcasts = [
                    (labels[sender], _KIND_VALUES[kind], _STATE_VALUES[state_code])
                    for sender, kind, state_code, _ in pending
                ]
                self._last_round_log.append(seed_record)
        last_active = metrics.rounds
        round_no = 1
        cap = self.ROUND_CAP_FACTOR * max(1, len(self._id_of)) + self.ROUND_CAP_SLACK
        sort_key = self._keys.__getitem__
        while True:
            round_no += 1
            if round_no > cap:
                raise ProtocolError(
                    f"protocol did not stabilize within {cap} rounds "
                    f"(change kind {metrics.change_kind})"
                )
            inboxes, delivered = self._deliver(pending)
            pending = []
            activity = False
            record = RoundRecord(round_no) if self._round_logging else None
            if record is not None:
                record.messages_delivered = delivered
            active = set(inboxes)
            active.update(self._transient)
            for nid in sorted(active, key=sort_key):
                outgoing, changed = self._node_step(nid, inboxes.get(nid, ()), round_no)
                if outgoing:
                    pending.extend(outgoing)
                    if record is not None:
                        record.broadcasts.extend(
                            (labels[sender], _KIND_VALUES[kind], _STATE_VALUES[state_code])
                            for sender, kind, state_code, _ in outgoing
                        )
                    activity = True
                if changed:
                    metrics.state_changes += 1
                    if record is not None:
                        record.state_changes += 1
                    activity = True
            if pending:
                self._account_broadcasts(metrics, pending)
            if activity:
                last_active = round_no
            if record is not None and (activity or record.messages_delivered):
                self._last_round_log.append(record)
            if not pending and not activity and not self._transient:
                break
        metrics.rounds = max(metrics.rounds, last_active)

    def _deliver(
        self, messages: List[FastMessage]
    ) -> Tuple[Dict[int, List[FastMessage]], int]:
        """Deliver each broadcast to the *current* neighbors it teaches something.

        Every neighbor that knows the sender's key knows its announced state
        (:attr:`_announced`), since every change of it reaches the whole
        row.  So a message carrying another state, or one in
        :attr:`ALWAYS_STEP_STATES`, goes to the sender's whole row and
        becomes the announced state; any other message goes only to the
        neighbors missing the sender's key (:attr:`_unaware`), and no other
        neighbor is visited.  Every neighbor counts in ``delivered`` all the
        same.  Each inbox keeps its messages in send order; a known message
        does not join an inbox its receiver holds from another one (see
        :meth:`_run_until_stable` for why both are exact).

        ``_state`` cannot stand in for ``_announced``: a node that flips in
        a step has changed ``_state`` before its broadcast is delivered,
        while its neighbors still know the old state.
        """
        inboxes: Dict[int, List[FastMessage]] = {}
        delivered = 0
        alive, adj = self._alive, self._adj
        announced, unaware = self._announced, self._unaware
        always_step = self.ALWAYS_STEP_STATES
        for message in messages:
            sender = message[0]
            if not alive[sender]:
                continue
            row = adj[sender]
            delivered += len(row)
            state_code = message[2]
            if state_code != announced[sender] or state_code in always_step:
                announced[sender] = state_code
                receivers = row
            else:
                receivers = unaware.get(sender, ())
            for receiver in receivers:
                inbox = inboxes.get(receiver)
                if inbox is None:
                    inboxes[receiver] = [message]
                else:
                    inbox.append(message)
        return inboxes, delivered

    def _account_broadcasts(self, metrics: ChangeMetrics, messages: List[FastMessage]) -> None:
        bound = max(2, len(self._id_of))
        id_bits = id_message_bits(bound)
        state_bits = state_message_bits()
        for message in messages:
            metrics.broadcasts += 1
            metrics.bits += id_bits if message[1] == _KIND_ID else state_bits

    # ------------------------------------------------------------------
    # Shared helpers for change handlers and protocols
    # ------------------------------------------------------------------
    def _id_broadcast(self, nid: int, requests_introduction: bool = True) -> FastMessage:
        return (nid, _KIND_ID, self._state[nid], requests_introduction)

    def _state_broadcast(self, nid: int) -> FastMessage:
        return (nid, _KIND_STATE, self._state[nid], False)

    def _maybe_seed_violation(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        """Check the MIS invariant from local knowledge; seed the repair if broken."""
        if self._state[nid] > CODE_M_BAR:
            return []
        should_be_in_mis = self._no_earlier_neighbor_in_mis(nid)
        if should_be_in_mis == (self._state[nid] == CODE_M):
            return []
        return self._seed_violation(nid, metrics)

    def _handle_inbox(
        self, nid: int, inbox: Sequence[FastMessage]
    ) -> Tuple[List[FastMessage], bool, bool]:
        """Shared inbox processing: update knowledge, handle introductions.

        Returns ``(introduction broadcasts, learned a previously unknown
        neighbor key, received C from a known earlier neighbor)``.  The C
        trigger is evaluated against the keys known *after* the whole inbox
        was absorbed, exactly like the dict protocol's two-pass handling.
        """
        outgoing: List[FastMessage] = []
        learned_new_key = False
        row = self._adj[nid]
        nstate = self._nstate[nid]
        nkey = self._nkey[nid]
        positions: List[Tuple[int, int, int]] = []  # (sender, position, state_code)
        for sender, kind, state_code, requests_introduction in inbox:
            try:
                position = row.index(sender)
            except ValueError:
                # Stale message from a node that is no longer a neighbor.
                continue
            key_was_known = nkey[position]
            if kind == _KIND_ID:
                nkey[position] = 1
            nstate[position] = state_code
            positions.append((sender, position, state_code))
            if kind == _KIND_ID and not key_was_known:
                learned_new_key = True
                self._drop_unaware(sender, nid)
                if requests_introduction and nid not in self._introduced:
                    outgoing.append(self._id_broadcast(nid))
                    self._introduced.add(nid)
        c_trigger = False
        prio, keys = self._prio, self._keys
        p, key = prio[nid], keys[nid]
        for sender, position, state_code in positions:
            if state_code != CODE_C or not nkey[position]:
                continue
            if prio[sender] < p or (prio[sender] == p and keys[sender] < key):
                c_trigger = True
                break
        return outgoing, learned_new_key, c_trigger

    def _enter_transient(self, nid: int, code: int, round_no: int) -> None:
        self._set_state(nid, code)
        if code == CODE_C:
            self._entered_c[nid] = round_no
        self._transient.add(nid)

    def _settle_output(self, nid: int, code: int) -> None:
        self._set_state(nid, code)
        self._transient.discard(nid)


class FastBufferedMISNetwork(FastSynchronousMISNetwork):
    """Array-backed Algorithm 2 (states M, M_BAR, C, R; the paper's protocol).

    Observably identical to
    :class:`~repro.distributed.protocol_mis.BufferedMISNetwork` -- same
    metrics, traces and outputs under the same seed -- at a per-change cost
    proportional to the repair wave instead of the network size.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_graph
    >>> network = FastBufferedMISNetwork(seed=3, initial_graph=erdos_renyi_graph(20, 0.2, seed=1))
    >>> network.verify()
    >>> from repro.workloads.changes import EdgeDeletion
    >>> edge = network.graph.edges()[0]
    >>> metrics = network.apply(EdgeDeletion(*edge))
    >>> metrics.broadcasts <= 3 * network.graph.num_nodes()
    True
    """

    PROTOCOL = "buffered"
    #: Rules 1-2 fire on every C from an earlier neighbor, not only on a new one.
    ALWAYS_STEP_STATES = (CODE_C,)

    # ------------------------------------------------------------------
    # Seeding hooks
    # ------------------------------------------------------------------
    def _seed_violation(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        self._enter_transient(nid, CODE_C, round_no=1)
        metrics.state_changes += 1
        return [self._state_broadcast(nid)]

    def _seed_retirement(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        # A gracefully deleted MIS node hands off its role by entering C; its
        # final output is forced to non-MIS by the ``retiring`` flag.
        self._enter_transient(nid, CODE_C, round_no=1)
        metrics.state_changes += 1
        return [self._state_broadcast(nid)]

    # ------------------------------------------------------------------
    # The per-round state machine (rules 1-4 of Algorithm 2)
    # ------------------------------------------------------------------
    def _node_step(
        self, nid: int, inbox: Sequence[FastMessage], round_no: int
    ) -> Tuple[List[FastMessage], bool]:
        outgoing, learned_new_key, c_trigger = self._handle_inbox(nid, inbox)
        changed = False
        state_code = self._state[nid]

        if state_code <= CODE_M_BAR and not self._retiring[nid]:
            if c_trigger and (state_code == CODE_M or self._no_earlier_neighbor_in_mis(nid)):
                # Rules 1 and 2: join the repair wave (a non-MIS node only if
                # no other earlier neighbor is still in M).
                self._enter_transient(nid, CODE_C, round_no)
                changed = True
                outgoing.append(self._state_broadcast(nid))
            elif learned_new_key and self._knows_all_neighbor_keys(nid):
                # A new neighbor was discovered (edge or node insertion): the
                # node re-checks the MIS invariant from local knowledge and
                # starts the repair if it broke (this is v*'s detection step).
                if self._no_earlier_neighbor_in_mis(nid) != (state_code == CODE_M):
                    self._enter_transient(nid, CODE_C, round_no)
                    changed = True
                    outgoing.append(self._state_broadcast(nid))
        elif state_code == CODE_C:
            entered = self._entered_c[nid]
            if entered >= 0 and round_no - entered >= 2 and self._no_later_neighbor_in_c(nid):
                self._enter_transient(nid, CODE_R, round_no)
                changed = True
                outgoing.append(self._state_broadcast(nid))
        elif state_code == CODE_R:
            if self._all_earlier_neighbors_in_output_states(nid):
                if self._retiring[nid]:
                    self._settle_output(nid, CODE_M_BAR)
                elif self._no_earlier_neighbor_in_mis(nid):
                    self._settle_output(nid, CODE_M)
                else:
                    self._settle_output(nid, CODE_M_BAR)
                changed = True
                outgoing.append(self._state_broadcast(nid))
        return outgoing, changed


class FastDirectMISNetwork(FastSynchronousMISNetwork):
    """Array-backed direct template protocol (Corollary 6; states M / M_BAR).

    Observably identical to
    :class:`~repro.distributed.protocol_direct.DirectMISNetwork`.
    """

    PROTOCOL = "direct"

    # ------------------------------------------------------------------
    # Seeding hooks
    # ------------------------------------------------------------------
    def _seed_violation(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        code = CODE_M if self._no_earlier_neighbor_in_mis(nid) else CODE_M_BAR
        self._settle_output(nid, code)
        metrics.state_changes += 1
        return [self._state_broadcast(nid)]

    def _seed_retirement(self, nid: int, metrics: ChangeMetrics) -> List[FastMessage]:
        # A gracefully deleted MIS node simply announces that it leaves the
        # MIS; its neighbors react as if it had been deleted already.
        self._settle_output(nid, CODE_M_BAR)
        metrics.state_changes += 1
        return [self._state_broadcast(nid)]

    # ------------------------------------------------------------------
    # The per-round behavior
    # ------------------------------------------------------------------
    def _node_step(
        self, nid: int, inbox: Sequence[FastMessage], round_no: int
    ) -> Tuple[List[FastMessage], bool]:
        outgoing, learned_new_key, _ = self._handle_inbox(nid, inbox)
        changed = False
        if (inbox or learned_new_key) and self._knows_all_neighbor_keys(nid):
            if self._retiring[nid]:
                desired = CODE_M_BAR
            elif self._no_earlier_neighbor_in_mis(nid):
                desired = CODE_M
            else:
                desired = CODE_M_BAR
            if desired != self._state[nid]:
                self._settle_output(nid, desired)
                changed = True
                outgoing.append(self._state_broadcast(nid))
        return outgoing, changed


class FastAsyncDirectMISNetwork(FastNetworkCore):
    """Array-backed twin of :class:`~repro.distributed.async_network.AsyncDirectMISNetwork`.

    Event-driven execution of the direct template protocol under adversarial
    message delays, over the interned arrays.  In the asynchronous model the
    topology-change notifications include the new neighbors' IDs, so only the
    per-directed-edge *state* knowledge lags behind broadcasts; keys are
    always known.

    For differential comparison against the dict twin, use a
    *channel-deterministic* scheduler (``FixedDelayScheduler`` or
    ``AdversarialDelayScheduler``): the default ``RandomDelayScheduler``
    draws delays from one private stream whose assignment to receivers
    depends on neighbor iteration order, which an interned core cannot (and
    should not) reproduce byte-for-byte.  Snapshots carry the stream
    position (:attr:`~repro.distributed.state.NetworkSnapshot.scheduler_state`),
    but a same-*backend* resume after churn is not exact under it either:
    :meth:`restore` builds each adjacency row in snapshot edge order, while
    a live row's order follows its history of appends and swap-deletes,
    and the scheduler draws its stream in row order.
    """

    PROTOCOL = "async-direct"
    # Shared with the dict twin by reference (same cap, can never drift).
    MAX_EVENTS_FACTOR = AsyncDirectMISNetwork.MAX_EVENTS_FACTOR

    def __init__(
        self,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
        scheduler: Optional[DelayScheduler] = None,
        priorities: Optional[PriorityAssigner] = None,
    ) -> None:
        if scheduler is None:
            # The simulator's own built-in default delay policy; spec-driven
            # runs pass scheduler= through create_network / create_scheduler.
            scheduler = RandomDelayScheduler(seed + 1)  # repro-lint: registry-discipline -- internal default
        self._scheduler = scheduler
        self._sequence = EventSequence()
        super().__init__(seed=seed, initial_graph=initial_graph, priorities=priorities)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def _scheduler_cursor(self) -> int:
        return self._sequence.value

    def _scheduler_state(self) -> Optional[Tuple]:
        return self._scheduler.getstate()

    def restore(self, snapshot: NetworkSnapshot) -> None:
        super().restore(snapshot)
        self._sequence = EventSequence(snapshot.scheduler_cursor)
        self._scheduler.setstate(snapshot.scheduler_state)

    # ------------------------------------------------------------------
    # Change handlers (model-level notifications include IDs)
    # ------------------------------------------------------------------
    def _connect(self, iu: int, iv: int) -> None:
        """Model-level notification of a new adjacency, including IDs and states."""
        self._add_half_edge(iu, iv, known_state=self._state[iv], known_key=1)
        self._add_half_edge(iv, iu, known_state=self._state[iu], known_key=1)

    def _apply_edge_insertion(self, change: EdgeInsertion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_insertion")
        iu, iv = self._require(change.u), self._require(change.v)
        self._connect(iu, iv)
        self._num_edges += 1
        later = iu if self._earlier(iv, iu) else iv
        seeds = self._evaluate_and_flip(later, metrics)
        self._run_events(seeds, metrics)
        self._finalize(metrics)
        return metrics

    def _apply_edge_deletion(self, change: EdgeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_deletion")
        iu, iv = self._require(change.u), self._require(change.v)
        later = iu if self._earlier(iv, iu) else iv
        self._remove_half_edge(iu, iv)
        self._remove_half_edge(iv, iu)
        self._num_edges -= 1
        seeds = self._evaluate_and_flip(later, metrics)
        self._run_events(seeds, metrics)
        self._finalize(metrics)
        return metrics

    def _apply_node_insertion(self, change) -> ChangeMetrics:
        metrics = ChangeMetrics(change.kind)
        neighbor_ids = [self._id_of[other] for other in change.neighbors]
        nid = self._intern(change.node)
        for oid in neighbor_ids:
            self._connect(nid, oid)
        self._num_edges += len(neighbor_ids)
        seeds = self._evaluate_and_flip(nid, metrics)
        self._run_events(seeds, metrics)
        self._finalize(metrics)
        return metrics

    #: Unmuting is an insertion here: the model already tells both sides
    #: each other's IDs and states.
    _apply_node_unmuting = _apply_node_insertion

    def _apply_node_deletion(self, change: NodeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("node_deletion")
        nid = self._require(change.node)
        was_in_mis = self._state[nid] == CODE_M
        former_neighbors = list(self._adj[nid])
        self._detach_node(nid, change.node)
        seeds: List[Tuple[int, int, int]] = []
        if was_in_mis:
            former_neighbors.sort(key=self._keys.__getitem__)
            for other in former_neighbors:
                seeds.extend(self._evaluate_and_flip(other, metrics))
        self._run_events(seeds, metrics)
        self._finalize(metrics)
        self._release(nid)
        return metrics

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _run_events(
        self, seed_broadcasts: List[Tuple[int, int, int]], metrics: ChangeMetrics
    ) -> None:
        """Run the discrete-event loop until no message is in flight.

        ``seed_broadcasts`` is a list of ``(sender_id, state_code, depth)``
        broadcast requests produced by the change handler.
        """
        queue: List[Tuple[float, int, int, int, int, int]] = []
        channel_clock: Dict[Tuple[int, int], float] = {}
        max_depth = 0
        processed = 0
        limit = self.MAX_EVENTS_FACTOR * max(1, len(self._id_of)) ** 2 + 100
        alive, adj, labels = self._alive, self._adj, self._labels
        announced = self._announced
        scheduler, sequence = self._scheduler, self._sequence

        def broadcast(sender: int, state_code: int, depth: int, now: float) -> None:
            nonlocal max_depth
            if not alive[sender]:
                return
            # Only the synchronous cores deliver by it; kept here so the
            # core's between-changes invariants hold on every fast core.
            announced[sender] = state_code
            metrics.broadcasts += 1
            metrics.bits += 2
            max_depth = max(max_depth, depth)
            sender_label = labels[sender]
            for receiver in adj[sender]:
                delay = scheduler.delay(sender_label, labels[receiver], next(sequence))
                deliver_at = now + max(delay, 1e-9)
                channel = (sender, receiver)
                deliver_at = max(deliver_at, channel_clock.get(channel, 0.0) + 1e-9)
                channel_clock[channel] = deliver_at
                heapq.heappush(
                    queue, (deliver_at, next(sequence), sender, receiver, state_code, depth)
                )

        for sender, state_code, depth in seed_broadcasts:
            broadcast(sender, state_code, depth, now=0.0)

        while queue:
            processed += 1
            if processed > limit:
                raise RuntimeError("asynchronous execution did not quiesce")
            deliver_at, _, sender, receiver, state_code, depth = heapq.heappop(queue)
            if not alive[receiver]:
                continue
            try:
                position = adj[receiver].index(sender)
            except ValueError:
                continue
            self._nstate[receiver][position] = state_code
            flips = self._evaluate_and_flip(receiver, metrics, depth=depth + 1)
            for flip_sender, flip_state, flip_depth in flips:
                broadcast(flip_sender, flip_state, flip_depth, now=deliver_at)
        metrics.async_causal_depth = max_depth
        metrics.rounds = max_depth

    def _evaluate_and_flip(
        self, nid: int, metrics: ChangeMetrics, depth: int = 1
    ) -> List[Tuple[int, int, int]]:
        """Re-evaluate the MIS invariant at a node; flip and request a broadcast if needed."""
        desired = CODE_M if self._no_earlier_neighbor_in_mis(nid) else CODE_M_BAR
        if desired == self._state[nid]:
            return []
        self._set_state(nid, desired)
        metrics.state_changes += 1
        return [(nid, desired, depth)]
