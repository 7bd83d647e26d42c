"""The simulator surface, the dict/set state core and the synchronous simulator.

Every distributed simulator -- three protocols on two state cores -- shares
one surface, :class:`NetworkSimulator`: the topology-change entry point
(validate, dispatch to the five change handlers, aggregate the metrics),
``apply_sequence``, ``metrics`` and ``verify``.  The paper runs every change
through one model-level controller (Sections 2, 4.1 and 4.2); its protocols
differ only in the per-node rules, and so do the simulators.

:class:`DictNetworkCore` is the paper-shaped state core: one
:class:`~repro.distributed.node.NodeRuntime` per node holding the node's
*local* knowledge, the ground-truth topology and the random order ``pi``
(realized by random IDs handed out on node arrival), with the read API,
bootstrap, snapshot and restore.  The id-interned twin is
:class:`~repro.distributed.fast_network.FastNetworkCore`.

:class:`SynchronousMISNetwork` adds, on the dict core,

* the synchronous round loop -- a message broadcast in round ``t`` is
  received by all current neighbors of the sender and processed in round
  ``t + 1``; a round with no message in flight, no state change and no node
  in a transient state is stable,
* the topology-change handlers implementing the model-level notifications
  and discovery phases (who gets told what when an edge/node appears or
  disappears, and who must broadcast its random ID), and
* the per-change metric collection (adjustments, rounds, broadcasts, bits).

The two concrete protocols plug into the three hooks
:meth:`SynchronousMISNetwork._node_step` (the per-round state machine),
:meth:`SynchronousMISNetwork._seed_violation` (what ``v*`` does when it
detects that the MIS invariant broke) and
:meth:`SynchronousMISNetwork._seed_retirement` (what a gracefully deleted MIS
node does).  Select a protocol and a core through
:func:`repro.distributed.network_api.create_network`.
"""

from __future__ import annotations

import copy
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.fast_engine import reference_mis
from repro.core.greedy import greedy_mis_states
from repro.core.priorities import PriorityAssigner, RandomPriorityAssigner
from repro.distributed.message import Message, MessageKind, MessageKind as _Kind
from repro.distributed.metrics import ChangeMetrics, MetricsAggregator
from repro.distributed.node import NodeRuntime, NodeState
from repro.distributed.state import NetworkSnapshot, NetworkStateError, check_restorable
from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
    TopologyChange,
    validate_change,
)

Node = Hashable


class ProtocolError(RuntimeError):
    """Raised when a protocol run does not stabilize within the safety cap."""


class RoundRecord:
    """Observability record of one synchronous round of one change's repair.

    Produced only when round logging is enabled on the network
    (:meth:`SynchronousMISNetwork.enable_round_logging`); used for debugging
    protocol behaviour and by tests that assert round-by-round properties.
    """

    __slots__ = ("round_number", "messages_delivered", "broadcasts", "state_changes")

    def __init__(self, round_number: int) -> None:
        self.round_number = round_number
        self.messages_delivered = 0
        self.broadcasts: List[Tuple[Node, str, str]] = []
        self.state_changes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoundRecord(round={self.round_number}, delivered={self.messages_delivered}, "
            f"broadcasts={len(self.broadcasts)}, state_changes={self.state_changes})"
        )


class NetworkSimulator:
    """The surface every distributed simulator shares, whatever its core.

    Each state core (:class:`DictNetworkCore`,
    :class:`~repro.distributed.fast_network.FastNetworkCore`) provides the
    read API (``graph``, ``priorities``, ``mis``, ``states``,
    ``node_runtime``), ``snapshot`` / ``restore`` and the
    :meth:`_mid_repair_nodes` hook that ``verify`` and the snapshot guard
    (:meth:`_snapshot_protocol`) share; each execution model (synchronous
    rounds, asynchronous events) one ``_apply_<kind>`` handler per change
    kind; and a concrete protocol sets :attr:`PROTOCOL`.
    """

    #: protocol name in the network-backend registry (set by concrete protocols).
    PROTOCOL: Optional[str] = None

    _aggregator: MetricsAggregator

    @property
    def metrics(self) -> MetricsAggregator:
        """Per-change metrics accumulated so far."""
        return self._aggregator

    def apply(self, change: TopologyChange) -> ChangeMetrics:
        """Apply one topology change, run the protocol to quiescence, return metrics."""
        validate_change(self._validation_graph(), change)
        self._begin_change()
        if isinstance(change, EdgeInsertion):
            metrics = self._apply_edge_insertion(change)
        elif isinstance(change, EdgeDeletion):
            metrics = self._apply_edge_deletion(change)
        elif isinstance(change, NodeInsertion):
            metrics = self._apply_node_insertion(change)
        elif isinstance(change, NodeUnmuting):
            metrics = self._apply_node_unmuting(change)
        elif isinstance(change, NodeDeletion):
            metrics = self._apply_node_deletion(change)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown change type: {change!r}")
        self._aggregator.add(metrics)
        return metrics

    def apply_sequence(self, changes: Iterable[TopologyChange]) -> List[ChangeMetrics]:
        """Apply a whole change sequence, returning one metrics record per change."""
        return [self.apply(change) for change in changes]

    def verify(self, reference_engine: str = "template") -> None:
        """Assert that the outputs equal the random-greedy MIS of the graph.

        This is a stronger check than "the output is some MIS": it verifies
        that the protocol faithfully simulates the sequential random greedy
        algorithm under the same random IDs, which is what gives history
        independence.  It also asserts that no node is left mid-repair.

        Parameters
        ----------
        reference_engine:
            Which reference computes the expected MIS: ``"template"`` uses
            the dict-based :func:`~repro.core.greedy.greedy_mis`, ``"fast"``
            the array-backed :func:`~repro.core.fast_engine.fast_greedy_mis`
            (same output, much cheaper on large networks); any registered
            engine backend name is accepted.
        """
        expected = reference_mis(self.graph, self.priorities, reference_engine)
        actual = self.mis()
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            raise AssertionError(
                f"protocol output diverged from random greedy: "
                f"missing={sorted(missing, key=repr)[:5]}, "
                f"extra={sorted(extra, key=repr)[:5]}"
            )
        mid_repair = self._mid_repair_nodes()
        if mid_repair:
            raise AssertionError(f"nodes left mid-repair: {mid_repair[:5]}")

    def _validation_graph(self):
        """What :meth:`apply` checks a change against (``has_node``/``has_edge``)."""
        return self.graph

    def _begin_change(self) -> None:
        """Reset per-change scratch before a change's handler runs."""

    def _mid_repair_nodes(self) -> List[Node]:
        """Nodes in a transient protocol state or retiring (none between changes)."""
        raise NotImplementedError

    def _snapshot_protocol(self) -> str:
        """The protocol a snapshot records; only a concrete one, between changes."""
        protocol = type(self).PROTOCOL
        if protocol is None:
            raise NetworkStateError(
                "this simulator class declares no PROTOCOL name; only concrete "
                "registered protocols can snapshot"
            )
        mid_repair = self._mid_repair_nodes()
        if mid_repair:
            raise NetworkStateError(
                f"nodes {mid_repair[:5]} are mid-repair; snapshots are only valid "
                "between changes"
            )
        return protocol

    def _scheduler_cursor(self) -> int:
        """Event-sequence position recorded in snapshots (0 for synchronous simulators)."""
        return 0

    def _scheduler_state(self) -> Optional[Tuple]:
        """Resumable scheduler state recorded in snapshots (``None`` if stateless)."""
        return None


class DictNetworkCore(NetworkSimulator):
    """Dict/set state core of the synchronous and asynchronous simulators.

    Parameters
    ----------
    seed:
        Seed of the random IDs (ignored when ``priorities`` is given).
    initial_graph:
        Optional starting topology.  As in the paper, the system starts from a
        stable configuration: the initial MIS is installed directly (it could
        equivalently be computed by any static algorithm) and every node knows
        its neighbors' IDs and states.
    priorities:
        Custom priority assigner (e.g. the deterministic one for baselines).
    """

    def __init__(
        self,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
        priorities: Optional[PriorityAssigner] = None,
    ) -> None:
        self._priorities = priorities if priorities is not None else RandomPriorityAssigner(seed)
        self._graph = DynamicGraph()
        self._runtimes: Dict[Node, NodeRuntime] = {}
        self._aggregator = MetricsAggregator()
        if initial_graph is not None:
            self._bootstrap(initial_graph)

    # ------------------------------------------------------------------
    # Bootstrap and restore
    # ------------------------------------------------------------------
    def _bootstrap(self, graph: DynamicGraph) -> None:
        # A copy of the caller's graph keeps its neighbor iteration order,
        # which the asynchronous random scheduler's delay stream follows.
        graph = graph.copy()
        keys = {node: self._priorities.assign(node) for node in graph.nodes()}
        self._install(graph, keys, greedy_mis_states(graph, self._priorities))

    def _install(
        self, graph: DynamicGraph, keys: Mapping[Node, Tuple], outputs: Mapping[Node, bool]
    ) -> None:
        """Install a stable configuration of ``graph``: the one build path.

        Node ``v`` gets key ``keys[v]``, state ``M`` iff ``outputs[v]``, and
        knows every neighbor's key and current state -- the configuration
        bootstrap installs from the greedy MIS and restore from a snapshot's
        states, and the one each change's repair ends in.
        """
        runtimes = {
            node: NodeRuntime(
                node_id=node,
                key=keys[node],
                state=NodeState.M if outputs[node] else NodeState.M_BAR,
                neighbors=set(graph.neighbors(node)),
            )
            for node in graph.nodes()
        }
        for node in graph.nodes():
            runtime = runtimes[node]
            for other in runtime.neighbors:
                runtime.learn_neighbor(other, runtimes[other].key, runtimes[other].state)
        self._graph = graph
        self._runtimes = runtimes

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The ground-truth topology (do not mutate directly)."""
        return self._graph

    @property
    def priorities(self) -> PriorityAssigner:
        """The order ``pi``."""
        return self._priorities

    def mis(self) -> Set[Node]:
        """The current maximal independent set (outputs of all nodes)."""
        return {node for node, runtime in self._runtimes.items() if runtime.in_mis()}

    def states(self) -> Dict[Node, bool]:
        """Copy of the output map ``node -> in MIS?``."""
        return {node: runtime.in_mis() for node, runtime in self._runtimes.items()}

    def node_runtime(self, node: Node) -> NodeRuntime:
        """The live runtime record of ``node`` (primarily for tests)."""
        return self._runtimes[node]

    def _mid_repair_nodes(self) -> List[Node]:
        return [
            node
            for node, runtime in self._runtimes.items()
            if not runtime.state.is_output or runtime.retiring
        ]

    # ------------------------------------------------------------------
    # Snapshot / restore (the Checkpointable pair)
    # ------------------------------------------------------------------
    def snapshot(self) -> NetworkSnapshot:
        """Capture the simulator's state between changes.

        The snapshot is label-keyed (see
        :class:`~repro.distributed.state.NetworkSnapshot`), so it restores
        into *any* registered network backend running the same protocol --
        including the id-interned fast core.  The asynchronous simulator's
        event-sequence cursor and scheduler state ride along, so a resumed
        run draws the exact same remaining delays.
        """
        protocol = self._snapshot_protocol()
        runtimes = self._runtimes
        return NetworkSnapshot(
            protocol=protocol,
            nodes=tuple(self._graph.nodes()),
            edges=tuple(self._graph.edges()),
            states={node: runtime.state.value for node, runtime in runtimes.items()},
            priority_keys={node: tuple(self._priorities.key(node)) for node in runtimes},
            scheduler_cursor=self._scheduler_cursor(),
            metrics=self._aggregator.totals.copy(),
            scheduler_state=copy.deepcopy(self._scheduler_state()),
        )

    def restore(self, snapshot: NetworkSnapshot) -> None:
        """Reset the simulator to a previously captured :class:`NetworkSnapshot`.

        After ``restore(snap)`` the topology, node states, priority keys and
        accumulated metrics equal those at ``snapshot()`` time, and every
        node knows each neighbor's key and current state, as at bootstrap;
        applying the identical remaining workload then reproduces an
        uninterrupted run change for change.
        """
        check_restorable(snapshot, type(self).PROTOCOL)
        keys = {node: tuple(key) for node, key in snapshot.priority_keys.items()}
        self._priorities.restore_keys(keys)
        outputs = {node: value == NodeState.M.value for node, value in snapshot.states.items()}
        self._install(DynamicGraph(nodes=snapshot.nodes, edges=snapshot.edges), keys, outputs)
        self._aggregator = MetricsAggregator(snapshot.metrics.copy())

    # ------------------------------------------------------------------
    # Adjustment accounting
    # ------------------------------------------------------------------
    def _finalize(
        self, metrics: ChangeMetrics, before: Dict[Node, bool], removed: Optional[Node] = None
    ) -> None:
        """Compute the adjustment complexity of the change just processed."""
        adjusted = {node for node, now in self.states().items() if before.get(node, False) != now}
        if removed is not None:
            adjusted.discard(removed)
        metrics.adjusted_nodes = adjusted
        metrics.adjustments = len(adjusted)


class SynchronousMISNetwork(DictNetworkCore):
    """Base class: synchronous round loop and change handlers on the dict core.

    Takes the :class:`DictNetworkCore` parameters; the concrete protocols
    are :class:`~repro.distributed.protocol_mis.BufferedMISNetwork` and
    :class:`~repro.distributed.protocol_direct.DirectMISNetwork`.
    """

    #: multiplicative safety cap on the number of rounds per change.
    ROUND_CAP_FACTOR = 6
    #: additive safety cap on the number of rounds per change.
    ROUND_CAP_SLACK = 30

    def __init__(
        self,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
        priorities: Optional[PriorityAssigner] = None,
    ) -> None:
        self._introduced: Set[Node] = set()  # repro-lint: transient -- per-change discovery scratch, reset by _begin_change
        self._round_logging = False  # repro-lint: transient -- observability toggle, not protocol state
        self._last_round_log: List[RoundRecord] = []  # repro-lint: transient -- observability scratch
        super().__init__(seed, initial_graph, priorities)

    def _begin_change(self) -> None:
        self._introduced = set()

    def restore(self, snapshot: NetworkSnapshot) -> None:
        super().restore(snapshot)
        self._last_round_log = []

    def enable_round_logging(self, enabled: bool = True) -> None:
        """Turn per-round observability records on or off (off by default)."""
        self._round_logging = enabled
        if not enabled:
            self._last_round_log = []

    def last_change_trace(self) -> List[RoundRecord]:
        """Round-by-round records of the most recent change (requires logging)."""
        return list(self._last_round_log)

    # ------------------------------------------------------------------
    # Change handlers
    # ------------------------------------------------------------------
    def _apply_edge_insertion(self, change: EdgeInsertion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_insertion")
        before = self.states()
        u, v = change.u, change.v
        self._graph.add_edge(u, v)
        self._runtimes[u].add_neighbor(v)
        self._runtimes[v].add_neighbor(u)
        # Section 4.1: in the first round both endpoints broadcast their random
        # ID and state so that each learns the other's order and output.
        seeds = [
            self._id_broadcast(u, round_sent=1),
            self._id_broadcast(v, round_sent=1),
        ]
        self._introduced.update((u, v))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics, before)
        return metrics

    def _apply_edge_deletion(self, change: EdgeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_deletion")
        before = self.states()
        u, v = change.u, change.v
        self._graph.remove_edge(u, v)
        self._runtimes[u].drop_neighbor(v)
        self._runtimes[v].drop_neighbor(u)
        # Both endpoints are notified by the model; only the later one can be
        # in violation, and it can tell purely from local knowledge.
        later = u if self._priorities.earlier(v, u) else v
        seeds: List[Message] = []
        seeds.extend(self._maybe_seed_violation(self._runtimes[later], metrics))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics, before)
        return metrics

    def _apply_node_insertion(self, change: NodeInsertion) -> ChangeMetrics:
        metrics = ChangeMetrics("node_insertion")
        before = self.states()
        node = change.node
        self._graph.add_node_with_edges(node, change.neighbors)
        self._priorities.assign(node)
        runtime = NodeRuntime(
            node_id=node,
            key=self._priorities.key(node),
            state=NodeState.M_BAR,
            neighbors=set(change.neighbors),
        )
        self._runtimes[node] = runtime
        for other in change.neighbors:
            self._runtimes[other].add_neighbor(node)
        # Section 4.1: the new node broadcasts its ID and a provisional
        # non-MIS state; neighbors introduce themselves back (O(d(v*))
        # broadcasts), after which the new node can check the invariant.  An
        # isolated node has nobody to hear from and checks immediately.
        seeds = [self._id_broadcast(node, round_sent=1, requests_introduction=True)]
        self._introduced.add(node)
        if not change.neighbors:
            seeds.extend(self._maybe_seed_violation(runtime, metrics))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics, before)
        return metrics

    def _apply_node_unmuting(self, change: NodeUnmuting) -> ChangeMetrics:
        metrics = ChangeMetrics("node_unmuting")
        before = self.states()
        node = change.node
        self._graph.add_node_with_edges(node, change.neighbors)
        self._priorities.assign(node)
        runtime = NodeRuntime(
            node_id=node,
            key=self._priorities.key(node),
            state=NodeState.M_BAR,
            neighbors=set(change.neighbors),
        )
        self._runtimes[node] = runtime
        # The unmuted node overheard its neighbors all along: it already knows
        # their IDs and current states without any extra broadcast.
        for other in change.neighbors:
            self._runtimes[other].add_neighbor(node)
            runtime.learn_neighbor(other, self._runtimes[other].key, self._runtimes[other].state)
        # It announces itself once; nobody needs to introduce themselves back.
        seeds = [self._id_broadcast(node, round_sent=1, requests_introduction=False)]
        self._introduced.add(node)
        seeds.extend(self._maybe_seed_violation(runtime, metrics))
        self._run_until_stable(metrics, seeds)
        self._finalize(metrics, before)
        return metrics

    def _apply_node_deletion(self, change: NodeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("node_deletion")
        before = self.states()
        node = change.node
        runtime = self._runtimes[node]
        was_in_mis = runtime.in_mis()
        if change.graceful and was_in_mis:
            # Graceful deletion: the node keeps relaying until the system is
            # stable.  It seeds the repair itself, with its final output
            # forced to non-MIS, and only then retires.
            runtime.retiring = True
            seeds = self._seed_retirement(runtime, metrics)
            self._run_until_stable(metrics, seeds)
            self._detach_node(node)
        elif change.graceful:
            # A non-MIS node retires silently: no neighbor's invariant changes.
            self._detach_node(node)
            self._run_until_stable(metrics, [])
        else:
            # Abrupt deletion: neighbors merely observe that the node is gone.
            former_neighbors = set(self._graph.neighbors(node))
            self._detach_node(node)
            seeds: List[Message] = []
            if was_in_mis:
                # Section 4.2: every former neighbor whose invariant broke
                # (it was non-MIS and its only earlier MIS neighbor was the
                # deleted node) switches to C in the first round.
                for other in sorted(former_neighbors, key=self._priorities.key):
                    seeds.extend(self._maybe_seed_violation(self._runtimes[other], metrics))
            self._run_until_stable(metrics, seeds)
        self._finalize(metrics, before, removed=node)
        return metrics

    # ------------------------------------------------------------------
    # Protocol hooks (implemented by subclasses)
    # ------------------------------------------------------------------
    def _node_step(
        self, runtime: NodeRuntime, inbox: List[Message], round_no: int
    ) -> Tuple[List[Message], bool]:
        """Run one round of the protocol state machine at one node.

        Returns the broadcasts the node issues this round and whether its
        protocol state changed.
        """
        raise NotImplementedError

    def _seed_violation(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        """Reaction of a node that locally detects an MIS-invariant violation."""
        raise NotImplementedError

    def _seed_retirement(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        """Reaction of a gracefully deleted MIS node (it must hand off its role)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Simulator core
    # ------------------------------------------------------------------
    def _run_until_stable(self, metrics: ChangeMetrics, seed_messages: List[Message]) -> None:
        """Run synchronous rounds until the system is stable again.

        ``seed_messages`` are the broadcasts issued in round 1 by the change
        handler (discovery and violation seeds).
        """
        self._last_round_log = []
        pending = list(seed_messages)
        if pending:
            self._account_broadcasts(metrics, pending)
            metrics.rounds = max(metrics.rounds, 1)
            if self._round_logging:
                seed_record = RoundRecord(1)
                seed_record.broadcasts = [
                    (message.sender, message.kind.value, message.state) for message in pending
                ]
                self._last_round_log.append(seed_record)
        last_active = metrics.rounds
        round_no = 1
        cap = self.ROUND_CAP_FACTOR * max(1, self._graph.num_nodes()) + self.ROUND_CAP_SLACK
        while True:
            round_no += 1
            if round_no > cap:
                raise ProtocolError(
                    f"protocol did not stabilize within {cap} rounds "
                    f"(change kind {metrics.change_kind})"
                )
            inboxes = self._deliver(pending)
            pending = []
            activity = False
            record = RoundRecord(round_no) if self._round_logging else None
            if record is not None:
                record.messages_delivered = sum(len(inbox) for inbox in inboxes.values())
            for node in sorted(self._runtimes, key=self._priorities.key):
                runtime = self._runtimes[node]
                inbox = inboxes.get(node, [])
                outgoing, changed = self._node_step(runtime, inbox, round_no)
                if outgoing:
                    for message in outgoing:
                        pending.append(message)
                        if record is not None:
                            record.broadcasts.append(
                                (message.sender, message.kind.value, message.state)
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
            transient = any(
                not runtime.state.is_output for runtime in self._runtimes.values()
            )
            if not pending and not activity and not transient:
                break
        metrics.rounds = max(metrics.rounds, last_active)

    def _deliver(self, messages: List[Message]) -> Dict[Node, List[Message]]:
        """Deliver each broadcast to all *current* neighbors of its sender."""
        inboxes: Dict[Node, List[Message]] = {}
        for message in messages:
            sender = message.sender
            if not self._graph.has_node(sender):
                continue
            for receiver in self._graph.neighbors(sender):
                inboxes.setdefault(receiver, []).append(message)
        return inboxes

    def _account_broadcasts(self, metrics: ChangeMetrics, messages: List[Message]) -> None:
        bound = max(2, self._graph.num_nodes())
        for message in messages:
            metrics.broadcasts += 1
            metrics.bits += message.bits(bound)

    # ------------------------------------------------------------------
    # Shared helpers for change handlers and protocols
    # ------------------------------------------------------------------
    def _id_broadcast(
        self, node: Node, round_sent: int, requests_introduction: bool = True
    ) -> Message:
        runtime = self._runtimes[node]
        return Message(
            sender=node,
            kind=MessageKind.ID_AND_STATE,
            state=runtime.state.value,
            random_id=runtime.key,
            requests_introduction=requests_introduction,
            round_sent=round_sent,
        )

    def _state_broadcast(self, node: Node, round_sent: int) -> Message:
        runtime = self._runtimes[node]
        return Message(
            sender=node,
            kind=MessageKind.STATE,
            state=runtime.state.value,
            round_sent=round_sent,
        )

    def _maybe_seed_violation(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        """Check the MIS invariant from local knowledge; seed the repair if broken."""
        if not runtime.state.is_output:
            return []
        should_be_in_mis = runtime.no_earlier_neighbor_in_mis()
        if should_be_in_mis == runtime.in_mis():
            return []
        return self._seed_violation(runtime, metrics)

    def _detach_node(self, node: Node) -> None:
        """Remove a node from the topology, the runtimes and its neighbors' views."""
        for other in self._graph.neighbors(node):
            self._runtimes[other].drop_neighbor(node)
        self._graph.remove_node(node)
        self._runtimes.pop(node, None)
        self._priorities.forget(node)

    def _handle_inbox(
        self, runtime: NodeRuntime, inbox: List[Message], round_no: int
    ) -> Tuple[List[Message], bool]:
        """Shared inbox processing: update knowledge, handle introductions.

        Returns (introduction broadcasts to send, whether a previously unknown
        neighbor key was learned).
        """
        outgoing: List[Message] = []
        learned_new_key = False
        for message in inbox:
            sender = message.sender
            if sender not in runtime.neighbors:
                # Stale message from a node that is no longer a neighbor.
                continue
            key_was_known = sender in runtime.neighbor_keys
            runtime.learn_neighbor(
                sender,
                message.random_id if message.kind is _Kind.ID_AND_STATE else None,
                NodeState(message.state),
            )
            if message.kind is _Kind.ID_AND_STATE and not key_was_known:
                learned_new_key = True
                if message.requests_introduction and runtime.node_id not in self._introduced:
                    outgoing.append(self._id_broadcast(runtime.node_id, round_sent=round_no))
                    self._introduced.add(runtime.node_id)
        return outgoing, learned_new_key
