"""Knowledge-level snapshots of the distributed simulators.

The paper's maintainers carry all of their correctness in *local knowledge*:
each node knows its own random ID and output, its current neighbor set, and
the last ID/state it heard from each neighbor.  A :class:`NetworkSnapshot`
captures exactly that -- plus the ground-truth topology, the priority keys,
the per-change metrics collected so far and (for the asynchronous
simulators) the event-sequence cursor -- keyed by node *labels*, never by
backend internals.

Because the snapshot is label-keyed, any registered network backend can
restore a snapshot taken by any other: a checkpoint captured on the
dict/set simulators resumes on the id-interned
:mod:`~repro.distributed.fast_network` core and vice versa, and the resumed
run is differential-equal (outputs, per-change metrics, round traces) to an
uninterrupted one -- machine-checked by
:func:`repro.testing.protocol_differential.replay_resume_differential`.

Snapshots are captured between changes only.  Every simulator runs each
change to quiescence before returning, so there are never messages in
flight, transient protocol states or retiring relays at snapshot time; the
:attr:`NetworkSnapshot.pending` field exists to make that explicit in the
schema (it is always empty, and :func:`check_quiescent` enforces it).

This module also hosts the shared snapshot/restore plumbing of the two
dict/set simulators (:func:`snapshot_from_runtimes` /
:func:`runtimes_from_snapshot`); the fast core implements the same pair over
its interned arrays in :mod:`repro.distributed.fast_network`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

from repro.distributed.metrics import ChangeMetrics
from repro.distributed.node import NodeRuntime, NodeState
from repro.graph.dynamic_graph import DynamicGraph

Node = Hashable

#: Directed per-edge knowledge: what ``u`` knows about neighbor ``v`` --
#: the last protocol-state value heard (``None`` if never) and whether
#: ``v``'s random ID (priority key) is known to ``u``.
KnowledgeEntry = Tuple[Optional[str], bool]


class NetworkStateError(RuntimeError):
    """A snapshot could not be captured or restored (wrong protocol, not quiescent)."""


@dataclass(frozen=True)
class NetworkSnapshot:
    """Frozen, label-keyed copy of one distributed simulator's observable state.

    Attributes
    ----------
    protocol:
        Which protocol produced the snapshot (``"buffered"`` / ``"direct"`` /
        ``"async-direct"``).  A snapshot restores only into a simulator of the
        same protocol -- the *backend* (dict/fast) is free.
    nodes / edges:
        The ground-truth topology, by label.
    states:
        Protocol-state value per node.  Between changes every node is in an
        output state (``"M"`` / ``"M_BAR"``).
    priority_keys:
        The full random order ``pi`` restricted to live nodes; restored
        verbatim so the order is exact even mid-way through a workload.
    knowledge:
        Directed per-edge local knowledge (see :data:`KnowledgeEntry`).  At
        quiescence this equals "key known, state = neighbor's current
        output" -- the stability invariant the conformance suite asserts --
        but it is captured explicitly so restore never has to *derive* what
        a node knows.
    pending:
        In-flight messages / queued events.  Always empty: snapshots are
        captured between changes only (kept in the schema to make the
        quiescence contract explicit).
    scheduler_cursor:
        How many event-sequence values the asynchronous event loop consumed
        so far (0 for the synchronous protocols); a resumed simulator
        continues the sequence from here.
    metrics:
        Deep copies of the per-change :class:`ChangeMetrics` records
        collected so far, so a resumed run's aggregate summary equals an
        uninterrupted run's.
    scheduler_state:
        The delay scheduler's resumable state
        (:meth:`~repro.distributed.scheduler.DelayScheduler.getstate`):
        ``None`` for stateless channel-deterministic schedulers and for the
        synchronous protocols, the private RNG stream position for the
        ``"random"`` kind.  Restoring it makes resume exact for *every*
        scheduler kind, not just the channel-deterministic ones.
    """

    protocol: str
    nodes: Tuple[Node, ...]
    edges: Tuple[Tuple[Node, Node], ...]
    states: Dict[Node, str]
    priority_keys: Dict[Node, Tuple]
    knowledge: Dict[Tuple[Node, Node], KnowledgeEntry]
    pending: Tuple = ()
    scheduler_cursor: int = 0
    metrics: Tuple[ChangeMetrics, ...] = field(default_factory=tuple)
    scheduler_state: Optional[Tuple] = None

    @property
    def num_nodes(self) -> int:
        """Number of nodes captured in the snapshot."""
        return len(self.nodes)

    @property
    def num_changes(self) -> int:
        """Number of per-change metric records carried by the snapshot."""
        return len(self.metrics)


def check_quiescent(snapshot: NetworkSnapshot) -> None:
    """Raise :class:`NetworkStateError` unless the snapshot is a stable state."""
    if snapshot.pending:
        raise NetworkStateError(
            f"snapshot carries {len(snapshot.pending)} in-flight messages; "
            "snapshots are only valid between changes"
        )
    transient = [
        node for node, value in snapshot.states.items() if not NodeState(value).is_output
    ]
    if transient:
        raise NetworkStateError(
            f"snapshot has nodes in transient states: {transient[:5]} "
            "(snapshots are only valid between changes)"
        )


def check_restorable(snapshot: NetworkSnapshot, protocol: Optional[str]) -> None:
    """Raise unless ``snapshot`` may restore into a simulator of ``protocol``."""
    if not isinstance(snapshot, NetworkSnapshot):
        raise NetworkStateError(
            f"expected a NetworkSnapshot, got {type(snapshot).__name__} "
            "(engine snapshots restore through the sequential runner)"
        )
    if protocol is None or snapshot.protocol != protocol:
        raise NetworkStateError(
            f"snapshot was taken under protocol {snapshot.protocol!r} and cannot "
            f"restore into a {protocol!r} simulator (backends may differ, the "
            "protocol may not)"
        )
    check_quiescent(snapshot)


def copy_metric_records(records) -> Tuple[ChangeMetrics, ...]:
    """Deep-copy per-change metric records (they carry mutable adjusted-node sets)."""
    return tuple(copy.deepcopy(record) for record in records)


# ----------------------------------------------------------------------
# Shared plumbing of the dict/set simulators
# ----------------------------------------------------------------------
def snapshot_from_runtimes(
    protocol: Optional[str],
    graph: DynamicGraph,
    priorities,
    runtimes: Dict[Node, NodeRuntime],
    metrics_records,
    scheduler_cursor: int = 0,
    scheduler_state: Optional[Tuple] = None,
) -> NetworkSnapshot:
    """Build a :class:`NetworkSnapshot` from a dict simulator's live state."""
    if protocol is None:
        raise NetworkStateError(
            "this simulator class declares no PROTOCOL name; only concrete "
            "registered protocols can snapshot"
        )
    for node, runtime in runtimes.items():
        if not runtime.state.is_output or runtime.retiring:
            raise NetworkStateError(
                f"node {node!r} is mid-repair (state {runtime.state.value}); "
                "snapshots are only valid between changes"
            )
    knowledge: Dict[Tuple[Node, Node], KnowledgeEntry] = {}
    for node, runtime in runtimes.items():
        for neighbor, heard_state, key_known in runtime.export_knowledge():
            knowledge[(node, neighbor)] = (heard_state, key_known)
    return NetworkSnapshot(
        protocol=protocol,
        nodes=tuple(graph.nodes()),
        edges=tuple(graph.edges()),
        states={node: runtime.state.value for node, runtime in runtimes.items()},
        priority_keys={node: tuple(priorities.key(node)) for node in runtimes},
        knowledge=knowledge,
        scheduler_cursor=scheduler_cursor,
        metrics=copy_metric_records(metrics_records),
        scheduler_state=copy.deepcopy(scheduler_state),
    )


def runtimes_from_snapshot(
    snapshot: NetworkSnapshot,
) -> Tuple[DynamicGraph, Dict[Node, NodeRuntime]]:
    """Rebuild ``(graph, runtimes)`` for a dict simulator from a snapshot.

    The caller is responsible for having restored the priority keys first
    (the runtimes store each node's own key verbatim from the snapshot).
    """
    graph = DynamicGraph(nodes=snapshot.nodes, edges=snapshot.edges)
    runtimes: Dict[Node, NodeRuntime] = {}
    for node in snapshot.nodes:
        runtimes[node] = NodeRuntime(
            node_id=node,
            key=tuple(snapshot.priority_keys[node]),
            state=NodeState(snapshot.states[node]),
            neighbors=set(graph.neighbors(node)),
        )
    for (node, neighbor), (heard_state, key_known) in snapshot.knowledge.items():
        runtime = runtimes.get(node)
        if runtime is None or neighbor not in runtime.neighbors:
            raise NetworkStateError(
                f"knowledge entry ({node!r} -> {neighbor!r}) does not match the "
                "snapshot topology"
            )
        runtime.learn_neighbor(
            neighbor,
            tuple(snapshot.priority_keys[neighbor]) if key_known else None,
            None if heard_state is None else NodeState(heard_state),
        )
    return graph, runtimes
