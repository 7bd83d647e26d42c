"""Label-keyed snapshots of the distributed simulators.

The paper's protocols end every change in the stable configuration that the
simulators also install at bootstrap: each node knows its own random ID and
output, its current neighbor set, and every neighbor's random ID and current
output.  History independence makes the outputs a function of the graph and
the order ``pi``, and that local knowledge a function of the outputs.  A
:class:`NetworkSnapshot` therefore stores the ground-truth topology, the
priority keys, the node states, the running metric totals and (for the
asynchronous simulators) the event-sequence cursor and scheduler state --
keyed by node *labels*, never by backend internals -- and restore derives
the knowledge through the same build path as bootstrap.

Because the snapshot is label-keyed, any registered network backend can
restore a snapshot taken by any other: a checkpoint captured on the
dict/set simulators resumes on the id-interned
:mod:`~repro.distributed.fast_network` core and vice versa, and the resumed
run is differential-equal (outputs, per-change metrics, round traces) to an
uninterrupted one -- machine-checked by
:func:`repro.testing.protocol_differential.replay_resume_differential`.

Snapshots are captured between changes only.  Every simulator runs each
change to quiescence before returning, so there are never messages in
flight, transient protocol states or retiring relays at snapshot time: the
simulators' ``snapshot()`` refuses mid-repair states, and
:func:`check_restorable` refuses transient or torn snapshots.

Each state core implements the ``snapshot()`` / ``restore()`` pair once:
:class:`~repro.distributed.network.DictNetworkCore` over its node runtimes,
:class:`~repro.distributed.fast_network.FastNetworkCore` over its interned
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

from repro.core.state_api import Totals
from repro.distributed.metrics import METRIC_COUNTERS
from repro.distributed.node import NodeState

Node = Hashable


class NetworkStateError(RuntimeError):
    """A snapshot could not be captured or restored (wrong protocol, not quiescent, torn)."""


@dataclass(frozen=True)
class NetworkSnapshot:
    """Frozen, label-keyed copy of one distributed simulator's observable state.

    The local knowledge of each node is not stored: between changes it is
    "every neighbor's key and current output", which restore derives from
    ``states`` and ``priority_keys`` exactly as bootstrap installs it.

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
    scheduler_cursor:
        How many event-sequence values the asynchronous event loop consumed
        so far (0 for the synchronous protocols); a resumed simulator
        continues the sequence from here.
    metrics:
        A copy of the simulator's running metric totals
        (:attr:`~repro.distributed.metrics.MetricsAggregator.totals`: count,
        sum and maximum per counter and per change kind), so a resumed run's
        aggregate summary equals an uninterrupted run's.  Fixed-size: the
        snapshot does not grow with the number of changes applied.
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
    scheduler_cursor: int = 0
    metrics: Totals = field(default_factory=lambda: Totals(METRIC_COUNTERS))
    scheduler_state: Optional[Tuple] = None

    @property
    def num_nodes(self) -> int:
        """Number of nodes captured in the snapshot."""
        return len(self.nodes)

    @property
    def num_changes(self) -> int:
        """Number of changes the snapshot's metric totals cover."""
        return self.metrics.num_records()


def check_quiescent(snapshot: NetworkSnapshot) -> None:
    """Raise :class:`NetworkStateError` unless the snapshot is a stable state."""
    transient = [
        node for node, value in snapshot.states.items() if not NodeState(value).is_output
    ]
    if transient:
        raise NetworkStateError(
            f"snapshot has nodes in transient states: {transient[:5]} "
            "(snapshots are only valid between changes)"
        )


def check_restorable(snapshot: NetworkSnapshot, protocol: Optional[str]) -> None:
    """Raise unless ``snapshot`` may restore into a simulator of ``protocol``.

    Besides the protocol and quiescence, the snapshot's shape must hold
    together: ``nodes`` lists each node once, ``states`` and
    ``priority_keys`` cover exactly ``nodes``, and every edge endpoint is
    one of them.  Restore derives each node's knowledge from those fields,
    so a torn snapshot would otherwise restore a wrong configuration instead
    of failing.
    """
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
    nodes = set(snapshot.nodes)
    if len(nodes) != len(snapshot.nodes):
        raise NetworkStateError("torn snapshot: a node is listed more than once")
    for name in ("states", "priority_keys"):
        covered = getattr(snapshot, name).keys()
        if covered != nodes:
            raise NetworkStateError(
                f"torn snapshot: {name} does not cover exactly the snapshot nodes "
                f"(missing {sorted(nodes - covered, key=repr)[:5]}, "
                f"extra {sorted(covered - nodes, key=repr)[:5]})"
            )
    stray = [edge for edge in snapshot.edges if edge[0] not in nodes or edge[1] not in nodes]
    if stray:
        raise NetworkStateError(
            f"torn snapshot: edges {stray[:5]} have an endpoint outside the snapshot nodes"
        )
    check_quiescent(snapshot)
