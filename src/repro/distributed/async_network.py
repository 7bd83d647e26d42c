"""Asynchronous execution of the direct template protocol (Corollary 6).

The paper's asynchronous model lets an (oblivious) adversary delay messages
arbitrarily; the complexity measure that replaces the round count is the
*longest path of communication*, i.e. the longest chain of messages each of
which was triggered by the previous one.  Corollary 6 states that the direct
implementation of the template needs, in expectation, a single adjustment and
a single unit of this causal depth -- exactly as in the synchronous model.

:class:`AsyncDirectMISNetwork` implements this with a discrete-event
simulation:

* every broadcast is expanded into one event per (current) neighbor, whose
  delivery time is chosen by a pluggable :class:`DelayScheduler` and respects
  per-channel FIFO order,
* a node processes an event the moment it arrives: it updates its knowledge
  of the sender's state, re-evaluates the MIS invariant and, if its output
  must change, flips it and broadcasts -- the new messages inherit the
  triggering message's causal depth plus one,
* the run ends when no events are left; the recorded ``async_causal_depth``
  is the maximum causal depth of any delivered message.

As in the sequential template, topology-change notifications (including the
IDs of new neighbors) are provided by the model; the discovery broadcasts
needed when IDs are *not* known upfront are a synchronous-model refinement
benchmarked separately with :class:`repro.distributed.protocol_mis.BufferedMISNetwork`.
"""

from __future__ import annotations

import copy
import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.priorities import PriorityAssigner
from repro.core.state_api import EventSequence
from repro.distributed.metrics import ChangeMetrics
from repro.distributed.network import DictNetworkCore
from repro.distributed.node import NodeRuntime, NodeState
from repro.distributed.scheduler import DelayScheduler, RandomDelayScheduler
from repro.distributed.state import NetworkSnapshot
from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.changes import EdgeDeletion, EdgeInsertion, NodeDeletion

Node = Hashable


class AsyncDirectMISNetwork(DictNetworkCore):
    """Event-driven dynamic MIS maintainer for the asynchronous model.

    Under a :class:`~repro.distributed.scheduler.RandomDelayScheduler` the
    delays are drawn from one stream in neighbor-set iteration order, which
    for string labels depends on the interpreter's ``PYTHONHASHSEED``.

    Parameters
    ----------
    seed:
        Seed of the random IDs.
    initial_graph:
        Optional starting topology (its MIS is installed as the stable start).
    scheduler:
        Message-delay scheduler; defaults to uniform random delays.
    priorities:
        Custom order (for baselines); defaults to random IDs.
    """

    MAX_EVENTS_FACTOR = 50
    #: protocol name in the network-backend registry.
    PROTOCOL = "async-direct"

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
        super().__init__(seed, initial_graph, priorities)

    # ------------------------------------------------------------------
    # Scheduler state (snapshots record the event-sequence cursor and the
    # scheduler's RNG stream position, so a resumed simulator draws the
    # same remaining delays; which channel gets which one follows the
    # neighbor order, see RandomDelayScheduler)
    # ------------------------------------------------------------------
    def _scheduler_cursor(self) -> int:
        return self._sequence.value

    def _scheduler_state(self) -> Optional[Tuple]:
        return self._scheduler.getstate()

    def restore(self, snapshot: NetworkSnapshot) -> None:
        super().restore(snapshot)
        self._sequence = EventSequence(snapshot.scheduler_cursor)
        self._scheduler.setstate(copy.deepcopy(snapshot.scheduler_state))

    # ------------------------------------------------------------------
    # Change handlers (model-level notifications include IDs)
    # ------------------------------------------------------------------
    def _apply_edge_insertion(self, change: EdgeInsertion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_insertion")
        before = self.states()
        u, v = change.u, change.v
        self._graph.add_edge(u, v)
        self._connect(u, v)
        later = u if self._priorities.earlier(v, u) else v
        seeds = self._evaluate_and_flip(self._runtimes[later], metrics)
        self._run_events(seeds, metrics)
        self._finalize(metrics, before)
        return metrics

    def _apply_edge_deletion(self, change: EdgeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("edge_deletion")
        before = self.states()
        u, v = change.u, change.v
        later = u if self._priorities.earlier(v, u) else v
        self._graph.remove_edge(u, v)
        self._runtimes[u].drop_neighbor(v)
        self._runtimes[v].drop_neighbor(u)
        seeds = self._evaluate_and_flip(self._runtimes[later], metrics)
        self._run_events(seeds, metrics)
        self._finalize(metrics, before)
        return metrics

    def _apply_node_insertion(self, change) -> ChangeMetrics:
        metrics = ChangeMetrics(change.kind)
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
            self._connect(node, other)
        seeds = self._evaluate_and_flip(runtime, metrics)
        self._run_events(seeds, metrics)
        self._finalize(metrics, before)
        return metrics

    def _apply_node_deletion(self, change: NodeDeletion) -> ChangeMetrics:
        metrics = ChangeMetrics("node_deletion")
        before = self.states()
        node = change.node
        was_in_mis = self._runtimes[node].in_mis()
        former_neighbors = set(self._graph.neighbors(node))
        for other in former_neighbors:
            self._runtimes[other].drop_neighbor(node)
        self._graph.remove_node(node)
        self._runtimes.pop(node)
        self._priorities.forget(node)
        seeds: List[Tuple] = []
        if was_in_mis:
            for other in sorted(former_neighbors, key=self._priorities.key):
                seeds.extend(self._evaluate_and_flip(self._runtimes[other], metrics))
        self._run_events(seeds, metrics)
        self._finalize(metrics, before, removed=node)
        return metrics

    #: Unmuting is an insertion here: the model already tells both sides
    #: each other's IDs and states.
    _apply_node_unmuting = _apply_node_insertion

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def _run_events(self, seed_broadcasts: List[Tuple], metrics: ChangeMetrics) -> None:
        """Run the discrete-event loop until no message is in flight.

        ``seed_broadcasts`` is a list of ``(sender, state, depth)`` broadcast
        requests produced by the change handler.
        """
        queue: List[Tuple[float, int, Node, Node, str, int]] = []
        channel_clock: Dict[Tuple[Node, Node], float] = {}
        max_depth = 0
        processed = 0
        limit = self.MAX_EVENTS_FACTOR * max(1, self._graph.num_nodes()) ** 2 + 100

        def broadcast(sender: Node, state_value: str, depth: int, now: float) -> None:
            nonlocal max_depth
            if not self._graph.has_node(sender):
                return
            metrics.broadcasts += 1
            metrics.bits += 2
            max_depth = max(max_depth, depth)
            for receiver in self._graph.neighbors(sender):
                delay = self._scheduler.delay(sender, receiver, next(self._sequence))
                deliver_at = now + max(delay, 1e-9)
                channel = (sender, receiver)
                deliver_at = max(deliver_at, channel_clock.get(channel, 0.0) + 1e-9)
                channel_clock[channel] = deliver_at
                heapq.heappush(
                    queue, (deliver_at, next(self._sequence), sender, receiver, state_value, depth)
                )

        for sender, state_value, depth in seed_broadcasts:
            broadcast(sender, state_value, depth, now=0.0)

        while queue:
            processed += 1
            if processed > limit:
                raise RuntimeError("asynchronous execution did not quiesce")
            deliver_at, _, sender, receiver, state_value, depth = heapq.heappop(queue)
            runtime = self._runtimes.get(receiver)
            if runtime is None or sender not in runtime.neighbors:
                continue
            runtime.learn_neighbor(sender, None, NodeState(state_value))
            flips = self._evaluate_and_flip(runtime, metrics, depth=depth + 1)
            for flip_sender, flip_state, flip_depth in flips:
                broadcast(flip_sender, flip_state, flip_depth, now=deliver_at)
        metrics.async_causal_depth = max_depth
        metrics.rounds = max_depth

    def _evaluate_and_flip(
        self, runtime: NodeRuntime, metrics: ChangeMetrics, depth: int = 1
    ) -> List[Tuple]:
        """Re-evaluate the MIS invariant at a node; flip and request a broadcast if needed."""
        desired = NodeState.M if runtime.no_earlier_neighbor_in_mis() else NodeState.M_BAR
        if desired is runtime.state:
            return []
        runtime.state = desired
        metrics.state_changes += 1
        return [(runtime.node_id, desired.value, depth)]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _connect(self, u: Node, v: Node) -> None:
        """Model-level notification of a new adjacency, including IDs and states."""
        runtime_u, runtime_v = self._runtimes[u], self._runtimes[v]
        runtime_u.add_neighbor(v)
        runtime_v.add_neighbor(u)
        runtime_u.learn_neighbor(v, runtime_v.key, runtime_v.state)
        runtime_v.learn_neighbor(u, runtime_u.key, runtime_u.state)
