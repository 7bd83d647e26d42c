"""Direct distributed implementation of the template (Corollary 6).

Every node keeps only the two output states.  Whenever it learns something
new -- the state change of a neighbor, or the random ID of a newly attached
neighbor -- it recomputes the MIS invariant from its local knowledge and, if
its output must change, flips it and broadcasts the new state.

This is the implementation whose *round* complexity is a single round in
expectation (the propagation depth equals the number of levels of the
influenced set, and Theorem 1 gives E[|S|] <= 1), but whose *broadcast*
complexity can reach Theta(|S|^2) because a node may flip several times
(the paper's ``u_2`` example).  Experiment A1 contrasts it against Algorithm 2
(:class:`~repro.distributed.protocol_mis.BufferedMISNetwork`), which trades a
slightly larger constant number of rounds for O(1) broadcasts.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.distributed.message import Message
from repro.distributed.metrics import ChangeMetrics
from repro.distributed.network import SynchronousMISNetwork
from repro.distributed.node import NodeRuntime, NodeState


class DirectMISNetwork(SynchronousMISNetwork):
    """Synchronous network running the direct (single-round) template protocol.

    Examples
    --------
    >>> from repro.graph.generators import star_graph
    >>> network = DirectMISNetwork(seed=5, initial_graph=star_graph(10))
    >>> network.verify()
    >>> from repro.workloads.changes import NodeDeletion
    >>> metrics = network.apply(NodeDeletion(0, graceful=False))
    >>> network.verify()

    The id-interned array-backed twin is
    :class:`~repro.distributed.fast_network.FastDirectMISNetwork`; pick
    either with ``create_network("direct", network=...)``.
    """

    PROTOCOL = "direct"

    # ------------------------------------------------------------------
    # Seeding hooks
    # ------------------------------------------------------------------
    def _seed_violation(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        runtime.state = (
            NodeState.M if runtime.no_earlier_neighbor_in_mis() else NodeState.M_BAR
        )
        metrics.state_changes += 1
        return [self._state_broadcast(runtime.node_id, round_sent=1)]

    def _seed_retirement(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        # A gracefully deleted MIS node simply announces that it leaves the
        # MIS; its neighbors react as if it had been deleted already.
        runtime.state = NodeState.M_BAR
        metrics.state_changes += 1
        return [self._state_broadcast(runtime.node_id, round_sent=1)]

    # ------------------------------------------------------------------
    # The per-round behavior
    # ------------------------------------------------------------------
    def _node_step(
        self, runtime: NodeRuntime, inbox: List[Message], round_no: int
    ) -> Tuple[List[Message], bool]:
        outgoing, learned_new_key = self._handle_inbox(runtime, inbox, round_no)
        changed = False
        if (inbox or learned_new_key) and self._knows_all_neighbor_keys(runtime):
            if runtime.retiring:
                desired = NodeState.M_BAR
            elif runtime.no_earlier_neighbor_in_mis():
                desired = NodeState.M
            else:
                desired = NodeState.M_BAR
            if desired is not runtime.state:
                runtime.state = desired
                changed = True
                outgoing.append(self._state_broadcast(runtime.node_id, round_sent=round_no))
        return outgoing, changed

    @staticmethod
    def _knows_all_neighbor_keys(runtime: NodeRuntime) -> bool:
        return all(other in runtime.neighbor_keys for other in runtime.neighbors)
