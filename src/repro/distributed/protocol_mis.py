"""Algorithm 2: the constant-broadcast dynamic MIS protocol (Section 4).

Every node is in one of four states -- ``M`` (MIS), ``M_BAR`` (non-MIS),
``C`` (may need to change) and ``R`` (ready to change) -- and follows the
paper's four rules:

1. ``v in M``: if some earlier neighbor changes to ``C``, change to ``C``.
2. ``v in M_BAR``: if some earlier neighbor changes to ``C`` and all other
   earlier neighbors are not in ``M``, change to ``C``.
3. ``v in C``: if no later neighbor is in ``C`` and ``v`` entered ``C`` at
   least two rounds ago, change to ``R``.
4. ``v in R``: if all earlier neighbors are in ``M`` or ``M_BAR``, change to
   ``M`` when none of them is in ``M`` and to ``M_BAR`` otherwise.

Every state change is broadcast.  The effect (Lemmas 8-13) is that each
influenced node changes state exactly three times (``M/M_BAR -> C -> R ->
M/M_BAR``) instead of potentially ``Theta(|S|)`` times in the direct
implementation, which yields O(1) broadcasts in expectation for all change
types except abrupt node deletions (O(min(log n, d(v*)))) and node insertions
(O(d(v*)) for the ID discovery).

The change detection and discovery phases (Sections 4.1 and 4.2) are
implemented by the change handlers of
:class:`repro.distributed.network.SynchronousMISNetwork`; this module only
adds the per-round state machine and the two seeding reactions.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.distributed.message import Message
from repro.distributed.metrics import ChangeMetrics
from repro.distributed.network import SynchronousMISNetwork
from repro.distributed.node import NodeRuntime, NodeState


class BufferedMISNetwork(SynchronousMISNetwork):
    """Synchronous network running Algorithm 2 at every node.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_graph
    >>> network = BufferedMISNetwork(seed=3, initial_graph=erdos_renyi_graph(20, 0.2, seed=1))
    >>> network.verify()
    >>> from repro.workloads.changes import EdgeDeletion
    >>> edge = network.graph.edges()[0]
    >>> metrics = network.apply(EdgeDeletion(*edge))
    >>> metrics.broadcasts <= 3 * network.graph.num_nodes()
    True

    The id-interned array-backed twin,
    :class:`~repro.distributed.fast_network.FastBufferedMISNetwork`, is
    observably identical at a fraction of the per-change cost; pick either
    with ``create_network("buffered", network=...)``.
    """

    PROTOCOL = "buffered"

    # ------------------------------------------------------------------
    # Seeding hooks
    # ------------------------------------------------------------------
    def _seed_violation(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        runtime.state = NodeState.C
        runtime.entered_c_round = 1
        metrics.state_changes += 1
        return [self._state_broadcast(runtime.node_id, round_sent=1)]

    def _seed_retirement(self, runtime: NodeRuntime, metrics: ChangeMetrics) -> List[Message]:
        # A gracefully deleted MIS node hands off its role by entering C; its
        # final output is forced to non-MIS by the ``retiring`` flag.
        runtime.state = NodeState.C
        runtime.entered_c_round = 1
        metrics.state_changes += 1
        return [self._state_broadcast(runtime.node_id, round_sent=1)]

    # ------------------------------------------------------------------
    # The per-round state machine
    # ------------------------------------------------------------------
    def _node_step(
        self, runtime: NodeRuntime, inbox: List[Message], round_no: int
    ) -> Tuple[List[Message], bool]:
        outgoing, learned_new_key = self._handle_inbox(runtime, inbox, round_no)
        changed = False

        c_trigger = self._received_c_from_earlier_neighbor(runtime, inbox)

        if runtime.state in (NodeState.M, NodeState.M_BAR) and not runtime.retiring:
            if c_trigger and self._rules_one_two_fire(runtime):
                changed = self._enter_c(runtime, round_no)
                outgoing.append(self._state_broadcast(runtime.node_id, round_sent=round_no))
            elif learned_new_key and self._knows_all_neighbor_keys(runtime):
                # A new neighbor was discovered (edge or node insertion): the
                # node re-checks the MIS invariant from local knowledge and
                # starts the repair if it broke (this is v*'s detection step).
                if runtime.no_earlier_neighbor_in_mis() != runtime.in_mis():
                    changed = self._enter_c(runtime, round_no)
                    outgoing.append(self._state_broadcast(runtime.node_id, round_sent=round_no))
        elif runtime.state is NodeState.C:
            waited_enough = (
                runtime.entered_c_round is not None
                and round_no - runtime.entered_c_round >= 2
            )
            if waited_enough and runtime.no_later_neighbor_in_c():
                runtime.state = NodeState.R
                changed = True
                outgoing.append(self._state_broadcast(runtime.node_id, round_sent=round_no))
        elif runtime.state is NodeState.R:
            if runtime.all_earlier_neighbors_in_output_states():
                if runtime.retiring:
                    runtime.state = NodeState.M_BAR
                elif runtime.no_earlier_neighbor_in_mis():
                    runtime.state = NodeState.M
                else:
                    runtime.state = NodeState.M_BAR
                changed = True
                outgoing.append(self._state_broadcast(runtime.node_id, round_sent=round_no))
        return outgoing, changed

    # ------------------------------------------------------------------
    # Rule helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _received_c_from_earlier_neighbor(runtime: NodeRuntime, inbox: List[Message]) -> bool:
        for message in inbox:
            sender = message.sender
            if sender not in runtime.neighbors or sender not in runtime.neighbor_keys:
                continue
            if message.state != NodeState.C.value:
                continue
            if runtime.neighbor_keys[sender] < runtime.key:
                return True
        return False

    @staticmethod
    def _rules_one_two_fire(runtime: NodeRuntime) -> bool:
        if runtime.state is NodeState.M:
            # Rule 1: an MIS node joins the repair wave unconditionally.
            return True
        # Rule 2: a non-MIS node joins only if no (other) earlier neighbor is
        # still in M -- the trigger sender itself is in C, hence not in M.
        return runtime.no_earlier_neighbor_in_mis()

    @staticmethod
    def _knows_all_neighbor_keys(runtime: NodeRuntime) -> bool:
        return all(other in runtime.neighbor_keys for other in runtime.neighbors)

    @staticmethod
    def _enter_c(runtime: NodeRuntime, round_no: int) -> bool:
        runtime.state = NodeState.C
        runtime.entered_c_round = round_no
        return True
