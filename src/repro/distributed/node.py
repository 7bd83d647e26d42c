"""Per-node runtime state for the simulated protocols.

A simulated node may only use *local* knowledge, exactly as in the paper's
model:

* its own random ID (equivalently its key in the order ``pi``),
* the identities of its current neighbors (maintained by the model: endpoints
  of an inserted/deleted edge and neighbors of an inserted/deleted node are
  notified of the change),
* whatever its neighbors broadcast -- in particular their random IDs and their
  last announced protocol state.

:class:`NodeRuntime` is a passive record of that knowledge; the protocol
classes (:mod:`repro.distributed.protocol_mis`,
:mod:`repro.distributed.protocol_direct`) read and update it.  Keeping the
runtime passive makes it reusable across the synchronous and asynchronous
simulators and keeps the protocol logic in one readable place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set, Tuple

Node = Hashable
PriorityKey = Tuple


class NodeState(enum.Enum):
    """Protocol states of Algorithm 2 (the direct protocol uses only M / M_BAR)."""

    M = "M"
    M_BAR = "M_BAR"
    C = "C"
    R = "R"

    @property
    def is_output(self) -> bool:
        """True for the two output states (MIS / non-MIS)."""
        return self in (NodeState.M, NodeState.M_BAR)

    @property
    def code(self) -> int:
        """Dense integer code of this state (see :data:`STATE_CODES`)."""
        return STATE_CODES[self]


#: Dense integer codes of the protocol states, shared by the dict runtimes and
#: the array-backed network core (:mod:`repro.distributed.fast_network`), which
#: stores states in ``bytearray`` slots.  The two output states come first so
#: ``code <= CODE_M_BAR`` tests "is an output state".
STATE_CODES = {NodeState.M: 0, NodeState.M_BAR: 1, NodeState.C: 2, NodeState.R: 3}

#: Inverse of :data:`STATE_CODES`, indexable by code.
CODE_TO_STATE = tuple(sorted(STATE_CODES, key=STATE_CODES.get))


@dataclass
class NodeRuntime:
    """Local knowledge and protocol state of a single simulated node.

    Attributes
    ----------
    node_id:
        The node's identity (graph node identifier).
    key:
        The node's own priority key (its random ID plus tie-breaks).
    state:
        Current protocol state.
    neighbors:
        The node's current view of its neighbor set (kept in sync with the
        topology by the model-level notifications).
    neighbor_keys:
        Priority keys the node has *learned* (a neighbor's key is unknown
        until that neighbor broadcast it or the model says the nodes knew each
        other already, e.g. for unmuting).
    neighbor_states:
        Last protocol state heard from each neighbor.
    entered_c_round:
        Round in which the node last switched to state C (used by rule 3's
        "at least two rounds ago" condition).
    retiring:
        True while the node is a gracefully deleted relay: it still forwards
        and sends messages but its final output is forced to non-MIS and it is
        removed once the system is stable.
    """

    node_id: Node
    key: PriorityKey
    state: NodeState = NodeState.M_BAR
    neighbors: Set[Node] = field(default_factory=set)
    neighbor_keys: Dict[Node, PriorityKey] = field(default_factory=dict)
    neighbor_states: Dict[Node, NodeState] = field(default_factory=dict)
    entered_c_round: Optional[int] = None
    retiring: bool = False

    # ------------------------------------------------------------------
    # Local views used by the protocol rules
    # ------------------------------------------------------------------
    def known_earlier_neighbors(self) -> Set[Node]:
        """Neighbors the node knows to be earlier than itself in ``pi`` (``I_pi``)."""
        return {
            other
            for other in self.neighbors
            if other in self.neighbor_keys and self.neighbor_keys[other] < self.key
        }

    def known_later_neighbors(self) -> Set[Node]:
        """Neighbors the node knows to be later than itself in ``pi``."""
        return {
            other
            for other in self.neighbors
            if other in self.neighbor_keys and self.neighbor_keys[other] > self.key
        }

    def neighbor_state(self, other: Node) -> Optional[NodeState]:
        """Last state heard from ``other`` (None if never heard)."""
        return self.neighbor_states.get(other)

    def earlier_neighbor_in_state(self, state: NodeState) -> bool:
        """True iff some earlier neighbor is (to the node's knowledge) in ``state``."""
        return any(
            self.neighbor_states.get(other) is state for other in self.known_earlier_neighbors()
        )

    def all_earlier_neighbors_in_output_states(self) -> bool:
        """Rule 4 guard: every earlier neighbor is known to be in M or M_BAR."""
        return all(
            self.neighbor_states.get(other) in (NodeState.M, NodeState.M_BAR)
            for other in self.known_earlier_neighbors()
        )

    def no_earlier_neighbor_in_mis(self) -> bool:
        """MIS-invariant test from local knowledge: no earlier neighbor in M."""
        return not self.earlier_neighbor_in_state(NodeState.M)

    def no_later_neighbor_in_c(self) -> bool:
        """Rule 3 guard: no later neighbor is (to the node's knowledge) in C."""
        return not any(
            self.neighbor_states.get(other) is NodeState.C
            for other in self.known_later_neighbors()
        )

    # ------------------------------------------------------------------
    # Knowledge updates
    # ------------------------------------------------------------------
    def learn_neighbor(
        self, other: Node, key: Optional[PriorityKey], state: Optional[NodeState]
    ) -> None:
        """Record information about a neighbor (from a broadcast or the model)."""
        if key is not None:
            self.neighbor_keys[other] = key
        if state is not None:
            self.neighbor_states[other] = state

    def add_neighbor(self, other: Node) -> None:
        """Model-level notification: ``other`` is now a neighbor."""
        self.neighbors.add(other)

    def drop_neighbor(self, other: Node) -> None:
        """Model-level notification: ``other`` is no longer a neighbor."""
        self.neighbors.discard(other)
        self.neighbor_keys.pop(other, None)
        self.neighbor_states.pop(other, None)

    def in_mis(self) -> bool:
        """Output of the node: True iff its state is M."""
        return self.state is NodeState.M
