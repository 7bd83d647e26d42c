"""Algorithm 1: the model-agnostic template for maintaining an MIS.

The template (paper, Section 3) is not tied to a computation model: it simply
describes which nodes must change state after a single topology change so
that the MIS invariant holds again.  :class:`TemplateEngine` implements it as
an in-memory engine that

* keeps the current graph, the order ``pi`` and the state of every node,
* exposes one method per template-level topology change (edge insertion,
  edge deletion, node insertion, node deletion -- the graceful/abrupt and
  unmuting distinctions only exist in the distributed implementation), and
* returns, for every change, an :class:`UpdateReport` containing the node
  ``v*``, the influenced set ``S`` with its levels, and the adjustment count.

The engine is the reference oracle of the library: the distributed protocols
are validated against it, and the Theorem 1 experiment (E1) measures
``E[|S|]`` directly from its reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from repro.core.engine_api import BatchUpdateReport, EngineSnapshot, MISEngine
from repro.core.greedy import greedy_mis_states
from repro.core.influenced import InfluencePropagation, propagate_influence
from repro.core.invariant import desired_state, verify_mis_invariant
from repro.core.priorities import PriorityAssigner, RandomPriorityAssigner
from repro.graph.dynamic_graph import DynamicGraph, GraphError

Node = Hashable


@dataclass
class UpdateReport:
    """Outcome of applying one topology change through the template.

    Attributes
    ----------
    change_type:
        One of ``"edge_insertion"``, ``"edge_deletion"``, ``"node_insertion"``,
        ``"node_deletion"``.
    v_star:
        The unique node whose invariant could break (``None`` only for
        degenerate changes such as inserting an isolated node).
    v_star_star:
        The other endpoint for edge changes, or ``v_star`` for node changes
        (the paper's convention).
    propagation:
        The full :class:`InfluencePropagation` trace.
    """

    change_type: str
    v_star: Optional[Node]
    v_star_star: Optional[Node]
    propagation: InfluencePropagation

    @property
    def influenced_set(self) -> Set[Node]:
        """The influenced set ``S`` of Theorem 1."""
        return self.propagation.influenced

    @property
    def influenced_size(self) -> int:
        """``|S|``."""
        return self.propagation.size

    @property
    def num_adjustments(self) -> int:
        """Number of nodes whose output changed."""
        return self.propagation.num_adjustments

    @property
    def num_levels(self) -> int:
        """Depth of the propagation (rounds of a direct implementation)."""
        return self.propagation.num_levels

    @property
    def state_flips(self) -> int:
        """Total individual state flips (a naive implementation's broadcasts)."""
        return self.propagation.state_flips

    @property
    def update_work(self) -> int:
        """Neighbor inspections performed (a sequential implementation's update time)."""
        return self.propagation.work


class TemplateEngine(MISEngine):
    """Sequential-semantics dynamic MIS maintainer (the paper's template).

    The reference implementation of the :class:`~repro.core.engine_api.MISEngine`
    contract, registered as ``"template"``.

    Parameters
    ----------
    priorities:
        Order ``pi``.  Defaults to a fresh :class:`RandomPriorityAssigner`
        with ``seed``.
    seed:
        Seed for the default priority assigner (ignored when ``priorities``
        is given).
    initial_graph:
        Optional starting graph.  Its MIS is computed with a single greedy
        pass, after which every later change goes through the template.
    """

    def __init__(
        self,
        priorities: Optional[PriorityAssigner] = None,
        seed: int = 0,
        initial_graph: Optional[DynamicGraph] = None,
    ) -> None:
        self._priorities = priorities if priorities is not None else RandomPriorityAssigner(seed)
        self._graph = DynamicGraph()
        self._states: Dict[Node, bool] = {}
        if initial_graph is not None:
            self._graph = initial_graph.copy()
            for node in self._graph.nodes():
                self._priorities.assign(node)
            self._states = greedy_mis_states(self._graph, self._priorities)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicGraph:
        """The current graph (do not mutate directly)."""
        return self._graph

    @property
    def priorities(self) -> PriorityAssigner:
        """The order ``pi``."""
        return self._priorities

    def states(self) -> Dict[Node, bool]:
        """A copy of the current state map ``node -> in MIS?``."""
        return dict(self._states)

    def mis(self) -> Set[Node]:
        """The current maximal independent set."""
        return {node for node, in_mis in self._states.items() if in_mis}

    def in_mis(self, node: Node) -> bool:
        """Whether ``node`` is currently in the MIS."""
        return self._states[node]

    def verify(self) -> None:
        """Assert that the MIS invariant holds at every node (for tests)."""
        verify_mis_invariant(self._graph, self._priorities, self._states)

    def clustering(self) -> Dict[Node, Node]:
        """Correlation clustering view: every node -> its cluster center.

        MIS nodes are their own centers; every other node joins its earliest
        (smallest random ID) MIS neighbor.  Part of the common engine-backend
        interface (:class:`~repro.core.fast_engine.FastEngine` implements the
        same method over arrays).
        """
        centers: Dict[Node, Node] = {}
        mis_nodes = self.mis()
        for node in self._graph.nodes():
            if node in mis_nodes:
                centers[node] = node
            else:
                mis_neighbors = [
                    other for other in self._graph.iter_neighbors(node) if other in mis_nodes
                ]
                centers[node] = self._priorities.earliest(mis_neighbors)
        return centers

    # ------------------------------------------------------------------
    # Topology changes
    # ------------------------------------------------------------------
    def insert_edge(self, u: Node, v: Node) -> UpdateReport:
        """Insert edge ``{u, v}`` and restore the invariant."""
        if not self._graph.has_node(u) or not self._graph.has_node(v):
            raise GraphError("both endpoints must exist before inserting an edge")
        self._graph.add_edge(u, v)
        v_star, v_star_star = self._order_endpoints(u, v)
        needs_change = self._states[v_star] != desired_state(
            self._graph, self._priorities, self._states, v_star
        )
        propagation = propagate_influence(
            self._graph,
            self._priorities,
            self._states,
            source=v_star,
            source_changes=needs_change,
        )
        self._commit(propagation)
        return UpdateReport("edge_insertion", v_star, v_star_star, propagation)

    def delete_edge(self, u: Node, v: Node) -> UpdateReport:
        """Delete edge ``{u, v}`` and restore the invariant."""
        if not self._graph.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        v_star, v_star_star = self._order_endpoints(u, v)
        self._graph.remove_edge(u, v)
        needs_change = self._states[v_star] != desired_state(
            self._graph, self._priorities, self._states, v_star
        )
        propagation = propagate_influence(
            self._graph,
            self._priorities,
            self._states,
            source=v_star,
            source_changes=needs_change,
        )
        self._commit(propagation)
        return UpdateReport("edge_deletion", v_star, v_star_star, propagation)

    def insert_node(self, node: Node, neighbors: Iterable[Node] = ()) -> UpdateReport:
        """Insert ``node`` with edges to existing ``neighbors`` and restore the invariant."""
        neighbor_list = list(neighbors)
        self._graph.add_node_with_edges(node, neighbor_list)
        self._priorities.assign(node)
        # The new node enters with a provisional non-MIS output; it must join
        # the MIS exactly when it has no earlier MIS neighbor.
        self._states[node] = False
        needs_change = desired_state(self._graph, self._priorities, self._states, node)
        propagation = propagate_influence(
            self._graph,
            self._priorities,
            self._states,
            source=node,
            source_changes=needs_change,
        )
        self._commit(propagation)
        return UpdateReport("node_insertion", node, node, propagation)

    def delete_node(self, node: Node) -> UpdateReport:
        """Delete ``node`` (with its edges) and restore the invariant."""
        if not self._graph.has_node(node):
            raise GraphError(f"node {node!r} is not in the graph")
        was_in_mis = self._states[node]
        later_neighbors = self._priorities.later_neighbors(self._graph, node)
        self._graph.remove_node(node)
        old_state = self._states.pop(node)
        propagation = propagate_influence(
            self._graph,
            self._priorities,
            self._states,
            source=node,
            source_changes=was_in_mis,
            extra_dirty=later_neighbors if was_in_mis else (),
        )
        self._commit(propagation)
        self._priorities.forget(node)
        del old_state
        return UpdateReport("node_deletion", node, node, propagation)

    def apply_batch(self, changes: Sequence) -> BatchUpdateReport:
        """Apply ``changes`` atomically and restore the invariant in one wave.

        The changes are validated against the *evolving* graph in the given
        order (e.g. an edge insertion may reference a node inserted earlier in
        the same batch), but no invariant repair happens until the whole batch
        has been applied; the repair then runs as a single propagation seeded
        with every node whose invariant may have broken (the batch analogue of
        ``v*``).  See :mod:`repro.core.batch` for the extension's rationale.

        Raises
        ------
        GraphError
            If some change in the batch is invalid at its position -- raised
            by the up-front :func:`~repro.workloads.changes.validate_batch`
            pass, *before* any graph delta is applied, so a failed batch
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

        graph = self._graph
        validate_batch(graph, changes)
        states: Dict[Node, bool] = dict(self._states)
        priorities = self._priorities

        dirty: Set[Node] = set()
        deleted: Set[Node] = set()
        applied: List = []

        for change in changes:
            if isinstance(change, EdgeInsertion):
                graph.add_edge(change.u, change.v)
                dirty.add(self._order_endpoints(change.u, change.v)[0])
            elif isinstance(change, EdgeDeletion):
                graph.remove_edge(change.u, change.v)
                dirty.add(self._order_endpoints(change.u, change.v)[0])
            elif isinstance(change, (NodeInsertion, NodeUnmuting)):
                graph.add_node_with_edges(change.node, change.neighbors)
                priorities.assign(change.node)
                states[change.node] = False
                dirty.add(change.node)
                deleted.discard(change.node)
            elif isinstance(change, NodeDeletion):
                was_in_mis = states.get(change.node, False)
                later_neighbors = priorities.later_neighbors(graph, change.node)
                graph.remove_node(change.node)
                states.pop(change.node, None)
                dirty.discard(change.node)
                deleted.add(change.node)
                if was_in_mis:
                    dirty.update(later_neighbors)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown change type: {change!r}")
            applied.append(change)

        dirty = {node for node in dirty if graph.has_node(node)}
        propagation = propagate_influence(
            graph,
            priorities,
            states,
            source=None,
            source_changes=False,
            extra_dirty=sorted(dirty, key=priorities.key),
        )
        self._commit(propagation)
        for node in deleted:
            priorities.forget(node)
        return BatchUpdateReport(
            changes=applied,
            seed_nodes=dirty,
            influenced_labels=frozenset(propagation.influenced),
            influenced_size=propagation.size,
            num_adjustments=propagation.num_adjustments,
            num_levels=propagation.num_levels,
            state_flips=propagation.state_flips,
            update_work=propagation.work,
            evaluations=propagation.evaluations,
            propagation=propagation,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def restore(self, snapshot: EngineSnapshot) -> None:
        """Reset graph, states and priority keys to a previous snapshot."""
        self._graph = DynamicGraph(nodes=snapshot.nodes, edges=snapshot.edges)
        self._states = dict(snapshot.states)
        self._priorities.restore_keys(dict(snapshot.priority_keys))

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _order_endpoints(self, u: Node, v: Node) -> tuple:
        """Return (v*, v**): the later and earlier endpoint under ``pi``."""
        if self._priorities.earlier(u, v):
            return v, u
        return u, v

    def _commit(self, propagation: InfluencePropagation) -> None:
        self._states = dict(propagation.final_states)
