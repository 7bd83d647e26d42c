"""Additional coverage for the simulator plumbing and edge cases."""

from __future__ import annotations

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.distributed.async_network import AsyncDirectMISNetwork
from repro.distributed.protocol_direct import DirectMISNetwork
from repro.distributed.protocol_mis import BufferedMISNetwork
from repro.graph import generators
from repro.graph.dynamic_graph import GraphError
from repro.workloads.changes import EdgeInsertion, NodeDeletion, NodeInsertion
from repro.workloads.sequences import build_sequence, mixed_churn_sequence


class TestGrowFromEmptyNetwork:
    """The distributed engines can start from nothing and build the whole graph online."""

    @pytest.mark.parametrize(
        "engine_class", [BufferedMISNetwork, DirectMISNetwork, AsyncDirectMISNetwork]
    )
    def test_build_a_graph_online(self, engine_class, small_random_graph):
        network = engine_class(seed=5)
        history = build_sequence(small_random_graph, seed=3)
        for change in history:
            network.apply(change)
        network.verify()
        assert network.graph == small_random_graph

    @pytest.mark.parametrize("engine_class", [BufferedMISNetwork, DirectMISNetwork])
    def test_first_node_joins_the_mis(self, engine_class):
        network = engine_class(seed=6)
        network.apply(NodeInsertion("first"))
        assert network.mis() == {"first"}
        network.verify()


class TestInvalidChangesAreRejected:
    def test_sync_network_validates_changes(self, small_random_graph):
        network = BufferedMISNetwork(seed=1, initial_graph=small_random_graph)
        existing_edge = small_random_graph.edges()[0]
        with pytest.raises(GraphError):
            network.apply(EdgeInsertion(*existing_edge))
        with pytest.raises(GraphError):
            network.apply(NodeDeletion("missing"))
        with pytest.raises(TypeError):
            network.apply(object())

    def test_async_network_validates_changes(self, small_random_graph):
        network = AsyncDirectMISNetwork(seed=2, initial_graph=small_random_graph)
        with pytest.raises(GraphError):
            network.apply(NodeDeletion("missing"))
        with pytest.raises(TypeError):
            network.apply(object())

    def test_rejected_change_leaves_state_intact(self, small_random_graph):
        network = BufferedMISNetwork(seed=3, initial_graph=small_random_graph)
        before = network.states()
        with pytest.raises(GraphError):
            network.apply(NodeDeletion("missing"))
        assert network.states() == before
        assert network.metrics.num_changes == 0


class TestGracefulVersusAbruptEdgeDeletion:
    def test_both_variants_produce_the_same_structure(self, small_random_graph):
        graceful = BufferedMISNetwork(seed=4, initial_graph=small_random_graph)
        abrupt = BufferedMISNetwork(seed=4, initial_graph=small_random_graph)
        for index, edge in enumerate(list(small_random_graph.edges())[:6]):
            from repro.workloads.changes import EdgeDeletion

            graceful.apply(EdgeDeletion(*edge, graceful=True))
            abrupt.apply(EdgeDeletion(*edge, graceful=False))
            assert graceful.mis() == abrupt.mis()
        graceful.verify()
        abrupt.verify()


class TestUpdateWorkInstrumentation:
    def test_work_and_evaluations_are_recorded(self, small_random_graph):
        maintainer = DynamicMIS(seed=7, initial_graph=small_random_graph)
        works = []
        for change in mixed_churn_sequence(small_random_graph, 40, seed=8):
            report = maintainer.apply(change)
            works.append(report.update_work)
            assert report.update_work >= 0
            assert report.propagation.evaluations >= 0
            # Work counts neighbor inspections, so it is zero exactly when no
            # node re-evaluated its invariant.
            if report.propagation.evaluations == 0:
                assert report.update_work == 0
        assert maintainer.statistics.mean_update_work() == sum(works) / 40
        assert maintainer.statistics.changes.count("update_work") == 40

    def test_work_exceeds_influenced_size_on_dense_graphs(self):
        graph = generators.complete_graph(10)
        maintainer = DynamicMIS(seed=9, initial_graph=graph)
        victim = sorted(maintainer.mis(), key=repr)[0]
        report = maintainer.delete_node(victim)
        # The single influenced node forces inspecting Theta(Delta) neighbors.
        assert report.num_adjustments <= 2
        assert report.update_work >= graph.num_nodes() - 2


class TestMetricsBookkeeping:
    def test_adjusted_nodes_are_reported(self, small_random_graph):
        network = DirectMISNetwork(seed=10, initial_graph=small_random_graph)
        target = sorted(network.mis(), key=repr)[0]
        metrics = network.apply(NodeDeletion(target, graceful=False))
        assert len(metrics.adjusted_nodes) == metrics.adjustments
        assert target not in metrics.adjusted_nodes

    def test_change_kind_recorded_for_unmuting(self, small_random_graph):
        from repro.workloads.changes import NodeUnmuting

        network = BufferedMISNetwork(seed=11, initial_graph=small_random_graph)
        metrics = network.apply(
            NodeUnmuting("ghost", tuple(sorted(small_random_graph.nodes())[:2]))
        )
        assert metrics.change_kind == "node_unmuting"
        assert network.metrics.change_kinds() == ["node_unmuting"]
