"""Unit tests for the user-facing DynamicMIS maintainer."""

from __future__ import annotations

import pytest

from repro.core.dynamic_mis import DynamicMIS, MaintainerStatistics
from repro.core.greedy import greedy_mis
from repro.core.priorities import DeterministicPriorityAssigner
from repro.graph.validation import check_maximal_independent_set
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
)
from repro.workloads.sequences import mixed_churn_sequence


class TestBasicOperations:
    def test_empty_start(self):
        maintainer = DynamicMIS(seed=0)
        assert maintainer.mis() == set()
        assert maintainer.statistics.num_changes == 0

    def test_initial_graph(self, small_random_graph):
        maintainer = DynamicMIS(seed=1, initial_graph=small_random_graph)
        maintainer.verify()
        check_maximal_independent_set(maintainer.graph, maintainer.mis())

    def test_apply_dispatches_every_change_type(self):
        maintainer = DynamicMIS(seed=2)
        reports = [
            maintainer.apply(NodeInsertion("a")),
            maintainer.apply(NodeInsertion("b")),
            maintainer.apply(EdgeInsertion("a", "b")),
            maintainer.apply(EdgeDeletion("a", "b")),
            maintainer.apply(NodeUnmuting("c", ("a",))),
            maintainer.apply(NodeDeletion("b")),
        ]
        assert maintainer.statistics.num_changes == 6
        assert [report.change_type for report in reports] == [
            "node_insertion",
            "node_insertion",
            "edge_insertion",
            "edge_deletion",
            "node_insertion",
            "node_deletion",
        ]
        assert maintainer.statistics.changes.kinds() == [
            "node_insertion",
            "edge_insertion",
            "edge_deletion",
            "node_deletion",
        ]
        assert maintainer.statistics.changes.num_records("node_insertion") == 3
        maintainer.verify()

    def test_apply_unknown_change_type_raises(self):
        maintainer = DynamicMIS(seed=0)
        with pytest.raises(TypeError):
            maintainer.apply("not a change")

    def test_in_mis_accessor(self):
        maintainer = DynamicMIS(seed=0)
        maintainer.insert_node(1)
        assert maintainer.in_mis(1) is True

    def test_apply_sequence_returns_reports(self, small_random_graph):
        maintainer = DynamicMIS(seed=3, initial_graph=small_random_graph)
        sequence = mixed_churn_sequence(small_random_graph, 20, seed=4)
        reports = maintainer.apply_sequence(sequence)
        assert len(reports) == 20
        assert maintainer.statistics.num_changes == 20


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_churn_tracks_greedy_oracle(self, seed, medium_random_graph):
        maintainer = DynamicMIS(seed=seed, initial_graph=medium_random_graph)
        for change in mixed_churn_sequence(medium_random_graph, 120, seed=seed + 7):
            maintainer.apply(change)
            assert maintainer.mis() == greedy_mis(maintainer.graph, maintainer.priorities)
        maintainer.verify()

    def test_deterministic_priorities_give_deterministic_output(self, small_random_graph):
        runs = []
        for _ in range(2):
            maintainer = DynamicMIS(
                priorities=DeterministicPriorityAssigner(), initial_graph=small_random_graph
            )
            for change in mixed_churn_sequence(small_random_graph, 30, seed=5):
                maintainer.apply(change)
            runs.append(frozenset(maintainer.mis()))
        assert runs[0] == runs[1]


class TestStatistics:
    def test_statistics_accumulate(self, small_random_graph):
        maintainer = DynamicMIS(seed=4, initial_graph=small_random_graph)
        sequence = mixed_churn_sequence(small_random_graph, 50, seed=6)
        reports = maintainer.apply_sequence(sequence)
        stats = maintainer.statistics
        assert stats.num_changes == 50
        assert stats.mean_influenced_size() == sum(r.influenced_size for r in reports) / 50
        assert stats.mean_influenced_size() >= stats.mean_adjustments() - 1e-9
        assert stats.max_adjustments() >= 0
        assert stats.mean_propagation_depth() >= 0.0

    def test_empty_statistics(self):
        stats = MaintainerStatistics()
        assert stats.mean_adjustments() == 0.0
        assert stats.mean_influenced_size() == 0.0
        assert stats.max_adjustments() == 0

    def test_adjustments_never_exceed_influenced_size(self, small_random_graph):
        maintainer = DynamicMIS(seed=8, initial_graph=small_random_graph)
        for change in mixed_churn_sequence(small_random_graph, 60, seed=9):
            report = maintainer.apply(change)
            assert report.num_adjustments <= max(report.influenced_size, 1)


class TestClusteringView:
    def test_clustering_centers_are_mis_nodes(self, small_random_graph):
        maintainer = DynamicMIS(seed=5, initial_graph=small_random_graph)
        clusters = maintainer.clustering()
        mis = maintainer.mis()
        assert set(clusters) == set(maintainer.graph.nodes())
        assert set(clusters.values()) <= mis

    def test_clustering_follows_topology_changes(self, small_random_graph):
        maintainer = DynamicMIS(seed=6, initial_graph=small_random_graph)
        for change in mixed_churn_sequence(small_random_graph, 25, seed=3):
            maintainer.apply(change)
            clusters = maintainer.clustering()
            mis = maintainer.mis()
            for node, center in clusters.items():
                if node in mis:
                    assert center == node
                else:
                    assert center in mis
                    assert maintainer.graph.has_edge(node, center)
