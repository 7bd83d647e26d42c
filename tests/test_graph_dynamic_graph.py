"""Unit tests for the mutable undirected graph store."""

from __future__ import annotations

import pytest

from repro.graph.dynamic_graph import DynamicGraph, GraphError, canonical_edge
from repro.graph.validation import check_graph_consistency


class TestConstruction:
    def test_empty_graph(self):
        graph = DynamicGraph()
        assert graph.num_nodes() == 0
        assert graph.num_edges() == 0
        assert graph.nodes() == []
        assert graph.edges() == []

    def test_nodes_only(self):
        graph = DynamicGraph(nodes=[1, 2, 3])
        assert graph.num_nodes() == 3
        assert graph.num_edges() == 0
        assert sorted(graph.nodes()) == [1, 2, 3]

    def test_nodes_and_edges(self):
        graph = DynamicGraph(nodes=[1, 2, 3], edges=[(1, 2), (2, 3)])
        assert graph.num_edges() == 2
        assert graph.has_edge(1, 2)
        assert graph.has_edge(3, 2)
        assert not graph.has_edge(1, 3)

    def test_edges_add_missing_endpoints(self):
        graph = DynamicGraph(edges=[("a", "b")])
        assert graph.has_node("a")
        assert graph.has_node("b")
        assert graph.num_edges() == 1

    def test_duplicate_edges_in_constructor_are_deduplicated(self):
        graph = DynamicGraph(edges=[(1, 2), (2, 1)])
        assert graph.num_edges() == 1


class TestCanonicalEdge:
    def test_orders_comparable_nodes(self):
        assert canonical_edge(2, 1) == (1, 2)
        assert canonical_edge(1, 2) == (1, 2)

    def test_handles_mixed_types_via_repr(self):
        edge_one = canonical_edge("x", 3)
        edge_two = canonical_edge(3, "x")
        assert edge_one == edge_two

    @pytest.mark.parametrize(
        "u, v",
        [
            (3, "m12"),
            ("m12", 3),
            (12, "3"),
            ("3", 12),
            (2.5, "a"),
            ("a", -0.5),
            (True, 1),
            (1, False),
            (10, 2.5),
            ((0, 1), (1, "x")),
            ((1, "x"), ("a", 0)),
            (("a", 0), (1, "x")),
            ((0, 1), 5),
            ("b", (0,)),
        ],
    )
    def test_matches_compare_then_repr_rule(self, u, v):
        """Pairs whose comparison raises (int/str both ways, float/str,
        tuples with unorderable items) order by ``repr``; bool/int and
        int/float compare."""
        try:
            expected = (u, v) if u <= v else (v, u)
        except TypeError:
            expected = (u, v) if repr(u) <= repr(v) else (v, u)
        assert canonical_edge(u, v) == expected
        assert canonical_edge(v, u) == expected


class TestMutations:
    def test_add_node_twice_raises(self):
        graph = DynamicGraph(nodes=[1])
        with pytest.raises(GraphError):
            graph.add_node(1)

    def test_add_edge_missing_endpoint_raises(self):
        graph = DynamicGraph(nodes=[1])
        with pytest.raises(GraphError):
            graph.add_edge(1, 2)

    def test_add_duplicate_edge_raises(self):
        graph = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        with pytest.raises(GraphError):
            graph.add_edge(2, 1)

    def test_self_loop_rejected(self):
        graph = DynamicGraph(nodes=[1])
        with pytest.raises(GraphError):
            graph.add_edge(1, 1)

    def test_remove_edge(self):
        graph = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        graph.remove_edge(2, 1)
        assert graph.num_edges() == 0
        assert not graph.has_edge(1, 2)

    def test_remove_missing_edge_raises(self):
        graph = DynamicGraph(nodes=[1, 2])
        with pytest.raises(GraphError):
            graph.remove_edge(1, 2)

    def test_remove_node_returns_old_neighbors(self):
        graph = DynamicGraph(nodes=[1, 2, 3], edges=[(1, 2), (1, 3)])
        neighbors = graph.remove_node(1)
        assert neighbors == frozenset({2, 3})
        assert graph.num_nodes() == 2
        assert graph.num_edges() == 0

    def test_remove_missing_node_raises(self):
        graph = DynamicGraph()
        with pytest.raises(GraphError):
            graph.remove_node(42)

    def test_add_node_with_edges(self):
        graph = DynamicGraph(nodes=[1, 2])
        graph.add_node_with_edges(3, [1, 2])
        assert graph.degree(3) == 2
        assert graph.has_edge(3, 1)

    def test_add_node_with_unknown_neighbor_raises(self):
        graph = DynamicGraph(nodes=[1])
        with pytest.raises(GraphError):
            graph.add_node_with_edges(2, [1, 99])

    def test_add_node_with_duplicate_neighbors_raises(self):
        graph = DynamicGraph(nodes=[1])
        with pytest.raises(GraphError):
            graph.add_node_with_edges(2, [1, 1])

    def test_add_node_with_self_neighbor_raises(self):
        graph = DynamicGraph(nodes=[1])
        with pytest.raises(GraphError):
            graph.add_node_with_edges(2, [2])

    def test_version_increases_on_mutation(self):
        graph = DynamicGraph()
        initial = graph.version
        graph.add_node(1)
        graph.add_node(2)
        graph.add_edge(1, 2)
        graph.remove_edge(1, 2)
        graph.remove_node(1)
        assert graph.version == initial + 5


class TestQueries:
    def test_degree_and_neighbors(self):
        graph = DynamicGraph(nodes=[1, 2, 3], edges=[(1, 2), (1, 3)])
        assert graph.degree(1) == 2
        assert graph.neighbors(1) == frozenset({2, 3})
        assert graph.degree(2) == 1

    def test_degree_of_missing_node_raises(self):
        graph = DynamicGraph()
        with pytest.raises(GraphError):
            graph.degree(1)

    def test_neighbors_of_missing_node_raises(self):
        graph = DynamicGraph()
        with pytest.raises(GraphError):
            graph.neighbors(1)

    def test_max_degree(self):
        graph = DynamicGraph(nodes=[1, 2, 3, 4], edges=[(1, 2), (1, 3), (1, 4)])
        assert graph.max_degree() == 3
        assert DynamicGraph().max_degree() == 0

    def test_contains_len_iter(self):
        graph = DynamicGraph(nodes=[1, 2, 3])
        assert 2 in graph
        assert 9 not in graph
        assert len(graph) == 3
        assert sorted(graph) == [1, 2, 3]

    def test_edges_are_canonical_and_unique(self):
        graph = DynamicGraph(nodes=[1, 2, 3], edges=[(3, 1), (2, 1)])
        assert graph.edges() == [(1, 2), (1, 3)]

    def test_repr_contains_counts(self):
        graph = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        assert "num_nodes=2" in repr(graph)
        assert "num_edges=1" in repr(graph)


class TestDerived:
    def test_copy_is_independent(self):
        graph = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        clone = graph.copy()
        clone.remove_edge(1, 2)
        assert graph.has_edge(1, 2)
        assert not clone.has_edge(1, 2)

    def test_equality_by_structure(self):
        first = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        second = DynamicGraph(nodes=[2, 1], edges=[(2, 1)])
        assert first == second
        second.add_node(3)
        assert first != second

    def test_equality_against_other_type(self):
        graph = DynamicGraph()
        assert graph.__eq__(42) is NotImplemented

    def test_subgraph(self):
        graph = DynamicGraph(nodes=[1, 2, 3, 4], edges=[(1, 2), (2, 3), (3, 4)])
        sub = graph.subgraph([1, 2, 3])
        assert sub.num_nodes() == 3
        assert sub.num_edges() == 2
        assert not sub.has_node(4)

    def test_subgraph_ignores_missing_nodes(self):
        graph = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        sub = graph.subgraph([1, 2, 99])
        assert sub.num_nodes() == 2

    def test_connected_components(self):
        graph = DynamicGraph(nodes=[1, 2, 3, 4, 5], edges=[(1, 2), (3, 4)])
        components = sorted(graph.connected_components(), key=lambda c: sorted(map(repr, c)))
        assert {1, 2} in components
        assert {3, 4} in components
        assert {5} in components

    def test_adjacency_dict_is_a_snapshot(self):
        graph = DynamicGraph(nodes=[1, 2], edges=[(1, 2)])
        snapshot = graph.adjacency_dict()
        graph.remove_edge(1, 2)
        assert snapshot[1] == frozenset({2})

    def test_consistency_check_passes(self):
        graph = DynamicGraph(nodes=range(6), edges=[(0, 1), (1, 2), (2, 3), (4, 5)])
        check_graph_consistency(graph)
