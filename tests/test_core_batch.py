"""Tests for batched (simultaneous) topology changes -- the Section 6 extension.

Since the engine-API redesign, batch apply is a first-class method of every
backend (:meth:`repro.core.engine_api.MISEngine.apply_batch`), so the
correctness tests here run against *both* built-in engines; report-for-report
equality between them is covered by ``tests/conformance/``.
"""

from __future__ import annotations

import pytest

from repro.core.batch import apply_batch
from repro.core.dynamic_mis import DynamicMIS
from repro.core.greedy import greedy_mis
from repro.core.template import TemplateEngine
from repro.graph.dynamic_graph import GraphError
from repro.graph.validation import check_maximal_independent_set
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
)
from repro.workloads.sequences import mixed_churn_sequence


@pytest.fixture(params=["template", "fast"])
def engine_name(request) -> str:
    return request.param


def build_engine(engine_name: str, seed: int, initial_graph=None):
    """An engine backend built the way ``DynamicMIS`` builds it."""
    return DynamicMIS(seed=seed, initial_graph=initial_graph, engine=engine_name).engine


class TestBatchCorrectness:
    def test_empty_batch_changes_nothing(self, engine_name, small_random_graph):
        engine = build_engine(engine_name, 1, small_random_graph)
        before = engine.mis()
        report = apply_batch(engine, [])
        assert report.batch_size == 0
        assert report.influenced_size == 0
        assert engine.mis() == before

    def test_single_change_batch_matches_single_change_outputs(
        self, engine_name, small_random_graph
    ):
        sequence = mixed_churn_sequence(small_random_graph, 30, seed=2)
        batched = build_engine(engine_name, 3, small_random_graph)
        single = DynamicMIS(seed=3, initial_graph=small_random_graph, engine=engine_name)
        for change in sequence:
            apply_batch(batched, [change])
            single.apply(change)
            assert batched.mis() == single.mis()
        batched.verify()

    @pytest.mark.parametrize("batch_size", [2, 5, 10])
    def test_batched_churn_matches_greedy_recompute(
        self, engine_name, batch_size, medium_random_graph
    ):
        engine = build_engine(engine_name, 4, medium_random_graph)
        sequence = mixed_churn_sequence(medium_random_graph, 60, seed=5)
        for start in range(0, len(sequence), batch_size):
            batch = sequence[start : start + batch_size]
            engine.apply_batch(batch)
            engine.verify()
            graph = engine.graph.copy() if engine_name == "fast" else engine.graph
            assert engine.mis() == greedy_mis(graph, engine.priorities)
            check_maximal_independent_set(graph, engine.mis())

    def test_batch_with_all_change_types(self, engine_name, small_random_graph):
        engine = build_engine(engine_name, 6, small_random_graph)
        nodes = sorted(small_random_graph.nodes())
        some_edge = small_random_graph.edges()[0]
        missing = next(
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if not small_random_graph.has_edge(u, v) and (u, v) != some_edge
        )
        batch = [
            EdgeDeletion(*some_edge),
            EdgeInsertion(*missing),
            NodeInsertion("fresh", (nodes[0], nodes[1])),
            NodeUnmuting("ghost", ("fresh",)),
            NodeDeletion(nodes[-1]),
        ]
        report = engine.apply_batch(batch)
        engine.verify()
        assert report.batch_size == 5
        assert engine.graph.has_node("fresh")
        assert engine.graph.has_node("ghost")
        assert not engine.graph.has_node(nodes[-1])

    def test_batch_may_reference_nodes_created_in_the_same_batch(self, engine_name):
        engine = build_engine(engine_name, 7)
        report = engine.apply_batch(
            [
                NodeInsertion("a"),
                NodeInsertion("b"),
                EdgeInsertion("a", "b"),
            ]
        )
        engine.verify()
        assert engine.graph.has_edge("a", "b")
        assert len(engine.mis()) == 1
        assert report.num_adjustments == 1

    def test_invalid_change_in_batch_raises(self, engine_name, small_random_graph):
        engine = build_engine(engine_name, 8, small_random_graph)
        u, v = small_random_graph.edges()[0]
        nodes = sorted(small_random_graph.nodes(), key=repr)
        missing_edge = next(
            (a, b)
            for a in nodes
            for b in nodes
            if a != b and not small_random_graph.has_edge(a, b)
        )
        invalid = [
            EdgeInsertion(u, v),  # already present
            NodeDeletion("never-existed"),
            NodeInsertion("dup", ("missing-neighbor",)),
            EdgeInsertion(u, u),  # self-loop edge
            NodeInsertion("loop", (u, "loop")),  # self-loop neighbor
            NodeInsertion("twice", (u, v, u)),  # duplicate neighbors
            NodeInsertion(u, ()),  # existing node inserted again
            EdgeDeletion(*missing_edge),
        ]
        states_before = engine.states()
        edges_before = engine.graph.edges()
        for change in invalid:
            with pytest.raises(GraphError):
                # A valid change first: a failed batch must apply none of it.
                engine.apply_batch([NodeInsertion("newbie", (u,)), change])
            assert engine.states() == states_before, change
            assert engine.graph.edges() == edges_before, change
            assert not engine.graph.has_node("newbie"), change
        engine.verify()

    def test_invalid_batch_leaves_engine_untouched(self, engine_name, small_random_graph):
        """Validation runs up-front: a failing batch applies none of its deltas."""
        engine = build_engine(engine_name, 20, small_random_graph)
        states_before = engine.states()
        edges_before = engine.graph.num_edges()
        first_edge = small_random_graph.edges()[0]
        with pytest.raises(GraphError):
            # The first two changes are valid; the third is not.
            engine.apply_batch(
                [
                    EdgeDeletion(*first_edge),
                    NodeInsertion("newbie", ()),
                    NodeDeletion("never-existed"),
                ]
            )
        assert engine.states() == states_before
        assert engine.graph.num_edges() == edges_before
        assert engine.graph.has_edge(*first_edge)
        assert not engine.graph.has_node("newbie")
        engine.verify()

    def test_batch_validation_tracks_the_evolving_topology(self, engine_name):
        """validate_batch must accept changes that are only valid mid-batch."""
        engine = build_engine(engine_name, 21)
        engine.apply_batch([NodeInsertion("a"), NodeInsertion("b"), NodeInsertion("c")])
        # Valid: edge to a node created earlier in the same batch; edge deleted
        # then re-inserted; node deleted then re-inserted with a fresh edge.
        engine.apply_batch(
            [
                EdgeInsertion("a", "b"),
                EdgeDeletion("a", "b"),
                EdgeInsertion("a", "b"),
                NodeDeletion("c"),
                NodeInsertion("c", ("a",)),
            ]
        )
        engine.verify()
        # Invalid: the edge to "c" died with the deletion, so deleting it again fails.
        with pytest.raises(GraphError):
            engine.apply_batch(
                [NodeDeletion("c"), NodeInsertion("c"), EdgeDeletion("a", "c")]
            )
        engine.verify()
        assert engine.graph.has_edge("a", "c")  # untouched by the failed batch

    def test_insert_and_delete_same_node_in_one_batch(self, engine_name, small_random_graph):
        engine = build_engine(engine_name, 9, small_random_graph)
        before = engine.mis()
        report = engine.apply_batch(
            [
                NodeInsertion("temp", tuple(sorted(small_random_graph.nodes())[:2])),
                NodeDeletion("temp"),
            ]
        )
        engine.verify()
        assert not engine.graph.has_node("temp")
        assert engine.mis() == before
        assert report.num_adjustments == 0

    def test_delete_and_reinsert_same_label_in_one_batch(self, engine_name, small_random_graph):
        """Delete-then-reinsert of the same label inside one batch (free-list path)."""
        engine = build_engine(engine_name, 19, small_random_graph)
        victim = sorted(small_random_graph.nodes())[0]
        keep = sorted(small_random_graph.nodes())[1]
        engine.apply_batch([NodeDeletion(victim), NodeInsertion(victim, (keep,))])
        engine.verify()
        assert engine.graph.has_node(victim)
        graph = engine.graph.copy() if engine_name == "fast" else engine.graph
        assert engine.mis() == greedy_mis(graph, engine.priorities)


class TestBatchViaDynamicMIS:
    def test_dynamic_mis_apply_batch(self, engine_name, small_random_graph):
        maintainer = DynamicMIS(seed=10, initial_graph=small_random_graph, engine=engine_name)
        sequence = mixed_churn_sequence(small_random_graph, 20, seed=11)
        report = maintainer.apply_batch(sequence)
        maintainer.verify()
        assert report.batch_size == 20
        graph = maintainer.graph.copy() if engine_name == "fast" else maintainer.graph
        assert maintainer.mis() == greedy_mis(graph, maintainer.priorities)

    def test_batch_report_accessors(self, small_random_graph):
        maintainer = DynamicMIS(seed=12, initial_graph=small_random_graph)
        some_edge = maintainer.graph.edges()[0]
        report = maintainer.apply_batch([EdgeDeletion(*some_edge)])
        assert report.influenced_size >= 0
        assert report.num_levels >= 0
        assert report.influenced_set == set(report.influenced_labels)
        # The template backend attaches its full propagation trace.
        assert report.propagation is not None
        assert report.influenced_set == report.propagation.influenced
        assert report.seed_nodes  # the later endpoint was re-checked

    def test_fast_batch_report_has_no_propagation_trace(self, small_random_graph):
        maintainer = DynamicMIS(seed=12, initial_graph=small_random_graph, engine="fast")
        some_edge = maintainer.graph.edges()[0]
        report = maintainer.apply_batch([EdgeDeletion(*some_edge)])
        assert report.propagation is None
        assert report.influenced_set == set(report.influenced_labels)

    def test_batch_statistics_use_the_batch_channel(self, engine_name, small_random_graph):
        maintainer = DynamicMIS(seed=13, initial_graph=small_random_graph, engine=engine_name)
        report = maintainer.apply_batch(mixed_churn_sequence(small_random_graph, 10, seed=14))
        stats = maintainer.statistics
        # Batches are not folded into the single-change totals...
        assert stats.num_changes == 0
        assert stats.changes.kinds() == []
        # ...but land on the separate batch channel.
        assert stats.num_batches == 1
        assert stats.num_batched_changes == 10
        assert stats.batches.total("batch_size") == 10
        assert stats.batches.total("influenced_size") == report.influenced_size
        assert stats.batches.total("num_adjustments") == report.num_adjustments
        assert stats.batches.maximum("num_levels") == report.num_levels
        assert stats.mean_batch_adjustments_per_change() == report.num_adjustments / 10


class TestBatchEfficiency:
    def test_opposite_changes_cancel(self, engine_name, small_random_graph):
        """Inserting and deleting the same edge in one batch costs nothing."""
        engine = build_engine(engine_name, 15, small_random_graph)
        nodes = sorted(small_random_graph.nodes())
        missing = next(
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if not small_random_graph.has_edge(u, v)
        )
        report = engine.apply_batch([EdgeInsertion(*missing), EdgeDeletion(*missing)])
        assert report.num_adjustments == 0
        engine.verify()

    def test_batch_influenced_set_not_larger_than_sum_of_singles(
        self, engine_name, medium_random_graph
    ):
        sequence = mixed_churn_sequence(medium_random_graph, 40, seed=16)
        batched = build_engine(engine_name, 17, medium_random_graph)
        sequential = DynamicMIS(seed=17, initial_graph=medium_random_graph, engine=engine_name)
        batch_report = batched.apply_batch(sequence)
        total_single = sum(
            report.influenced_size for report in sequential.apply_sequence(sequence)
        )
        assert batched.mis() == sequential.mis()
        assert batch_report.influenced_size <= total_single + 1


def test_legacy_apply_batch_shim_still_drives_a_template_engine(small_random_graph):
    """repro.core.batch.apply_batch(engine, changes) keeps working."""
    engine = TemplateEngine(seed=18, initial_graph=small_random_graph)
    report = apply_batch(engine, mixed_churn_sequence(small_random_graph, 8, seed=18))
    engine.verify()
    assert report.batch_size == 8
