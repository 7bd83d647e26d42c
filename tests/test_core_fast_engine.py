"""Unit tests for the array-backed fast engine (interning, free list, views).

The step-by-step output equality with the template engine is covered by the
differential suite in ``tests/conformance/``; these tests pin down the fast
engine's own mechanics: id interning and free-list reuse, the graph view
facade, error paths, and the fast greedy reference used by the distributed
verification path.
"""

from __future__ import annotations

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.core.fast_engine import FastEngine, fast_greedy_mis
from repro.core.greedy import greedy_mis
from repro.core.invariant import InvariantViolation
from repro.core.priorities import RandomPriorityAssigner
from repro.graph.dynamic_graph import DynamicGraph, GraphError
from repro.graph.generators import erdos_renyi_graph, path_graph, star_graph


def test_bootstrap_matches_template_on_random_graph(any_seed: int) -> None:
    graph = erdos_renyi_graph(25, 0.2, seed=any_seed)
    fast = DynamicMIS(seed=any_seed, initial_graph=graph, engine="fast")
    template = DynamicMIS(seed=any_seed, initial_graph=graph, engine="template")
    assert fast.mis() == template.mis()
    assert fast.states() == template.states()
    fast.verify()


def test_engine_name_and_unknown_engine() -> None:
    assert DynamicMIS(engine="fast").engine_name == "fast"
    assert DynamicMIS().engine_name == "template"
    with pytest.raises(ValueError):
        DynamicMIS(engine="turbo")


def test_free_list_reuses_slots() -> None:
    engine = FastEngine(seed=1)
    for label in range(6):
        engine.insert_node(label)
    assert engine.capacity() == 6
    for label in (1, 3, 5):
        engine.delete_node(label)
    assert engine.free_slots() == 3
    # Re-inserting (same or fresh labels) must reuse freed slots, not grow.
    engine.insert_node(1)
    engine.insert_node("fresh")
    assert engine.capacity() == 6
    assert engine.free_slots() == 1
    engine.check_interning_invariants()
    engine.verify()


def test_restore_after_freed_slots_builds_a_dense_layout() -> None:
    """A restore interns the snapshot's labels as ids 0..n-1: no free slots."""
    engine = FastEngine(seed=1, initial_graph=erdos_renyi_graph(12, 0.3, seed=4))
    for label in (2, 5, 7):
        engine.delete_node(label)
    assert engine.free_slots() == 3 and engine.capacity() == 12
    engine.restore(engine.snapshot())
    assert engine.capacity() == engine.num_nodes() == 9
    assert engine.free_slots() == 0
    engine.check_interning_invariants()
    engine.verify()


def test_interning_is_sound_right_after_a_bootstrap() -> None:
    engine = FastEngine(seed=3, initial_graph=erdos_renyi_graph(30, 0.15, seed=8))
    engine.check_interning_invariants()
    assert engine.capacity() == engine.num_nodes() == 30
    assert engine.free_slots() == 0
    engine.verify()


def test_delete_then_reinsert_same_label_restores_priority() -> None:
    priorities = RandomPriorityAssigner(7)
    engine = FastEngine(priorities=priorities)
    engine.insert_node("v")
    key_before = priorities.key("v")
    engine.delete_node("v")
    assert not priorities.knows("v")
    engine.insert_node("v")
    assert priorities.key("v") == key_before
    assert engine.in_mis("v")


def test_error_paths_mirror_template() -> None:
    engine = FastEngine(seed=0)
    engine.insert_node("a")
    engine.insert_node("b")
    engine.insert_edge("a", "b")
    with pytest.raises(GraphError):
        engine.insert_edge("a", "b")
    with pytest.raises(GraphError):
        engine.insert_edge("a", "missing")
    with pytest.raises(GraphError):
        engine.insert_edge("a", "a")
    with pytest.raises(GraphError):
        engine.insert_node("a")
    with pytest.raises(GraphError):
        engine.insert_node("c", ["missing"])
    with pytest.raises(GraphError):
        engine.insert_node("c", ["a", "a"])
    with pytest.raises(GraphError):
        engine.delete_edge("a", "missing")
    with pytest.raises(GraphError):
        engine.delete_node("missing")
    engine.check_interning_invariants()


def test_verify_detects_corrupted_state() -> None:
    graph = path_graph(4)
    engine = FastEngine(seed=3, initial_graph=graph)
    engine.verify()
    victim = next(iter(engine.mis()))
    engine._state[engine._id_of[victim]] ^= 1
    with pytest.raises(InvariantViolation):
        engine.verify()


def test_graph_view_matches_dynamic_graph() -> None:
    graph = erdos_renyi_graph(15, 0.25, seed=4)
    engine = FastEngine(seed=4, initial_graph=graph)
    view = engine.graph
    assert view.num_nodes() == graph.num_nodes()
    assert view.num_edges() == graph.num_edges()
    assert sorted(view.nodes()) == sorted(graph.nodes())
    assert view.edges() == graph.edges()
    assert view.max_degree() == graph.max_degree()
    for node in graph.nodes():
        assert view.has_node(node)
        assert view.degree(node) == graph.degree(node)
        assert view.neighbors(node) == graph.neighbors(node)
        assert set(view.iter_neighbors(node)) == set(graph.iter_neighbors(node))
    assert len(view) == len(graph)
    assert set(view) == set(graph)
    assert ("x" in view) is False
    materialized = view.copy()
    assert isinstance(materialized, DynamicGraph)
    assert materialized == graph


def test_clustering_matches_template_view() -> None:
    graph = star_graph(5)
    fast = DynamicMIS(seed=2, initial_graph=graph, engine="fast")
    template = DynamicMIS(seed=2, initial_graph=graph, engine="template")
    assert fast.clustering() == template.clustering()
    fast.delete_node(0)  # drop the hub; every leaf becomes its own center
    template.delete_node(0)
    assert fast.clustering() == template.clustering()


def test_apply_batch_native_on_fast_engine() -> None:
    """The fast engine applies batches natively (no template fallback)."""
    from repro.workloads.changes import EdgeDeletion, NodeInsertion

    maintainer = DynamicMIS(seed=0, initial_graph=path_graph(3), engine="fast")
    empty = maintainer.apply_batch([])
    assert empty.batch_size == 0 and empty.influenced_size == 0
    report = maintainer.apply_batch([EdgeDeletion(0, 1), NodeInsertion("x", (0,))])
    maintainer.verify()
    maintainer.engine.check_interning_invariants()
    assert report.batch_size == 2
    assert report.propagation is None  # scalar counters only, no dict/set trace
    assert maintainer.statistics.num_batches == 2


def test_fast_greedy_mis_equals_dict_greedy(any_seed: int) -> None:
    graph = erdos_renyi_graph(30, 0.15, seed=any_seed)
    priorities = RandomPriorityAssigner(any_seed)
    for node in graph.nodes():
        priorities.assign(node)
    assert fast_greedy_mis(graph, priorities) == greedy_mis(graph, priorities)


@pytest.mark.slow
def test_fast_engine_large_graph_stress() -> None:
    """Thousands of churn changes on a 1500-node graph keep every invariant."""
    from repro.workloads.sequences import edge_churn_sequence, node_churn_sequence

    graph = erdos_renyi_graph(1500, 0.004, seed=1)
    changes = edge_churn_sequence(graph, 1700, seed=2)
    changes += node_churn_sequence(graph, 300, seed=2, attachment_probability=0.005)
    maintainer = DynamicMIS(seed=3, initial_graph=graph, engine="fast")
    maintainer.apply_sequence(changes)
    maintainer.verify()
    maintainer._engine.check_interning_invariants()
    assert maintainer.statistics.num_changes == len(changes)


def test_distributed_verify_accepts_fast_reference() -> None:
    from repro.distributed.protocol_mis import BufferedMISNetwork

    graph = erdos_renyi_graph(12, 0.3, seed=5)
    network = BufferedMISNetwork(seed=5, initial_graph=graph)
    network.verify(reference_engine="fast")
    network.verify(reference_engine="template")
    with pytest.raises(ValueError):
        network.verify(reference_engine="turbo")


def test_batches_replay_identically_after_restore() -> None:
    """``restore`` re-interns densely; the same batches then replay to the
    same reports and states."""
    from repro.core.engine_api import BATCH_REPORT_FIELDS
    from repro.testing.differential import conformance_workload, split_into_batches

    graph, changes = conformance_workload(5, num_changes=48, start_nodes=18)
    engine = FastEngine(seed=5, initial_graph=graph)
    batches = split_into_batches(changes, seed=5, max_batch=8)
    half = len(batches) // 2
    for batch in batches[:half]:  # churn the free list before the snapshot
        engine.apply_batch(batch)
    rewind = engine.snapshot()

    def replay():
        reports = [engine.apply_batch(batch) for batch in batches[half:]]
        engine.check_interning_invariants()
        engine.verify()
        outcome = [
            (tuple(getattr(report, f) for f in BATCH_REPORT_FIELDS), report.influenced_set)
            for report in reports
        ]
        return outcome, engine.states()

    first = replay()
    assert any(fields[2] for fields, _ in first[0]), "the replayed half adjusted nothing"
    engine.restore(rewind)
    engine.check_interning_invariants()
    assert replay() == first
