"""Property-based tests (hypothesis) on the core data structures and invariants.

Strategy: random graphs and random change scripts are generated by hypothesis;
every property is something the paper (or basic graph theory) guarantees for
*all* inputs, so shrinking failures directly exposes algorithmic bugs.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.dynamic_mis import DynamicMIS
from repro.core.engine_api import BATCH_REPORT_FIELDS
from repro.core.greedy import greedy_mis
from repro.core.priorities import RandomPriorityAssigner
from repro.distributed.protocol_direct import DirectMISNetwork
from repro.graph.dynamic_graph import DynamicGraph, GraphError
from repro.graph.line_graph import LineGraphView, line_graph_of
from repro.graph.validation import (
    check_graph_consistency,
    check_maximal_independent_set,
    check_maximal_matching,
)
from repro.matching.dynamic_matching import DynamicMaximalMatching
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
    apply_change_to_graph,
    validate_batch,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
MAX_NODES = 10


@st.composite
def graphs(draw, max_nodes: int = MAX_NODES) -> DynamicGraph:
    """A random simple graph on 0..n-1 with an arbitrary subset of edges."""
    num_nodes = draw(st.integers(min_value=0, max_value=max_nodes))
    possible_edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    chosen = draw(st.lists(st.sampled_from(possible_edges), unique=True)) if possible_edges else []
    return DynamicGraph(nodes=range(num_nodes), edges=chosen)


@st.composite
def graphs_with_seed(draw) -> Tuple[DynamicGraph, int]:
    return draw(graphs()), draw(st.integers(min_value=0, max_value=10_000))


@st.composite
def change_scripts(draw) -> Tuple[DynamicGraph, int, List]:
    """A starting graph plus a short valid script of mixed topology changes."""
    graph = draw(graphs(max_nodes=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    working = graph.copy()
    script: List = []
    fresh = 0
    num_steps = draw(st.integers(min_value=0, max_value=12))
    for _ in range(num_steps):
        nodes = sorted(working.nodes(), key=repr)
        options = ["insert_node"]
        if len(nodes) >= 2:
            options.append("insert_edge")
            options.append("delete_node")
        if working.num_edges() > 0:
            options.append("delete_edge")
        action = draw(st.sampled_from(options))
        if action == "insert_node":
            fresh += 1
            name = f"h{fresh}"
            neighbors = tuple(draw(st.lists(st.sampled_from(nodes), unique=True))) if nodes else ()
            change = NodeInsertion(name, neighbors)
        elif action == "insert_edge":
            missing = [
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1 :]
                if not working.has_edge(u, v)
            ]
            if not missing:
                continue
            change = EdgeInsertion(*draw(st.sampled_from(missing)))
        elif action == "delete_edge":
            change = EdgeDeletion(*draw(st.sampled_from(working.edges())))
        else:
            change = NodeDeletion(draw(st.sampled_from(nodes)), graceful=draw(st.booleans()))
        from repro.workloads.changes import apply_change_to_graph

        apply_change_to_graph(working, change)
        script.append(change)
    return graph, seed, script


COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Graph-level properties
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(graphs())
def test_generated_graphs_are_consistent(graph):
    check_graph_consistency(graph)
    assert graph.num_edges() == len(graph.edges())


@COMMON_SETTINGS
@given(graphs())
def test_line_graph_node_count_equals_edge_count(graph):
    line = line_graph_of(graph)
    assert line.num_nodes() == graph.num_edges()
    check_graph_consistency(line)


@COMMON_SETTINGS
@given(graphs_with_seed())
def test_greedy_mis_is_always_a_maximal_independent_set(graph_and_seed):
    graph, seed = graph_and_seed
    assigner = RandomPriorityAssigner(seed)
    for node in graph.nodes():
        assigner.assign(node)
    check_maximal_independent_set(graph, greedy_mis(graph, assigner))


@COMMON_SETTINGS
@given(graphs_with_seed())
def test_greedy_mis_is_invariant_under_id_relabelled_assignment_order(graph_and_seed):
    """Assigning priorities in different orders never changes the output."""
    graph, seed = graph_and_seed
    forward = RandomPriorityAssigner(seed)
    backward = RandomPriorityAssigner(seed)
    for node in graph.nodes():
        forward.assign(node)
    for node in reversed(graph.nodes()):
        backward.assign(node)
    assert greedy_mis(graph, forward) == greedy_mis(graph, backward)


# ----------------------------------------------------------------------
# Dynamic maintainer properties
# ----------------------------------------------------------------------
@COMMON_SETTINGS
@given(change_scripts())
def test_dynamic_mis_always_matches_recompute(script_case):
    graph, seed, script = script_case
    maintainer = DynamicMIS(seed=seed, initial_graph=graph)
    for change in script:
        report = maintainer.apply(change)
        assert report.num_adjustments <= max(1, report.influenced_size)
        maintainer.verify()
        assert maintainer.mis() == greedy_mis(maintainer.graph, maintainer.priorities)
        check_maximal_independent_set(maintainer.graph, maintainer.mis())


@COMMON_SETTINGS
@given(change_scripts())
def test_history_independence_property(script_case):
    """Replaying any script and then rebuilding the final graph from scratch
    gives the same MIS (Definition 14, exact per-seed form)."""
    graph, seed, script = script_case
    maintainer = DynamicMIS(seed=seed, initial_graph=graph)
    maintainer.apply_sequence(script)
    fresh = DynamicMIS(seed=seed, initial_graph=maintainer.graph)
    assert maintainer.mis() == fresh.mis()


@COMMON_SETTINGS
@given(change_scripts())
def test_direct_distributed_protocol_matches_sequential_semantics(script_case):
    graph, seed, script = script_case
    network = DirectMISNetwork(seed=seed, initial_graph=graph)
    sequential = DynamicMIS(seed=seed, initial_graph=graph)
    for change in script:
        network.apply(change)
        sequential.apply(change)
        assert network.mis() == sequential.mis()
    network.verify()


@COMMON_SETTINGS
@given(change_scripts())
def test_dynamic_matching_is_always_a_maximal_matching(script_case):
    graph, seed, script = script_case
    matcher = DynamicMaximalMatching(seed=seed, initial_graph=graph)
    for change in script:
        matcher.apply(change)
    check_maximal_matching(matcher.graph, matcher.matching())
    # The derived line graph stays consistent with a from-scratch rebuild.
    assert matcher.line_graph == line_graph_of(matcher.graph)


@COMMON_SETTINGS
@given(graphs_with_seed())
def test_line_graph_view_incremental_equals_batch(graph_and_seed):
    graph, _ = graph_and_seed
    view = LineGraphView()
    for node in graph.nodes():
        view.add_node(node)
    for u, v in graph.edges():
        view.add_edge(u, v)
    assert view.line_graph == line_graph_of(graph)
    # Remove everything again; the line graph must empty out.
    for u, v in graph.edges():
        view.remove_edge(u, v)
    assert view.line_graph.num_nodes() == 0


@COMMON_SETTINGS
@given(graphs_with_seed())
def test_mis_size_between_clique_cover_bounds(graph_and_seed):
    """Any MIS has size at least n / (Delta + 1) and at most n."""
    graph, seed = graph_and_seed
    if graph.num_nodes() == 0:
        return
    assigner = RandomPriorityAssigner(seed)
    for node in graph.nodes():
        assigner.assign(node)
    mis = greedy_mis(graph, assigner)
    assert len(mis) >= graph.num_nodes() / (graph.max_degree() + 1)
    assert len(mis) <= graph.num_nodes()


# ----------------------------------------------------------------------
# Fast-engine properties (interleaved churn with label reuse)
# ----------------------------------------------------------------------
@st.composite
def interleaved_churn_scripts(draw) -> Tuple[int, List]:
    """Node/edge insert-delete interleavings over a small recycled label pool.

    Labels come from a fixed pool, so deleting a node and later re-inserting
    the *same* label (the fast engine's free-list + re-interning path) is a
    common occurrence, not a corner case.  Scripts start from the empty graph
    and are valid by construction.
    """
    from repro.workloads.changes import apply_change_to_graph

    seed = draw(st.integers(min_value=0, max_value=10_000))
    pool = [f"r{i}" for i in range(6)]
    working = DynamicGraph()
    script: List = []
    num_steps = draw(st.integers(min_value=1, max_value=24))
    for _ in range(num_steps):
        present = sorted(working.nodes(), key=repr)
        absent = [label for label in pool if not working.has_node(label)]
        options = []
        if absent:
            options.append("insert_node")
        if present:
            options.append("delete_node")
        missing_edges = [
            (u, v)
            for i, u in enumerate(present)
            for v in present[i + 1 :]
            if not working.has_edge(u, v)
        ]
        if missing_edges:
            options.append("insert_edge")
        if working.num_edges() > 0:
            options.append("delete_edge")
        action = draw(st.sampled_from(options))
        if action == "insert_node":
            label = draw(st.sampled_from(absent))
            neighbors = (
                tuple(draw(st.lists(st.sampled_from(present), unique=True))) if present else ()
            )
            change = NodeInsertion(label, neighbors)
        elif action == "delete_node":
            change = NodeDeletion(draw(st.sampled_from(present)), graceful=draw(st.booleans()))
        elif action == "insert_edge":
            change = EdgeInsertion(*draw(st.sampled_from(missing_edges)))
        else:
            change = EdgeDeletion(*draw(st.sampled_from(working.edges())))
        apply_change_to_graph(working, change)
        script.append(change)
    return seed, script


@COMMON_SETTINGS
@given(interleaved_churn_scripts())
def test_fast_engine_invariants_after_every_change(script_case):
    """Free-list/interning bookkeeping and the MIS invariant hold at every step."""
    seed, script = script_case
    maintainer = DynamicMIS(seed=seed, engine="fast")
    engine = maintainer._engine
    peak_live = 0
    for change in script:
        maintainer.apply(change)
        peak_live = max(peak_live, engine.num_nodes())
        engine.check_interning_invariants()
        maintainer.verify()
        # Slot recycling: the arrays never outgrow the historical peak.
        assert engine.capacity() <= peak_live
        assert engine.capacity() == engine.num_nodes() + engine.free_slots()


@COMMON_SETTINGS
@given(interleaved_churn_scripts(), st.integers(min_value=1, max_value=6))
def test_fixed_size_batches_equal_template(script_case, batch_size):
    """Fixed-size batches of a churn script report exactly what the
    template reports."""
    seed, script = script_case
    fast = DynamicMIS(seed=seed, engine="fast")
    template = DynamicMIS(seed=seed, engine="template")
    for start in range(0, len(script), batch_size):
        batch = script[start : start + batch_size]
        expected, actual = template.apply_batch(batch), fast.apply_batch(batch)
        for field in BATCH_REPORT_FIELDS:
            assert getattr(actual, field) == getattr(expected, field), field
        assert actual.influenced_set == expected.influenced_set
        assert fast.mis() == template.mis()
    fast.engine.check_interning_invariants()
    fast.verify()


@COMMON_SETTINGS
@given(interleaved_churn_scripts())
def test_fast_engine_mis_is_maximal_independent_after_every_change(script_case):
    seed, script = script_case
    maintainer = DynamicMIS(seed=seed, engine="fast")
    for change in script:
        maintainer.apply(change)
        graph = maintainer.graph.copy()  # materialized DynamicGraph snapshot
        check_maximal_independent_set(graph, maintainer.mis())
        assert maintainer.mis() == greedy_mis(graph, maintainer.priorities)


@COMMON_SETTINGS
@given(interleaved_churn_scripts())
def test_fast_engine_stepwise_equals_template(script_case):
    seed, script = script_case
    fast = DynamicMIS(seed=seed, engine="fast")
    template = DynamicMIS(seed=seed, engine="template")
    for change in script:
        fast_report = fast.apply(change)
        template_report = template.apply(change)
        assert fast_report.num_adjustments == template_report.num_adjustments
        assert fast_report.influenced_size == template_report.influenced_size
        assert fast.mis() == template.mis()
        assert fast.clustering() == template.clustering()


@COMMON_SETTINGS
@given(interleaved_churn_scripts())
def test_fast_engine_delete_then_reinsert_is_history_independent(script_case):
    """Rebuilding the final graph from scratch reproduces the fast engine's MIS."""
    seed, script = script_case
    maintainer = DynamicMIS(seed=seed, engine="fast")
    maintainer.apply_sequence(script)
    rebuilt = DynamicMIS(seed=seed, initial_graph=maintainer.graph.copy(), engine="fast")
    assert maintainer.mis() == rebuilt.mis()
    assert maintainer.states() == rebuilt.states()


@COMMON_SETTINGS
@given(interleaved_churn_scripts())
def test_apply_batch_reaches_apply_sequence_states_on_both_engines(script_case):
    """One atomic batch lands on exactly the states of one-at-a-time application.

    The whole generated script is applied twice per backend -- once through
    ``apply_sequence`` and once, after a snapshot/restore rewind, through
    ``apply_batch`` -- and the final state maps must coincide on both the
    template and the fast engine (and between them).
    """
    seed, script = script_case
    final_states = {}
    for engine in ("template", "fast"):
        maintainer = DynamicMIS(seed=seed, engine=engine)
        rewind = maintainer.engine.snapshot()
        maintainer.apply_sequence(script)
        sequential = maintainer.states()
        maintainer.engine.restore(rewind)
        report = maintainer.engine.apply_batch(script)
        assert maintainer.states() == sequential
        assert report.batch_size == len(script)
        maintainer.verify()
        final_states[engine] = sequential
    assert final_states["template"] == final_states["fast"]


# ----------------------------------------------------------------------
# Batch validation against one-at-a-time application
# ----------------------------------------------------------------------
@st.composite
def batches_that_may_fail(draw) -> Tuple[DynamicGraph, List]:
    """A small graph plus a batch of every change kind, valid or not.

    Labels come from a pool of six that the graph only partly uses.  Most
    changes are drawn valid for the topology the batch has reached so far,
    and insertions favor labels the batch deleted, so batches delete a label,
    re-insert it with new neighbors and go on to use its edges.  Up to two
    changes per batch are drawn blindly from the pool instead: missing
    nodes, self loops, duplicate neighbors, existing or absent edges.
    """
    graph = draw(graphs(max_nodes=5))
    pool = list(range(6))
    working = graph.copy()
    length = draw(st.integers(min_value=1, max_value=10))
    blind = draw(st.sets(st.integers(min_value=0, max_value=length - 1), max_size=2))
    deleted: List[int] = []
    changed: Set[Tuple[int, int]] = set()
    changes: List = []
    for position in range(length):
        present = sorted(working.nodes())
        absent = [label for label in pool if not working.has_node(label)]
        returning = [label for label in deleted if label in absent]
        missing = [
            (u, v)
            for i, u in enumerate(present)
            for v in present[i + 1 :]
            if not working.has_edge(u, v)
        ]
        valid = position not in blind
        possible = {
            "edge_insertion": missing,
            "edge_deletion": working.num_edges(),
            "node_insertion": absent,
            "node_unmuting": absent,
            "node_deletion": present,
        }
        kind = draw(st.sampled_from([kind for kind in possible if possible[kind] or not valid]))
        if kind in ("edge_insertion", "edge_deletion"):
            inserting = kind == "edge_insertion"
            if valid:
                candidates = missing if inserting else working.edges()
            else:
                candidates = [(u, v) for u in pool for v in pool]
            # Revisiting an edge the batch already changed, across a deletion
            # and re-insertion of an endpoint, is the case an overlay gets wrong.
            revisits = [pair for pair in candidates if tuple(sorted(pair)) in changed]
            u, v = draw(st.sampled_from(revisits if revisits and draw(st.booleans()) else candidates))
            changed.add(tuple(sorted((u, v))))
            change = EdgeInsertion(u, v) if inserting else EdgeDeletion(u, v)
        elif kind == "node_deletion":
            choices = present if valid else pool
            ends = [node for node in choices if any(node in pair for pair in changed)]
            node = draw(st.sampled_from(ends if ends and draw(st.booleans()) else choices))
            change = NodeDeletion(node, graceful=draw(st.booleans()))
        else:
            cls = NodeInsertion if kind == "node_insertion" else NodeUnmuting
            if valid:
                node = draw(st.sampled_from(returning or absent))
                neighbors = draw(st.lists(st.sampled_from(present), unique=True)) if present else []
            else:
                node = draw(st.sampled_from(pool))
                neighbors = draw(st.lists(st.sampled_from(pool), max_size=4))
            change = cls(node, tuple(neighbors))
        try:
            apply_change_to_graph(working, change)
        except GraphError:
            pass  # an invalid change leaves the topology as it was
        else:
            if isinstance(change, NodeDeletion):
                deleted.append(change.node)
        changes.append(change)
    return graph, changes


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(batches_that_may_fail())
# An edge change, then a deletion of one endpoint: the edge's fate is now
# decided by what the endpoint is re-inserted with, not by that edge change.
@example((DynamicGraph(nodes=[0, 1]), [
    EdgeInsertion(0, 1), NodeDeletion(0), NodeInsertion(0, ()), EdgeInsertion(0, 1),
]))
@example((DynamicGraph(nodes=[0, 1], edges=[(0, 1)]), [
    EdgeDeletion(0, 1), NodeDeletion(1), NodeUnmuting(1, (0,)), EdgeDeletion(0, 1),
]))
@example((DynamicGraph(nodes=[0, 1]), [EdgeInsertion(0, 1), NodeDeletion(0), EdgeDeletion(0, 1)]))
def test_validate_batch_raises_exactly_when_one_at_a_time_application_does(case):
    """The batch overlay agrees with applying the changes to a copy in turn."""
    graph, changes = case
    copy = graph.copy()
    try:
        for change in changes:
            apply_change_to_graph(copy, change)
        expected = None
    except GraphError as error:
        expected = error
    for target in (graph, DynamicMIS(seed=0, initial_graph=graph, engine="fast").engine):
        try:
            validate_batch(target, changes)
            raised = None
        except GraphError as error:
            raised = error
        assert (raised is None) == (expected is None), (changes, raised, expected)
