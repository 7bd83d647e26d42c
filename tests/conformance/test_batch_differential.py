"""Batched differential conformance: fast-engine batches must equal template batches.

The fast engine's native :meth:`~repro.core.fast_engine.FastEngine.apply_batch`
(flat-array graph deltas, then the single-change walk seeded with every node
the batch touched) re-implements the batched Section 6 extension from
scratch, so -- exactly like the single-change path -- it is only acceptable
if it is report-for-report identical to the template's batch apply.
:func:`repro.testing.differential.replay_batch_differential` checks per
batch: every cost counter of
:data:`~repro.core.engine_api.BATCH_REPORT_FIELDS`, influenced-set and
seed-node membership, MIS sets, clustering views, and (via engine
``snapshot()``/``restore()``) that batched application agrees with
one-at-a-time application of the same changes.

The file also registers a toy third backend -- a recompute-based
``RecomputeReferenceEngine`` -- through the *public* registry alone and runs
it through both replay harnesses, demonstrating (and pinning down) that new
backends need zero edits to ``dynamic_mis.py`` or any other core module.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Sequence, Set

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.core.engine_api import (
    BATCH_REPORT_FIELDS,
    BatchUpdateReport,
    EngineSnapshot,
    MISEngine,
    register_engine,
    unregister_engine,
)
from repro.core.greedy import greedy_mis_states
from repro.core.priorities import DeterministicPriorityAssigner
from repro.core.rng import spawn_seeds
from repro.core.template import TemplateEngine
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    bipartite_sides,
    complete_bipartite_graph,
    disjoint_paths_graph,
    erdos_renyi_graph,
    preferential_attachment_graph,
    star_graph,
)
from repro.testing.differential import (
    REPORT_FIELDS,
    ConformanceMismatch,
    conformance_workload,
    replay_batch_differential,
    split_into_batches,
)
from repro.workloads.sequences import (
    edge_churn_sequence,
    mixed_churn_sequence,
    node_churn_sequence,
)

Node = Hashable

MASTER_SEED = 20260730
# >= 25 seeds in tier-1: the acceptance bar for the native fast batch path.
BATCH_SUITE_SEEDS = spawn_seeds(MASTER_SEED, 25)


# ----------------------------------------------------------------------
# Tier-1: template vs fast over 25 seeded batched sequences
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS)
def test_batched_replay_template_vs_fast(seed: int) -> None:
    graph, changes = conformance_workload(seed, num_changes=40, start_nodes=18)
    result = replay_batch_differential(graph, changes, seed=seed, max_batch=8)
    assert result.num_changes == 40
    assert result.engines == ("template", "fast")


def test_batched_replay_pure_edge_churn() -> None:
    graph = star_graph(8)
    changes = edge_churn_sequence(graph, 60, seed=3)
    replay_batch_differential(graph, changes, seed=3, max_batch=12)


def test_batched_replay_node_churn_reuses_labels() -> None:
    graph = star_graph(6)
    changes = node_churn_sequence(graph, 60, seed=4, insert_probability=0.5)
    replay_batch_differential(graph, changes, seed=4, max_batch=6)


def test_split_into_batches_partitions_the_sequence() -> None:
    graph, changes = conformance_workload(7, num_changes=30, start_nodes=12)
    batches = split_into_batches(changes, seed=7, max_batch=5)
    flattened = [change for batch in batches for change in batch]
    assert flattened == list(changes)
    assert all(1 <= len(batch) <= 5 for batch in batches)


def _earliest_newcomer_seed(leaves) -> int:
    """A seed under which node ``"x"`` comes before every leaf in ``pi``."""
    from repro.core.priorities import RandomPriorityAssigner

    for seed in range(2000):
        assigner = RandomPriorityAssigner(seed)
        newcomer_key = assigner.assign("x")
        if all(newcomer_key < assigner.assign(leaf) for leaf in leaves):
            return seed
    raise AssertionError("no seed makes 'x' earliest; widen the search")


@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS[:5])
def test_batches_interleaved_with_single_changes_match_the_template(seed: int) -> None:
    """Batches and single changes share one engine state, report for report.

    Batches alternate with runs of single-change ``apply`` calls, whose
    interning (fresh slots, free-list reuse) the next batch's walk reads.
    """
    graph, changes = conformance_workload(seed, num_changes=60, start_nodes=18)
    template, fast = (
        DynamicMIS(seed=seed, initial_graph=graph, engine=name) for name in ("template", "fast")
    )
    for index, batch in enumerate(split_into_batches(changes, seed=seed, max_batch=8)):
        if index % 2:
            for change in batch:
                expected, actual = template.apply(change), fast.apply(change)
                for field in REPORT_FIELDS:
                    assert getattr(actual, field) == getattr(expected, field), field
                assert actual.influenced_set == expected.influenced_set
        else:
            expected, actual = template.apply_batch(batch), fast.apply_batch(batch)
            for field in BATCH_REPORT_FIELDS:
                assert getattr(actual, field) == getattr(expected, field), field
            assert actual.influenced_set == expected.influenced_set
            assert actual.seed_nodes == expected.seed_nodes
        fast.engine.check_interning_invariants()
        assert fast.mis() == template.mis()
        assert fast.clustering() == template.clustering()
    template.verify()
    fast.verify()


def test_100_flip_levels_match_the_template() -> None:
    """A 100-flip repair level, in an insert batch and in a delete batch.

    100 isolated nodes are all in the MIS; inserting a node adjacent to all
    of them under a seed where the newcomer is *earliest* makes it join and
    evicts every neighbor in one level; deleting it again brings them all
    back in one level.
    """
    from repro.workloads.changes import NodeDeletion, NodeInsertion

    leaves = list(range(100))
    found = _earliest_newcomer_seed(leaves)
    graph = DynamicGraph(nodes=leaves)
    template = DynamicMIS(seed=found, initial_graph=graph, engine="template")
    fast = DynamicMIS(seed=found, initial_graph=graph, engine="fast")
    insert, delete = [NodeInsertion("x", tuple(leaves))], [NodeDeletion("x")]
    for batch in (insert, delete):
        expected, actual = template.apply_batch(batch), fast.apply_batch(batch)
        for field in BATCH_REPORT_FIELDS:
            assert getattr(actual, field) == getattr(expected, field), field
        assert actual.influenced_set == expected.influenced_set
        assert actual.num_adjustments >= 100
        assert fast.mis() == template.mis()
        if batch is insert:
            # x joins the MIS and evicts all 100 leaves, in both engines.
            assert fast.mis() == {"x"}
            assert expected.num_adjustments == actual.num_adjustments == 101
            assert expected.num_levels == actual.num_levels == 2
        template.verify()
        fast.verify()
    assert fast.mis() == set(leaves)


def _batch_on_both(template: DynamicMIS, fast: DynamicMIS, batch) -> BatchUpdateReport:
    """Apply ``batch`` to both engines, assert they agree report for report,
    and return the template's report (its ``propagation`` holds the levels)."""
    expected, actual = template.apply_batch(batch), fast.apply_batch(batch)
    for field in BATCH_REPORT_FIELDS:
        assert getattr(actual, field) == getattr(expected, field), field
    assert actual.influenced_set == expected.influenced_set
    assert actual.seed_nodes == expected.seed_nodes
    assert fast.mis() == template.mis()
    assert fast.clustering() == template.clustering()
    return expected


@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS)
def test_whole_side_swaps_match_the_template(seed: int) -> None:
    """The 25-seed bar on 66-flip repair levels, which seeded churn never reaches.

    In ``K_{66,66}`` the MIS is the whole side that holds the earliest node.
    Deleting that side in one batch makes every node of the other side a
    seed, and all 66 join in one level.  A fresh side of new labels (so new
    priorities) is then inserted against the survivors in one batch, and
    takes the MIS over whenever it holds the new earliest node.
    """
    from repro.workloads.changes import NodeDeletion, NodeInsertion

    side = 66
    graph = complete_bipartite_graph(side, side)
    template, fast = (
        DynamicMIS(seed=seed, initial_graph=graph, engine=name) for name in ("template", "fast")
    )
    sides = [set(part) for part in bipartite_sides(side, side)]
    for round_ in range(1, 4):
        winners = template.mis()
        assert winners in sides
        (survivors,) = [part for part in sides if part != winners]
        report = _batch_on_both(template, fast, [NodeDeletion(node) for node in winners])
        assert report.seed_nodes == survivors
        assert report.propagation.levels == [survivors]
        assert fast.mis() == survivors
        fresh = {round_ * 1000 + index for index in range(side)}
        neighbors = tuple(sorted(survivors))
        _batch_on_both(template, fast, [NodeInsertion(node, neighbors) for node in sorted(fresh)])
        sides = [survivors, fresh]
        fast.engine.check_interning_invariants()
        template.verify()
        fast.verify()


def _cascade_bursts(graph: DynamicGraph, bursts: int, burst_size: int, seed: int):
    """Delete/re-insert bursts in the shape of the ``cascade`` benchmark.

    Each burst is two batches: one deletes ``burst_size`` distinct nodes,
    alternately drawn uniformly and by degree (an endpoint of a random
    edge, so hubs are hit), and the next brings them back in reverse order
    with the neighbors each had when it went.  Every burst restores the
    starting graph exactly.
    """
    from repro.workloads.changes import NodeDeletion, NodeInsertion

    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    edges = sorted(graph.edges())
    batches = []
    for _ in range(bursts):
        victims: List[Node] = []
        while len(victims) < burst_size:
            node = rng.choice(rng.choice(edges)) if len(victims) % 2 else rng.choice(nodes)
            if node not in victims:
                victims.append(node)
        work = graph.copy()
        lost = {}
        for node in victims:
            lost[node] = tuple(sorted(work.remove_node(node)))
        batches.append([NodeDeletion(node) for node in victims])
        batches.append([NodeInsertion(node, lost[node]) for node in reversed(victims)])
    return batches


@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS[:10])
def test_cascade_bursts_match_the_template(seed: int) -> None:
    """Whole-burst delete and re-insert batches on a hub-heavy graph.

    Every burst puts the graph back as it was, so history independence
    also pins the MIS after each burst to the starting one.
    """
    graph = preferential_attachment_graph(120, 3, seed=seed)
    template, fast = (
        DynamicMIS(seed=seed, initial_graph=graph, engine=name) for name in ("template", "fast")
    )
    start = fast.mis()
    batches = _cascade_bursts(graph, bursts=3, burst_size=16, seed=seed)
    for index, batch in enumerate(batches):
        _batch_on_both(template, fast, batch)
        if index % 2:
            assert fast.mis() == start
    assert fast.graph.copy() == graph
    fast.engine.check_interning_invariants()
    template.verify()
    fast.verify()


@pytest.mark.parametrize("max_batch", [16, 32, 64])
def test_long_replays_in_large_batches_match_the_template(max_batch: int) -> None:
    """Batches of up to ``max_batch`` changes start one walk from many seeds."""
    graph, changes = conformance_workload(11, num_changes=160, start_nodes=32)
    result = replay_batch_differential(graph, changes, seed=11, max_batch=max_batch)
    assert result.num_changes == 160


def _string_labelled(graph: DynamicGraph) -> DynamicGraph:
    def name(node):
        return f"v{node}"

    return DynamicGraph(
        nodes=[name(node) for node in graph.nodes()],
        edges=[(name(u), name(v)) for u, v in graph.edges()],
    )


def _float_ties_at(maintainer: DynamicMIS, nodes) -> int:
    """Edges at the live ``nodes`` whose endpoints' float priority parts tie."""
    graph, key = maintainer.graph, maintainer.priorities.key
    return sum(
        1
        for node in nodes
        if graph.has_node(node)
        for other in graph.iter_neighbors(node)
        if key(other)[0] == key(node)[0]
    )


@pytest.mark.parametrize("labels", ["mixed", "strings"])
@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS[:3])
def test_batched_replay_breaks_exact_priority_ties_with_full_keys(seed: int, labels: str) -> None:
    """Batched replay under an order whose float parts tie, report for report.

    :class:`DeterministicPriorityAssigner` gives every non-numeric label the
    float part 0.0, so adjacent string-labelled nodes tie exactly on the
    float priorities and only the full key tuples order them.  The
    ``mixed`` workload keeps the integer labels (distinct float parts next
    to the tied ones); ``strings`` relabels the starting graph so that
    every compare is a tie.
    """
    if labels == "mixed":
        graph, changes = conformance_workload(seed, num_changes=80, start_nodes=18)
    else:
        graph = _string_labelled(erdos_renyi_graph(18, 0.2, seed=seed))
        changes = mixed_churn_sequence(graph.copy(), 80, seed=seed)
    template, fast = (
        DynamicMIS(priorities=DeterministicPriorityAssigner(), initial_graph=graph, engine=name)
        for name in ("template", "fast")
    )
    assert fast.mis() == template.mis()
    ties = 0
    for batch in split_into_batches(changes, seed=seed, max_batch=8):
        expected = template.apply_batch(batch)
        actual = fast.apply_batch(batch)
        for field in BATCH_REPORT_FIELDS:
            assert getattr(actual, field) == getattr(expected, field), field
        assert actual.influenced_set == expected.influenced_set
        assert actual.seed_nodes == expected.seed_nodes
        assert fast.mis() == template.mis()
        assert fast.clustering() == template.clustering()
        ties += _float_ties_at(fast, actual.influenced_set)
    template.verify()
    fast.verify()
    assert ties > 0, "no influenced node has a neighbor with a tied float part"


def test_batched_harness_detects_a_lying_engine(monkeypatch: pytest.MonkeyPatch) -> None:
    """The batched harness must catch divergence, not vacuously pass."""
    from repro.core.fast_engine import FastEngine

    graph, changes = conformance_workload(99, num_changes=24, start_nodes=14)
    honest = FastEngine.apply_batch

    def lying_apply_batch(self, batch):
        report = honest(self, batch)
        report.num_adjustments += 1
        return report

    monkeypatch.setattr(FastEngine, "apply_batch", lying_apply_batch)
    with pytest.raises(ConformanceMismatch):
        replay_batch_differential(graph, changes, seed=99)


# ----------------------------------------------------------------------
# A toy third backend through the public registry (zero core edits)
# ----------------------------------------------------------------------
class RecomputeReferenceEngine(MISEngine):
    """Recompute-based backend: reports from the shared template machinery,
    read views from a from-scratch greedy recompute on every query.

    The point is differential: if the incremental maintenance of the inner
    template ever diverged from the from-scratch greedy MIS of the current
    graph, this backend's ``mis()``/``states()``/``clustering()`` would
    disagree with the template column of the replay and the harness would
    flag it.  It exists only in this test module and reaches the maintainers
    purely through :func:`repro.core.engine_api.register_engine`.
    """

    def __init__(self, priorities=None, initial_graph=None) -> None:
        self._inner = TemplateEngine(priorities=priorities, initial_graph=initial_graph)

    # -- delegated topology changes (report source) ---------------------
    def insert_edge(self, u, v):
        return self._inner.insert_edge(u, v)

    def delete_edge(self, u, v):
        return self._inner.delete_edge(u, v)

    def insert_node(self, node, neighbors=()):
        return self._inner.insert_node(node, neighbors)

    def delete_node(self, node):
        return self._inner.delete_node(node)

    def apply_batch(self, changes: Sequence) -> BatchUpdateReport:
        return self._inner.apply_batch(changes)

    # -- recomputed read views ------------------------------------------
    @property
    def graph(self):
        return self._inner.graph

    @property
    def priorities(self):
        return self._inner.priorities

    def _recomputed(self) -> Dict[Node, bool]:
        return greedy_mis_states(self.graph, self.priorities)

    def mis(self) -> Set[Node]:
        return {node for node, in_mis in self._recomputed().items() if in_mis}

    def states(self) -> Dict[Node, bool]:
        return self._recomputed()

    def in_mis(self, node) -> bool:
        return self._recomputed()[node]

    def clustering(self) -> Dict[Node, Node]:
        states = self._recomputed()
        centers: Dict[Node, Node] = {}
        for node in self.graph.nodes():
            if states[node]:
                centers[node] = node
            else:
                centers[node] = self.priorities.earliest(
                    other for other in self.graph.iter_neighbors(node) if states[other]
                )
        return centers

    def verify(self) -> None:
        self._inner.verify()

    def restore(self, snapshot: EngineSnapshot) -> None:
        self._inner.restore(snapshot)


@pytest.fixture
def recompute_backend():
    name = "recompute-test"
    unregister_engine(name)
    register_engine(name, RecomputeReferenceEngine)
    yield name
    unregister_engine(name)


def test_third_backend_passes_replay_differential(recompute_backend) -> None:
    """Acceptance: a registered toy backend passes the single-change replay."""
    from repro.testing.differential import replay_differential

    graph, changes = conformance_workload(31, num_changes=40, start_nodes=16)
    result = replay_differential(
        graph, changes, seed=31, engines=("template", recompute_backend, "fast")
    )
    assert result.engines == ("template", "recompute-test", "fast")


def test_third_backend_passes_batched_replay(recompute_backend) -> None:
    graph, changes = conformance_workload(32, num_changes=30, start_nodes=14)
    replay_batch_differential(
        graph, changes, seed=32, engines=("template", recompute_backend)
    )


def test_third_backend_selectable_via_cli_choices(recompute_backend) -> None:
    """The CLI sources --engine choices live from the registry."""
    from repro.cli import build_parser

    arguments = build_parser().parse_args(
        ["churn", "--nodes", "8", "--changes", "5", "--engine", recompute_backend]
    )
    assert arguments.engine == recompute_backend


# ----------------------------------------------------------------------
# Full suite (scheduled; --run-conformance)
# ----------------------------------------------------------------------
@pytest.mark.conformance
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 1, 50))
def test_full_batched_conformance(seed: int) -> None:
    """50 seeded batched sequences x 150 changes, adversarial bursts included."""
    graph, changes = conformance_workload(seed, num_changes=150, start_nodes=26)
    result = replay_batch_differential(graph, changes, seed=seed, max_batch=12)
    assert result.num_changes == 150


@pytest.mark.conformance
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 2, 10))
def test_full_batched_conformance_dense(seed: int) -> None:
    graph, changes = conformance_workload(
        seed, num_changes=120, start_nodes=22, edge_probability=0.3, burst_length=10
    )
    replay_batch_differential(graph, changes, seed=seed, max_batch=10)


@pytest.mark.conformance
def test_batched_teardown_to_empty() -> None:
    target = disjoint_paths_graph(5, edges_per_path=3)
    from repro.workloads.sequences import build_sequence, teardown_sequence

    changes = build_sequence(target, seed=5) + teardown_sequence(target, seed=6)
    result = replay_batch_differential(None, changes, seed=11, max_batch=7)
    assert result.final_num_nodes == 0
