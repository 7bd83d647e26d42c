"""Batched differential conformance: fast-engine batches must equal template batches.

The fast engine's native :meth:`~repro.core.fast_engine.FastEngine.apply_batch`
(flat-array graph deltas + one vectorized repair wave) re-implements the
batched Section 6 extension from scratch, so -- exactly like the single-change
path -- it is only acceptable if it is report-for-report identical to the
template's batch apply.  :func:`repro.testing.differential.replay_batch_differential`
checks per batch: every cost counter of
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

from typing import Dict, Hashable, Sequence, Set

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
from repro.graph.generators import disjoint_paths_graph, erdos_renyi_graph, star_graph
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


def _counting_frontier(monkeypatch: pytest.MonkeyPatch):
    """Wrap the fast engine's vectorized frontier with a call counter."""
    from repro.core.fast_engine import FastEngine

    calls = {"count": 0, "sizes": []}
    original = FastEngine._batch_frontier

    def counted(self, flipped_arr, prio_np):
        calls["count"] += 1
        calls["sizes"].append(len(flipped_arr))
        return original(self, flipped_arr, prio_np)

    monkeypatch.setattr(FastEngine, "_batch_frontier", counted)
    return calls


def _force_vector_wave(monkeypatch: pytest.MonkeyPatch, threshold: int = 1):
    """Skip without numpy; else set the vector threshold and count frontier calls."""
    from repro.core import fast_engine

    if fast_engine._np is None:
        pytest.skip("numpy not available")
    monkeypatch.setattr(fast_engine, "_VECTOR_LEVEL_THRESHOLD", threshold)
    return _counting_frontier(monkeypatch)


def _earliest_newcomer_seed(leaves) -> int:
    """A seed under which node ``"x"`` comes before every leaf in ``pi``."""
    from repro.core.priorities import RandomPriorityAssigner

    for seed in range(2000):
        assigner = RandomPriorityAssigner(seed)
        newcomer_key = assigner.assign("x")
        if all(newcomer_key < assigner.assign(leaf) for leaf in leaves):
            return seed
    raise AssertionError("no seed makes 'x' earliest; widen the search")


def test_batched_replay_forced_through_vectorized_frontier(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Full batched replay with the numpy-mask frontier forced on every level.

    The production threshold only engages the vectorized path on levels with
    >= 64 flips, which conformance-scale workloads never reach; dropping the
    threshold to 1 sends *every* level through `_batch_frontier`, so the
    whole replay (counters, influenced sets, MIS, clustering) machine-checks
    the vectorized path against the template.
    """
    calls = _force_vector_wave(monkeypatch)
    graph, changes = conformance_workload(77, num_changes=60, start_nodes=20)
    replay_batch_differential(graph, changes, seed=77, max_batch=8)
    assert calls["count"] > 0, "the vectorized frontier never ran"


@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS)
def test_forced_vector_wave_batched_replay(seed: int, monkeypatch: pytest.MonkeyPatch) -> None:
    """The 25-seed tier-1 bar again, with every level on the numpy mask.

    The mask is the only accelerator left in the batched wave, so it is held
    to the same bar as the python walk: the same seeded sequences, report
    for report against the template.
    """
    calls = _force_vector_wave(monkeypatch)
    graph, changes = conformance_workload(seed, num_changes=40, start_nodes=18)
    result = replay_batch_differential(graph, changes, seed=seed, max_batch=8)
    assert result.engines == ("template", "fast")
    assert calls["count"] > 0, "the vectorized frontier never ran"


@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS[:5])
def test_forced_vector_wave_interleaved_with_single_changes(
    seed: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Single changes between batches keep the mirror the mask wave reads.

    Batches alternate with runs of single-change ``apply`` calls, whose
    interning (fresh slots, free-list reuse) must keep ``_prio_np`` exact:
    a stale entry would misorder the next forced batch's frontier.
    """
    calls = _force_vector_wave(monkeypatch)
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
    assert calls["count"] > 0, "the vectorized frontier never ran"


def test_forced_vector_wave_replay_with_node_churn(monkeypatch: pytest.MonkeyPatch) -> None:
    """Label deletion and re-interning onto recycled ids, mask wave forced on."""
    calls = _force_vector_wave(monkeypatch)
    graph = star_graph(6)
    changes = node_churn_sequence(graph, 60, seed=4, insert_probability=0.5)
    replay_batch_differential(graph, changes, seed=4, max_batch=6)
    assert calls["count"] > 0, "the vectorized frontier never ran"


@pytest.mark.parametrize("threshold", [2, 4, 6])
def test_mixed_level_sizes_split_between_mask_and_walk(
    threshold: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Levels at or above the threshold take the mask, smaller ones the walk.

    The flipped set changes size as a wave spreads, so one wave can switch
    paths from level to level.  This workload's levels flip 1 to 7 nodes,
    so every threshold here sends some levels each way.
    """
    from repro.core.fast_engine import FastEngine

    calls = _force_vector_wave(monkeypatch, threshold)
    levels = {"count": 0}
    original_wave = FastEngine._batch_repair_wave

    def counted_wave(self, dirty_ids, applied, seed_nodes):
        report = original_wave(self, dirty_ids, applied, seed_nodes)
        levels["count"] += report.num_levels
        return report

    monkeypatch.setattr(FastEngine, "_batch_repair_wave", counted_wave)
    graph, changes = conformance_workload(11, num_changes=160, start_nodes=32)
    replay_batch_differential(graph, changes, seed=11, max_batch=12)
    assert calls["count"] > 0, "no level reached the mask"
    # The workload has a level of exactly each threshold's size: it takes the mask.
    assert min(calls["sizes"]) == threshold
    assert calls["count"] < levels["count"], "no level stayed on the walk"


def test_below_threshold_levels_never_touch_the_vector_mask(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """A threshold one above the workload's largest level keeps every level
    on the python walk (the first replay measures the largest level)."""
    graph, changes = conformance_workload(13, num_changes=40, start_nodes=16)
    calls = _force_vector_wave(monkeypatch)
    replay_batch_differential(graph, changes, seed=13, max_batch=8)
    calls = _force_vector_wave(monkeypatch, threshold=max(calls["sizes"]) + 1)
    replay_batch_differential(graph, changes, seed=13, max_batch=8)
    assert calls["count"] == 0, "levels below the threshold must stay on the walk"


def test_natural_large_wave_uses_vectorized_frontier(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """A 100-flip repair level crosses the threshold organically.

    100 isolated nodes are all in the MIS; inserting a node adjacent to all
    of them under a seed where the newcomer is *earliest* makes it join and
    evicts every neighbor in one level -- well above the 64-flip threshold.
    """
    from repro.core import fast_engine
    from repro.workloads.changes import NodeInsertion

    leaves = list(range(100))
    found = _earliest_newcomer_seed(leaves)
    graph = DynamicGraph(nodes=leaves)
    batch = [NodeInsertion("x", tuple(leaves))]
    template = DynamicMIS(seed=found, initial_graph=graph, engine="template")
    fast = DynamicMIS(seed=found, initial_graph=graph, engine="fast")
    calls = _counting_frontier(monkeypatch)
    report_t = template.apply_batch(batch)
    report_f = fast.apply_batch(batch)
    if fast_engine._np is not None:
        assert calls["count"] > 0, "100-flip level should vectorize"
    # x joins the MIS and evicts all 100 leaves, in both engines.
    assert template.mis() == fast.mis() == {"x"}
    assert report_t.num_adjustments == report_f.num_adjustments == 101
    assert report_t.num_levels == report_f.num_levels == 2
    assert report_t.influenced_set == report_f.influenced_set
    assert report_t.update_work == report_f.update_work
    template.verify()
    fast.verify()


def test_huge_threshold_keeps_large_levels_on_the_python_walk(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """The 100-flip levels of the test above, with the mask switched off.

    Inserting ``x`` evicts all 100 leaves in one level; deleting it again
    brings them all back in one level.  Both stay on the walk and still
    match the template.
    """
    from repro.workloads.changes import NodeDeletion, NodeInsertion

    calls = _force_vector_wave(monkeypatch, threshold=10**9)
    leaves = list(range(100))
    found = _earliest_newcomer_seed(leaves)
    graph = DynamicGraph(nodes=leaves)
    template = DynamicMIS(seed=found, initial_graph=graph, engine="template")
    fast = DynamicMIS(seed=found, initial_graph=graph, engine="fast")
    for batch in ([NodeInsertion("x", tuple(leaves))], [NodeDeletion("x")]):
        expected, actual = template.apply_batch(batch), fast.apply_batch(batch)
        for field in BATCH_REPORT_FIELDS:
            assert getattr(actual, field) == getattr(expected, field), field
        assert actual.influenced_set == expected.influenced_set
        assert actual.num_adjustments >= 100
        assert fast.mis() == template.mis()
    assert fast.mis() == set(leaves)
    fast.verify()
    assert calls["count"] == 0, "the mask ran above a huge threshold"


def test_numpy_absent_batched_replay_uses_the_python_wave(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Without numpy the fast engine keeps no mirror and never vectorizes."""
    from repro.core import fast_engine
    from repro.core.fast_engine import FastEngine

    monkeypatch.setattr(fast_engine, "_np", None)
    monkeypatch.setattr(fast_engine, "_EMPTY_IDS", None)
    monkeypatch.setattr(fast_engine, "_VECTOR_LEVEL_THRESHOLD", 1)
    calls = _counting_frontier(monkeypatch)
    graph, changes = conformance_workload(15, num_changes=30, start_nodes=14)
    replay_batch_differential(graph, changes, seed=15, max_batch=8)
    assert FastEngine()._prio_np is None
    assert calls["count"] == 0, "the numpy frontier ran without numpy"


def _string_labelled(graph: DynamicGraph) -> DynamicGraph:
    def name(node):
        return f"v{node}"

    return DynamicGraph(
        nodes=[name(node) for node in graph.nodes()],
        edges=[(name(u), name(v)) for u, v in graph.edges()],
    )


@pytest.mark.parametrize("labels", ["mixed", "strings"])
@pytest.mark.parametrize("seed", BATCH_SUITE_SEEDS[:3])
def test_vectorized_frontier_breaks_exact_priority_ties(
    seed: int, labels: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Batched replay under an order whose float parts tie, report for report.

    :class:`DeterministicPriorityAssigner` gives every non-numeric label the
    float part 0.0, so adjacent string-labelled nodes tie exactly on the
    numpy priority mirror and only the full key tuples order them.  With
    the threshold forced to 1, every level goes through the tie branch of
    ``_batch_frontier``.  The ``mixed`` workload keeps the integer labels
    (distinct float parts next to the tied ones); ``strings`` relabels the
    starting graph so that every compare is a tie.
    """
    from repro.core import fast_engine
    from repro.core.fast_engine import FastEngine

    if fast_engine._np is None:
        pytest.skip("numpy not available")
    monkeypatch.setattr(fast_engine, "_VECTOR_LEVEL_THRESHOLD", 1)
    ties = {"count": 0}
    original = FastEngine._batch_frontier

    def tie_counting(self, flipped_arr, prio_np):
        if any(
            prio_np[m] == prio_np[int(nid)] for nid in flipped_arr for m in self._adj[int(nid)]
        ):
            ties["count"] += 1
        return original(self, flipped_arr, prio_np)

    monkeypatch.setattr(FastEngine, "_batch_frontier", tie_counting)
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
    for batch in split_into_batches(changes, seed=seed, max_batch=8):
        expected = template.apply_batch(batch)
        actual = fast.apply_batch(batch)
        for field in BATCH_REPORT_FIELDS:
            assert getattr(actual, field) == getattr(expected, field), field
        assert actual.influenced_set == expected.influenced_set
        assert actual.seed_nodes == expected.seed_nodes
        assert fast.mis() == template.mis()
        assert fast.clustering() == template.clustering()
    template.verify()
    fast.verify()
    assert ties["count"] > 0, "no level reached the exact-tie branch"


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
