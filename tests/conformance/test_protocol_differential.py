"""Protocol differential conformance: fast network cores must equal the dict cores.

The id-interned simulators of :mod:`repro.distributed.fast_network`
re-implement the synchronous controller, both protocol state machines and
the asynchronous event loop from scratch, so -- exactly like the engine
backends -- they are only acceptable if they are *observably identical* to
the dict/set simulators:
:func:`repro.testing.protocol_differential.replay_protocol_differential`
checks per change every complexity metric (rounds, broadcasts, bits, state
changes, adjustments, adjusted-node sets), the round-by-round traces and
the full output maps.

The tier-1 subset replays 25 seeded sequences per acceptance bar; the
``conformance``-marked sweep (nightly, ``--run-conformance``) runs longer
sequences, denser graphs and all three protocols.  A lying-backend test
pins down that the harness detects divergence and emits the divergence
dumps CI uploads as failure artifacts.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path
from typing import Tuple

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.core.rng import spawn_seeds
from repro.distributed.fast_network import FastBufferedMISNetwork, FastSynchronousMISNetwork
from repro.scenario import BackendSpec, GraphSpec, ScenarioSpec, WorkloadSpec
from repro.scenario.session import Session
from repro.testing.differential import ConformanceMismatch, conformance_workload
from repro.testing.protocol_differential import (
    replay_protocol_differential,
    replay_resume_differential,
)
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
)
from repro.workloads.sequences import mixed_churn_sequence
from repro.workloads.trace import save_trace

MASTER_SEED = 20260731
#: >= 25 seeds in tier-1: the acceptance bar for the fast network core.
PROTOCOL_SUITE_SEEDS = spawn_seeds(MASTER_SEED, 25)

SPEC_DIR = Path(__file__).resolve().parent.parent.parent / "examples" / "scenario_specs"


def _resume_scenario(protocol: str, seed: int, num_changes: int = 30) -> ScenarioSpec:
    """One protocol scenario for the checkpoint/resume differentials."""
    backend = BackendSpec(runner="protocol", protocol=protocol, engine="fast")
    if protocol == "async-direct":
        # Exact async resume needs a channel-deterministic scheduler with
        # distinct per-channel delays; the spec pins one down.
        backend = BackendSpec(
            runner="protocol",
            protocol=protocol,
            engine="fast",
            scheduler={"kind": "adversarial", "seed": seed + 1},
        )
    return ScenarioSpec(
        name=f"resume-{protocol}",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=16, seed=seed + 2),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=num_changes, seed=seed + 3),
        backend=backend,
    )


# ----------------------------------------------------------------------
# Tier-1: dict vs fast over 25 seeded sequences (round-identical)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", PROTOCOL_SUITE_SEEDS)
def test_buffered_replay_dict_vs_fast(seed: int) -> None:
    graph, changes = conformance_workload(seed, num_changes=30, start_nodes=16)
    result = replay_protocol_differential(graph, changes, seed=seed, protocol="buffered")
    assert result.num_changes == 30
    assert result.networks == ("dict", "fast")


@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 1, 5))
def test_direct_replay_dict_vs_fast(seed: int) -> None:
    graph, changes = conformance_workload(seed, num_changes=30, start_nodes=16)
    result = replay_protocol_differential(graph, changes, seed=seed, protocol="direct")
    assert result.networks == ("dict", "fast")


@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 2, 3))
def test_async_replay_dict_vs_fast(seed: int) -> None:
    """Asynchronous runs agree metric-for-metric under a channel-deterministic scheduler."""
    graph, changes = conformance_workload(seed, num_changes=25, start_nodes=14)
    result = replay_protocol_differential(graph, changes, seed=seed, protocol="async-direct")
    assert result.networks == ("dict", "fast")


@pytest.mark.parametrize("protocol", ["buffered", "direct"])
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 9, 2))
def test_dense_replay_dict_vs_fast(protocol: str, seed: int) -> None:
    """Dense graphs put many earlier and later neighbors behind every guard
    a node's step checks (no earlier neighbor in M, no later one in C,
    every earlier one settled, every key known)."""
    graph, changes = conformance_workload(
        seed, num_changes=40, start_nodes=24, edge_probability=0.4, burst_length=6
    )
    result = replay_protocol_differential(graph, changes, seed=seed, protocol=protocol)
    assert result.networks == ("dict", "fast")


@pytest.mark.parametrize("protocol", ["buffered", "direct"])
def test_protocol_replay_from_scenario(protocol: str) -> None:
    """A declarative scenario drives the conformance run: the spec fixes the
    workload, the protocol and the verification reference, so "same
    scenario, two network backends" holds by construction -- and matches the
    hand-built replay of the same inputs exactly."""
    from repro.scenario import BackendSpec, GraphSpec, ScenarioSpec, WorkloadSpec

    spec = ScenarioSpec(
        name="conformance-protocol",
        seed=13,
        graph=GraphSpec(family="erdos_renyi", nodes=16, seed=6),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=25, seed=7),
        backend=BackendSpec(runner="protocol", protocol=protocol, engine="fast"),
    )
    by_spec = replay_protocol_differential(scenario=spec)
    assert by_spec.protocol == protocol
    graph, changes = spec.materialize()
    by_hand = replay_protocol_differential(
        graph, changes, seed=13, protocol=protocol, reference_engine="fast"
    )
    assert by_spec == by_hand  # unchanged results vs the pre-scenario harness
    # Explicit protocol/reference_engine alongside scenario= are rejected
    # (they would be silently overridden by the spec's backend otherwise).
    with pytest.raises(ValueError, match="not both"):
        replay_protocol_differential(scenario=spec, protocol=protocol)


@pytest.mark.parametrize("protocol", ["buffered", "direct"])
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 7, 4))
def test_unmuting_and_graceful_deletions_replay(protocol: str, seed: int) -> None:
    """Unmuting (pre-known IDs) and graceful deletions are not generated by the
    churn workload, so they get a dedicated hand-built replay."""
    from repro.graph.generators import erdos_renyi_graph
    from repro.workloads.changes import NodeDeletion, NodeUnmuting

    graph = erdos_renyi_graph(16, 0.25, seed=seed)
    nodes = sorted(graph.nodes())
    changes = [
        NodeDeletion(nodes[0], graceful=True),
        NodeUnmuting(nodes[0], tuple(nodes[2:6])),
        NodeDeletion(nodes[1], graceful=False),
        NodeUnmuting(nodes[1], ()),
        NodeUnmuting("ghost", tuple(nodes[3:9])),
        NodeDeletion("ghost", graceful=True),
    ]
    replay_protocol_differential(graph, changes, seed=seed, protocol=protocol)


def test_buffered_replay_from_empty_graph() -> None:
    """Build-up from nothing exercises discovery seeding on every insertion."""
    from repro.graph.generators import disjoint_paths_graph
    from repro.workloads.sequences import build_sequence, teardown_sequence

    target = disjoint_paths_graph(4, edges_per_path=3)
    changes = build_sequence(target, seed=5) + teardown_sequence(target, seed=6)
    result = replay_protocol_differential(None, changes, seed=11, protocol="buffered")
    assert result.final_num_nodes == 0


# ----------------------------------------------------------------------
# Tier-1: checkpoint on dict, resume on fast -- equal to uninterrupted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["buffered", "direct", "async-direct"])
def test_cross_backend_resume_equals_uninterrupted(protocol: str) -> None:
    """The acceptance bar of the checkpointable-state tentpole: checkpoint
    mid-run on ``network="dict"`` (through the JSON codec, the CLI's file
    path), resume on ``network="fast"``, and the remaining run is equal to
    an uninterrupted one -- outputs, per-change metrics, round traces and
    the accumulated record list -- at several checkpoint positions."""
    result = replay_resume_differential(
        _resume_scenario(protocol, seed=31), positions=(0, 7, 21, 30)
    )
    assert result.networks == ("dict", "fast")
    assert result.num_changes == 30


def test_cross_backend_resume_fast_to_dict() -> None:
    """The reverse direction: fast-core checkpoints restore on the dict core."""
    result = replay_resume_differential(
        _resume_scenario("buffered", seed=32), positions=(13,), networks=("fast", "dict")
    )
    assert result.networks == ("fast", "dict")


def test_adaptive_resume_differential() -> None:
    """Adaptive-adversary scenarios resume exactly too: the checkpoint carries
    the adversary's RNG state, so the resumed deletion stream is identical."""
    scenario = ScenarioSpec(
        name="resume-adaptive",
        seed=33,
        graph=GraphSpec(family="erdos_renyi", nodes=18, seed=5),
        workload=WorkloadSpec(kind="adaptive_adversary", num_changes=14, seed=6),
        backend=BackendSpec(runner="protocol", protocol="buffered", engine="fast"),
    )
    result = replay_resume_differential(scenario, positions=(0, 6, 13))
    assert result.num_changes == 14


# ----------------------------------------------------------------------
# Tier-1: conformance runs driven from shipped spec JSON files
# ----------------------------------------------------------------------
def test_sliding_window_spec_file_drives_the_differential() -> None:
    """A shipped spec file is the conformance input: the sliding-window
    workload (spec-expressible as of this tentpole) replays identically on
    both network cores, straight from ``examples/scenario_specs/``."""
    spec = ScenarioSpec.load(SPEC_DIR / "sliding_window.json")
    result = replay_protocol_differential(scenario=spec)
    assert result.protocol == "buffered"
    assert result.num_changes == 60


def test_async_differentials_reject_non_deterministic_schedulers() -> None:
    """The channel-determinism precondition guards *cross-backend*
    differentials: the two cores enumerate receivers in different orders, so
    a 'random'-scheduler spec (or a scheduler-less async spec, which
    defaults to it) would report false protocol divergence.  Same-backend
    resumes are exempt -- see the random-scheduler resume tests below."""
    scenario = _resume_scenario("async-direct", seed=34).with_backend(
        scheduler={"kind": "random", "seed": 1}
    )
    with pytest.raises(ValueError, match="channel-deterministic"):
        replay_protocol_differential(scenario=scenario)
    # The default networks pair is ("dict", "fast"): cross-backend.
    with pytest.raises(ValueError, match="channel-deterministic"):
        replay_resume_differential(scenario, positions=(3,))
    scheduler_less = _resume_scenario("async-direct", seed=34).with_backend(scheduler=None)
    with pytest.raises(ValueError, match="channel-deterministic"):
        replay_resume_differential(scheduler_less, positions=(3,))


@pytest.mark.parametrize("network", ["dict", "fast"])
def test_same_backend_async_resume_with_random_scheduler(network: str) -> None:
    """The random scheduler's RNG stream rides in the snapshot, so on this
    scenario a same-backend resume equals the uninterrupted run at several
    checkpoint positions, through the JSON codec.  It is not exact in
    general: the scheduler hands its delays out in neighbor order, and after
    heavier churn a restored simulator, which builds its neighbors from the
    snapshot's edge list, can enumerate them in another order than the
    live one."""
    scenario = _resume_scenario("async-direct", seed=35).with_backend(
        scheduler={"kind": "random", "seed": 2}
    )
    result = replay_resume_differential(
        scenario, positions=(0, 9, 23), networks=(network, network)
    )
    assert result.num_changes == 30
    assert result.positions == (0, 9, 23)


def test_same_backend_async_resume_with_default_scheduler() -> None:
    """A scheduler-less async spec (implicit random scheduler) also resumes
    on the same backend, equal to the uninterrupted run on this scenario."""
    scenario = _resume_scenario("async-direct", seed=36).with_backend(scheduler=None)
    result = replay_resume_differential(
        scenario, positions=(11,), networks=("fast", "fast")
    )
    assert result.networks == ("fast", "fast")


def test_adversary_async_spec_file_resumes_across_backends() -> None:
    """The shipped adaptive + async + adversarial-scheduler spec checkpoints
    and resumes across backends (the full tentpole surface in one file)."""
    spec = ScenarioSpec.load(SPEC_DIR / "adversary_async.json")
    result = replay_resume_differential(spec, positions=(9,))
    assert result.protocol == "async-direct"
    assert result.num_changes == 25


# ----------------------------------------------------------------------
# The harness must catch divergence, not vacuously pass
# ----------------------------------------------------------------------
def _lying_fast_step(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make the fast buffered core under-report its state changes."""
    honest = FastBufferedMISNetwork._node_step

    def lying_step(self, nid, inbox, round_no):
        outgoing, changed = honest(self, nid, inbox, round_no)
        if changed:
            # Under-report the state change: the metrics diverge immediately.
            return outgoing, False
        return outgoing, changed

    monkeypatch.setattr(FastBufferedMISNetwork, "_node_step", lying_step)


def test_harness_detects_a_lying_network(monkeypatch: pytest.MonkeyPatch) -> None:
    _lying_fast_step(monkeypatch)
    graph, changes = conformance_workload(7, num_changes=30, start_nodes=16)
    with pytest.raises(ConformanceMismatch):
        replay_protocol_differential(graph, changes, seed=7, protocol="buffered")


def test_divergence_dump_is_written(monkeypatch: pytest.MonkeyPatch, tmp_path) -> None:
    """On mismatch the harness writes a JSON dump naming the divergent field."""
    _lying_fast_step(monkeypatch)
    graph, changes = conformance_workload(7, num_changes=30, start_nodes=16)
    with pytest.raises(ConformanceMismatch):
        replay_protocol_differential(
            graph, changes, seed=7, protocol="buffered", dump_dir=tmp_path
        )
    dumps = list(tmp_path.glob("divergence_buffered_*.json"))
    assert dumps, "no divergence dump written"
    document = json.loads(dumps[0].read_text())
    assert document["networks"] == ["dict", "fast"]
    assert "state_changes" in document["detail"]
    assert set(document["backends"]) == {"dict", "fast"}
    assert "last_change_trace" in document["backends"]["fast"]


def test_resume_divergence_dump_is_written(
    monkeypatch: pytest.MonkeyPatch, tmp_path
) -> None:
    """Failed resume differentials dump through the same artifact mechanism
    (CI uploads ``resume_divergence_*.json`` next to the replay dumps)."""
    _lying_fast_step(monkeypatch)
    with pytest.raises(ConformanceMismatch):
        replay_resume_differential(
            _resume_scenario("buffered", seed=31), positions=(7,), dump_dir=tmp_path
        )
    dumps = list(tmp_path.glob("resume_divergence_pos7_buffered_*.json"))
    assert len(dumps) == 1, "expected exactly one resume divergence dump"
    assert not list(tmp_path.glob("*_journal.json"))
    document = json.loads(dumps[0].read_text())
    assert document["networks"] == ["dict", "fast"]
    assert set(document["backends"]) == {"dict", "fast"}
    # The dump embeds the scenario spec -- `repro-mis bisect --from-dump`
    # rebuilds the whole investigation from it by re-execution.
    assert "journal_checkpoint" not in document
    assert ScenarioSpec.from_dict(document["scenario"]).backend.protocol == "buffered"


def test_divergence_dump_dir_from_environment(
    monkeypatch: pytest.MonkeyPatch, tmp_path
) -> None:
    from repro.testing.protocol_differential import DUMP_DIR_ENV

    _lying_fast_step(monkeypatch)
    monkeypatch.setenv(DUMP_DIR_ENV, str(tmp_path / "artifacts"))
    graph, changes = conformance_workload(7, num_changes=30, start_nodes=16)
    with pytest.raises(ConformanceMismatch):
        replay_protocol_differential(graph, changes, seed=7, protocol="buffered")
    assert list((tmp_path / "artifacts").glob("divergence_*.json"))


# ----------------------------------------------------------------------
# Full sweep (scheduled; --run-conformance)
# ----------------------------------------------------------------------
@pytest.mark.conformance
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 3, 40))
def test_full_buffered_conformance(seed: int) -> None:
    """40 seeded sequences x 120 changes, adversarial bursts included."""
    graph, changes = conformance_workload(seed, num_changes=120, start_nodes=24)
    result = replay_protocol_differential(graph, changes, seed=seed, protocol="buffered")
    assert result.num_changes == 120


@pytest.mark.conformance
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 4, 10))
def test_full_direct_conformance(seed: int) -> None:
    graph, changes = conformance_workload(seed, num_changes=100, start_nodes=22)
    replay_protocol_differential(graph, changes, seed=seed, protocol="direct")


@pytest.mark.conformance
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 5, 10))
def test_full_async_conformance(seed: int) -> None:
    graph, changes = conformance_workload(seed, num_changes=80, start_nodes=20)
    replay_protocol_differential(graph, changes, seed=seed, protocol="async-direct")


@pytest.mark.conformance
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 6, 8))
def test_full_buffered_conformance_dense(seed: int) -> None:
    graph, changes = conformance_workload(
        seed, num_changes=80, start_nodes=20, edge_probability=0.3, burst_length=10
    )
    replay_protocol_differential(graph, changes, seed=seed, protocol="buffered")


@pytest.mark.conformance
@pytest.mark.parametrize("protocol", ["buffered", "direct", "async-direct"])
@pytest.mark.parametrize("seed", spawn_seeds(MASTER_SEED + 8, 6))
def test_full_resume_conformance(protocol: str, seed: int) -> None:
    """Nightly sweep: longer workloads, denser checkpoint-position grids,
    both resume directions."""
    scenario = _resume_scenario(protocol, seed=seed, num_changes=80)
    replay_resume_differential(scenario, positions=(0, 11, 40, 79))
    replay_resume_differential(scenario, positions=(27,), networks=("fast", "dict"))


# ----------------------------------------------------------------------
# Hub-heavy sweep: deliveries around high-degree nodes (--run-conformance)
# ----------------------------------------------------------------------
#: A preferential graph whose hubs have at least ten times the median degree
#: (median 2; eight hubs of degree 20 to 50 on this seed).
HUB_GRAPH = GraphSpec(family="preferential", nodes=400, seed=6, params={"edges_per_node": 2})
HUB_SEED = 17


def _hub_workload(seed: int) -> Tuple[list, int]:
    """Changes of every kind around the hubs of :data:`HUB_GRAPH`.

    Each of six rounds inserts and unmutes a node next to the hubs, adds and
    removes a hub edge, deletes an ordinary node and the highest-degree MIS
    node (gracefully or abruptly), and runs a short mixed churn segment;
    then two hubs join the MIS (their edges to earlier MIS neighbors go)
    and leave the graph, one gracefully and one abruptly, and a last round runs next
    to the remaining hubs on the ids those deletions free-listed.  Returns
    the changes and the position right after the hub deletions.
    """
    graph = HUB_GRAPH.build()
    degrees = sorted(graph.degree(node) for node in graph.nodes())
    median = degrees[len(degrees) // 2]
    hubs = sorted(
        (node for node in graph.nodes() if graph.degree(node) >= 10 * median),
        key=lambda node: (-graph.degree(node), node),
    )
    assert len(hubs) >= 4, "the hub graph lost its hubs"
    tracker = DynamicMIS(seed=seed, initial_graph=graph, engine="template")
    rng = random.Random(seed)
    labels = itertools.count(10_000)
    changes: list = []

    def apply(change) -> None:
        tracker.apply(change)
        changes.append(change)

    def ordinary(count: int) -> tuple:
        nodes = sorted(set(tracker.graph.nodes()) - set(hubs), key=repr)
        return tuple(rng.sample(nodes, count))

    def hub_round(index: int, live_hubs: list) -> None:
        current = tracker.graph
        apply(NodeInsertion(next(labels), tuple(live_hubs[:3]) + ordinary(2)))
        apply(NodeUnmuting(next(labels), tuple(live_hubs[1:4]) + ordinary(2)))
        hub = live_hubs[index % len(live_hubs)]
        strangers = [node for node in ordinary(6) if not current.has_edge(hub, node)]
        apply(EdgeInsertion(hub, strangers[0]))
        neighbor = rng.choice(sorted(current.neighbors(hub), key=repr))
        apply(EdgeDeletion(hub, neighbor, graceful=bool(index % 2)))
        apply(NodeDeletion(ordinary(1)[0], graceful=bool(index % 2)))
        in_mis = sorted(tracker.mis() - set(hubs), key=lambda node: (-current.degree(node), node))
        apply(NodeDeletion(in_mis[0], graceful=not index % 2))
        for change in mixed_churn_sequence(current.copy(), 6, seed=seed + index):
            apply(change)

    for index in range(6):
        hub_round(index, hubs)
    for hub, graceful in ((hubs[0], True), (hubs[1], False)):
        while hub not in tracker.mis():
            earlier = tracker.priorities.earlier_neighbors(tracker.graph, hub)
            for other in sorted(set(earlier) & tracker.mis(), key=repr):
                apply(EdgeDeletion(hub, other))
        apply(NodeDeletion(hub, graceful=graceful))
    hubs_deleted = len(changes)
    hub_round(6, hubs[2:])
    return changes, hubs_deleted


def _check_deliveries_against_the_filter(monkeypatch: pytest.MonkeyPatch) -> dict:
    """Check every synchronous round's delivery against the per-receiver
    filter it replaced.

    That filter kept a receiver iff it missed the sender's key, knew another
    state than the message carries, or the state is in
    ``ALWAYS_STEP_STATES``.  The receivers holding an inbox must be exactly
    the ones it keeps, each inbox an in-order subsequence of the messages
    sent to that receiver, and ``delivered`` one count per (message,
    neighbor) pair.  Returns running totals, to show the check ran.
    """
    deliver = FastSynchronousMISNetwork._deliver
    totals = {"rounds": 0, "delivered": 0, "kept": 0}

    def checked(network, messages):
        sent: dict = {}
        kept = set()
        for message in messages:
            sender, _, state_code, _ = message
            if not network._alive[sender]:
                continue
            for receiver in network._adj[sender]:
                sent.setdefault(receiver, []).append(message)
                position = network._adj[receiver].index(sender)
                if (
                    state_code in network.ALWAYS_STEP_STATES
                    or not network._nkey[receiver][position]
                    or network._nstate[receiver][position] != state_code
                ):
                    kept.add(receiver)
        inboxes, delivered = deliver(network, messages)
        assert set(inboxes) == kept, "delivery disagrees with the per-receiver filter"
        assert delivered == sum(map(len, sent.values()))
        for receiver, inbox in inboxes.items():
            remaining = iter(sent[receiver])
            assert all(message in remaining for message in inbox), "inbox out of order"
        totals["rounds"] += 1
        totals["delivered"] += delivered
        totals["kept"] += len(kept)
        return inboxes, delivered

    monkeypatch.setattr(FastSynchronousMISNetwork, "_deliver", checked)
    return totals


@pytest.mark.conformance
@pytest.mark.parametrize("protocol", ["buffered", "direct"])
def test_hub_heavy_replay_and_resume(
    protocol: str, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Hubs broadcast to many neighbors the message teaches nothing.  Fast
    must equal dict round for round, every delivery must match the filter
    that scanned each neighbor, and a fast->fast resume after churn has
    free-listed ids must rebuild the delivery bookkeeping."""
    changes, hubs_deleted = _hub_workload(HUB_SEED)
    kinds = {(change.kind, getattr(change, "graceful", None)) for change in changes}
    assert kinds >= {
        ("edge_insertion", None),
        ("edge_deletion", True),
        ("edge_deletion", False),
        ("node_insertion", None),
        ("node_unmuting", None),
        ("node_deletion", True),
        ("node_deletion", False),
    }
    save_trace(tmp_path / "hubs.json", changes)
    scenario = ScenarioSpec(
        name=f"hub-heavy-{protocol}",
        seed=HUB_SEED,
        graph=HUB_GRAPH,
        workload=WorkloadSpec(kind="trace", path=str(tmp_path / "hubs.json")),
        backend=BackendSpec(runner="protocol", protocol=protocol, engine="fast"),
    )
    totals = _check_deliveries_against_the_filter(monkeypatch)
    result = replay_protocol_differential(scenario=scenario)
    assert result.num_changes == len(changes)
    assert totals["rounds"] and totals["kept"] < totals["delivered"]

    session = Session(scenario.with_backend(network="fast"))
    free_listed = []
    while session.step() is not None:
        if session.network.free_slots() and session.position < len(changes):
            free_listed.append(session.position)
    assert hubs_deleted in free_listed
    positions = (free_listed[0], free_listed[len(free_listed) // 2], hubs_deleted)
    resumed = replay_resume_differential(scenario, positions=positions, networks=("fast", "fast"))
    assert resumed.positions == positions
