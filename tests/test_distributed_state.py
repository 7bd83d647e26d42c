"""Unit tests for the network snapshot/restore layer (``repro.distributed.state``).

The end-to-end resume equality lives in the conformance suite
(``tests/conformance/test_protocol_differential.py``) and the session tests;
this file pins down the contract edges: the :class:`Checkpointable`
protocol, snapshot content equality across backends, the premise that lets
restore derive each node's knowledge (every live simulator is stable after
every change), the protocol-mismatch, quiescence and torn-snapshot guards,
and the restorable event-sequence cursor.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.state_api import Checkpointable, EventSequence
from repro.distributed.fast_network import FastNetworkCore
from repro.distributed.network import NetworkSimulator
from repro.distributed.network_api import PROTOCOL_NAMES, create_network
from repro.distributed.node import NodeState
from repro.distributed.scheduler import (
    AdversarialDelayScheduler,
    UnknownSchedulerError,
    create_scheduler,
)
from repro.distributed.state import NetworkSnapshot, NetworkStateError
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
    apply_change_to_graph,
)

GRAPH = erdos_renyi_graph(18, 0.2, seed=3)

#: Each protocol once, async under each scheduler kind; the premise test runs
#: both network cores on every entry.
_SCHEDULED = [
    ("buffered", None),
    ("direct", None),
    ("async-direct", {"kind": "random", "seed": 2}),
    ("async-direct", {"kind": "adversarial", "seed": 4, "slow_fraction": 0.5}),
    ("async-direct", {"kind": "fixed", "delay_value": 1.5}),
]


def _simulator(protocol: str, network: str):
    kwargs = {"seed": 9, "initial_graph": GRAPH}
    if protocol == "async-direct":
        kwargs["scheduler"] = AdversarialDelayScheduler(4)
    return create_network(protocol, network=network, **kwargs)


def _learned(simulator):
    """Every node's learned neighbor keys and states."""
    learned = {}
    for node in simulator.graph.nodes():
        runtime = simulator.node_runtime(node)
        learned[node] = (runtime.neighbor_keys, runtime.neighbor_states)
    return learned


def _assert_stable(simulator) -> None:
    """Every node knows every neighbor's key and current state, and nothing else."""
    if hasattr(simulator, "check_interning_invariants"):
        simulator.check_interning_invariants(expect_stable=True)
        return
    runtimes = {node: simulator.node_runtime(node) for node in simulator.graph.nodes()}
    for node, runtime in runtimes.items():
        assert runtime.neighbors == set(simulator.graph.neighbors(node)), node
        keys = {other: runtimes[other].key for other in runtime.neighbors}
        states = {other: runtimes[other].state for other in runtime.neighbors}
        assert (runtime.neighbor_keys, runtime.neighbor_states) == (keys, states), node


_CHURN_KINDS = (
    "edge+",
    "edge-graceful",
    "edge-abrupt",
    "node+",
    "unmute",
    "node-graceful",
    "node-abrupt",
)


def _churn(graph, count: int, seed: int):
    """A seeded stream of all six change kinds plus unmuting, valid in order."""
    rng = random.Random(seed)
    graph = graph.copy()
    fresh = 0
    changes = []
    while len(changes) < count:
        nodes = sorted(graph.nodes(), key=repr)
        edges = graph.edges()
        kind = rng.choice(_CHURN_KINDS)
        if kind == "edge+":
            u, v = rng.sample(nodes, 2)
            if graph.has_edge(u, v):
                continue
            change = EdgeInsertion(u, v)
        elif kind.startswith("edge-"):
            if not edges:
                continue
            u, v = rng.choice(edges)
            change = EdgeDeletion(u, v, graceful=kind == "edge-graceful")
        elif kind in ("node+", "unmute"):
            fresh += 1
            neighbors = tuple(rng.sample(nodes, min(len(nodes), rng.randint(0, 4))))
            change_type = NodeInsertion if kind == "node+" else NodeUnmuting
            change = change_type(f"new{fresh}", neighbors)
        else:
            if len(nodes) < 4:
                continue
            change = NodeDeletion(rng.choice(nodes), graceful=kind == "node-graceful")
        apply_change_to_graph(graph, change)
        changes.append(change)
    return changes


class TestCheckpointableProtocol:
    @pytest.mark.parametrize("network", ["dict", "fast"])
    @pytest.mark.parametrize("protocol", ["buffered", "direct", "async-direct"])
    def test_every_registered_simulator_satisfies_it(self, protocol, network):
        assert isinstance(_simulator(protocol, network), Checkpointable)

    def test_engines_satisfy_it_too(self):
        from repro.core.engine_api import available_engines, create_engine

        for name in available_engines():
            assert isinstance(create_engine(name), Checkpointable)


class TestSnapshotContent:
    @pytest.mark.parametrize("protocol", ["buffered", "direct", "async-direct"])
    def test_dict_and_fast_snapshots_agree_field_for_field(self, protocol):
        # The snapshot is the observable state, so two observably identical
        # simulators must produce equal snapshots (up to node/edge order).
        dict_snap = _simulator(protocol, "dict").snapshot()
        fast_snap = _simulator(protocol, "fast").snapshot()
        assert dict_snap.protocol == fast_snap.protocol == protocol
        assert sorted(dict_snap.nodes) == sorted(fast_snap.nodes)
        assert sorted(dict_snap.edges) == sorted(fast_snap.edges)
        assert dict_snap.states == fast_snap.states
        assert dict_snap.priority_keys == fast_snap.priority_keys

    def test_snapshot_is_a_value_not_a_view(self):
        simulator = _simulator("buffered", "fast")
        snapshot = simulator.snapshot()
        edges_before = tuple(snapshot.edges)
        u, v = simulator.graph.edges()[0]
        simulator.apply(EdgeDeletion(u, v))
        assert snapshot.edges == edges_before
        assert snapshot.num_changes == 0  # records applied later don't leak in
        assert simulator.metrics.num_changes == 1


class TestStablePremise:
    """Restore derives each node's knowledge; live simulators justify it.

    Snapshots store no knowledge because every simulator ends every change in
    the stable configuration.  This checks that on live runs, not through a
    stored copy, and that a restore reproduces what each node had learned.
    """

    @pytest.mark.parametrize(
        "protocol, scheduler",
        _SCHEDULED,
        ids=["buffered", "direct", "async-random", "async-adversarial", "async-fixed"],
    )
    def test_every_change_ends_stable_and_restores_exactly(self, protocol, scheduler):
        def build(network, initial_graph=None):
            kwargs = {"seed": 9, "initial_graph": initial_graph}
            if scheduler is not None:
                kwargs["scheduler"] = create_scheduler(**scheduler)
            return create_network(protocol, network=network, **kwargs)

        simulators = {network: build(network, GRAPH) for network in ("dict", "fast")}
        for count, change in enumerate(_churn(GRAPH, 60, seed=5), start=1):
            for simulator in simulators.values():
                simulator.apply(change)
                _assert_stable(simulator)
            if count % 15:
                continue
            for source in simulators.values():
                for network in ("dict", "fast"):
                    target = build(network)
                    target.restore(source.snapshot())
                    _assert_stable(target)
                    assert _learned(target) == _learned(source)


class TestRestoreGuards:
    @pytest.mark.parametrize("network", ["dict", "fast"])
    def test_protocol_mismatch_is_rejected(self, network):
        snapshot = _simulator("buffered", network).snapshot()
        direct = create_network("direct", network=network, seed=9)
        with pytest.raises(NetworkStateError, match="protocol"):
            direct.restore(snapshot)

    @pytest.mark.parametrize("network", ["dict", "fast"])
    def test_engine_snapshots_are_rejected(self, network):
        from repro.core.dynamic_mis import DynamicMIS

        engine_snapshot = DynamicMIS(seed=1, initial_graph=GRAPH).engine.snapshot()
        simulator = create_network("buffered", network=network, seed=9)
        with pytest.raises(NetworkStateError, match="NetworkSnapshot"):
            simulator.restore(engine_snapshot)

    @pytest.mark.parametrize("network", ["dict", "fast"])
    def test_non_quiescent_snapshots_are_rejected(self, network):
        snapshot = _simulator("buffered", network).snapshot()
        states = dict(snapshot.states)
        states[snapshot.nodes[0]] = "C"
        broken = dataclasses.replace(snapshot, states=states)
        simulator = create_network("buffered", network=network, seed=9)
        with pytest.raises(NetworkStateError, match="transient"):
            simulator.restore(broken)

    @pytest.mark.parametrize(
        "tear",
        ["edge-to-stranger", "missing-state", "extra-state", "missing-key", "duplicate-node"],
    )
    @pytest.mark.parametrize("network", ["dict", "fast"])
    @pytest.mark.parametrize("protocol", ["buffered", "direct", "async-direct"])
    def test_torn_snapshots_are_rejected(self, protocol, network, tear):
        snapshot = _simulator(protocol, network).snapshot()
        first = snapshot.nodes[0]
        if tear == "edge-to-stranger":
            broken = dataclasses.replace(snapshot, edges=snapshot.edges + ((first, "ghost"),))
        elif tear == "missing-state":
            states = {node: value for node, value in snapshot.states.items() if node != first}
            broken = dataclasses.replace(snapshot, states=states)
        elif tear == "extra-state":
            broken = dataclasses.replace(snapshot, states={**snapshot.states, "ghost": "M"})
        elif tear == "duplicate-node":
            broken = dataclasses.replace(snapshot, nodes=snapshot.nodes + (first,))
        else:
            keys = {node: key for node, key in snapshot.priority_keys.items() if node != first}
            broken = dataclasses.replace(snapshot, priority_keys=keys)
        simulator = create_network(protocol, network=network, seed=9)
        with pytest.raises(NetworkStateError, match="torn snapshot"):
            simulator.restore(broken)

    def test_restore_replaces_prior_state_wholesale(self):
        simulator = _simulator("buffered", "fast")
        snapshot = simulator.snapshot()
        other = create_network(
            "buffered", network="fast", seed=9, initial_graph=erdos_renyi_graph(7, 0.5, seed=1)
        )
        other.restore(snapshot)
        assert other.states() == simulator.states()
        assert sorted(other.graph.edges()) == sorted(simulator.graph.edges())
        other.check_interning_invariants()


def _leave_mid_repair(simulator, node, how: str) -> None:
    """Put ``node`` in state C, or make it a retiring relay, as mid-repair."""
    if isinstance(simulator, FastNetworkCore):
        nid = simulator._id_of[node]
        if how == "transient":
            simulator._state[nid] = NodeState.C.code
        else:
            simulator._retiring[nid] = 1
    elif how == "transient":
        simulator.node_runtime(node).state = NodeState.C
    else:
        simulator.node_runtime(node).retiring = True


class TestOneSurface:
    @pytest.mark.parametrize("how", ["transient", "retiring"])
    @pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
    @pytest.mark.parametrize("network", ["dict", "fast"])
    def test_mid_repair_node_fails_verify_and_snapshot(self, network, protocol, how):
        simulator = _simulator(protocol, network)
        assert isinstance(simulator, NetworkSimulator)
        # A non-MIS victim leaves the outputs intact: only the mid-repair
        # check can fire.
        victim = sorted(set(simulator.graph.nodes()) - simulator.mis(), key=repr)[0]
        assert simulator.node_runtime(victim).node_id == victim
        simulator.verify()
        simulator.snapshot()
        _leave_mid_repair(simulator, victim, how)
        with pytest.raises(AssertionError, match="mid-repair"):
            simulator.verify()
        with pytest.raises(NetworkStateError, match="mid-repair"):
            simulator.snapshot()


class TestEventSequence:
    def test_counts_and_restores(self):
        sequence = EventSequence()
        assert [next(sequence) for _ in range(3)] == [0, 1, 2]
        resumed = EventSequence(sequence.value)
        assert next(resumed) == 3

    def test_rejects_negative_starts(self):
        with pytest.raises(ValueError):
            EventSequence(-1)

    def test_is_its_own_iterator(self):
        sequence = EventSequence(5)
        assert iter(sequence) is sequence


class TestSchedulerFactory:
    def test_builds_every_kind(self):
        assert create_scheduler("fixed", delay_value=2.0).delay("a", "b", 0) == 2.0
        assert create_scheduler("random", seed=3).delay("a", "b", 0) > 0
        adversarial = create_scheduler("adversarial", seed=3, slow_fraction=0.5)
        assert adversarial.delay("a", "b", 0) == adversarial.delay("a", "b", 99)

    def test_unknown_kind_has_did_you_mean(self):
        with pytest.raises(UnknownSchedulerError, match="did you mean 'fixed'"):
            create_scheduler("fixd")

    def test_unknown_param_has_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'delay_value'"):
            create_scheduler("fixed", delay_valu=1.0)


class TestSchedulerState:
    """The resumable-scheduler contract behind exact async resume."""

    def test_stateless_kinds_report_none(self):
        for scheduler in (
            create_scheduler("fixed", delay_value=2.0),
            create_scheduler("adversarial", seed=3),
        ):
            assert scheduler.getstate() is None
            scheduler.setstate(None)  # a no-op, not an error
            with pytest.raises(ValueError, match="stateless"):
                scheduler.setstate(("uniform-rng", ()))

    def test_random_scheduler_round_trips_its_stream(self):
        scheduler = create_scheduler("random", seed=3)
        scheduler.delay("a", "b", 0)
        state = scheduler.getstate()
        expected = [scheduler.delay("a", "b", sequence) for sequence in range(1, 6)]
        scheduler.setstate(state)
        replayed = [scheduler.delay("a", "b", sequence) for sequence in range(1, 6)]
        assert replayed == expected

    def test_random_scheduler_restores_onto_a_fresh_instance(self):
        source = create_scheduler("random", seed=3)
        for sequence in range(7):
            source.delay("x", "y", sequence)
        fresh = create_scheduler("random", seed=999)
        fresh.setstate(source.getstate())
        assert fresh.delay("x", "y", 7) == source.delay("x", "y", 7)

    def test_random_scheduler_accepts_json_shaped_state(self):
        # The checkpoint codec hands tuples back as (possibly nested) lists
        # of ints; setstate must coerce them for random.Random.
        source = create_scheduler("random", seed=3)
        source.delay("a", "b", 0)
        tag, (version, internal, gauss) = source.getstate()
        fresh = create_scheduler("random", seed=0)
        fresh.setstate((tag, (version, list(internal), gauss)))
        assert fresh.delay("a", "b", 1) == source.delay("a", "b", 1)

    def test_random_scheduler_rejects_foreign_state(self):
        scheduler = create_scheduler("random", seed=3)
        with pytest.raises(ValueError, match="uniform-rng"):
            scheduler.setstate(("some-other-scheduler", ()))

    def test_async_snapshot_carries_the_scheduler_state(self):
        simulator = create_network("async-direct", network="fast", seed=9, initial_graph=GRAPH)
        nodes = sorted(GRAPH.nodes())
        simulator.apply(EdgeInsertion(nodes[0], nodes[2]))
        snapshot = simulator.snapshot()
        assert snapshot.scheduler_state is not None
        assert snapshot.scheduler_state[0] == "uniform-rng"
        resumed = create_network("async-direct", network="fast", seed=1)
        resumed.restore(snapshot)
        assert resumed._scheduler.getstate() == snapshot.scheduler_state

    def test_synchronous_snapshots_have_no_scheduler_state(self):
        assert _simulator("buffered", "dict").snapshot().scheduler_state is None
        assert _simulator("direct", "fast").snapshot().scheduler_state is None


def test_snapshot_counts_and_records():
    simulator = _simulator("buffered", "dict")
    snapshot = simulator.snapshot()
    assert isinstance(snapshot, NetworkSnapshot)
    assert snapshot.num_nodes == GRAPH.num_nodes()
    assert snapshot.num_changes == 0
