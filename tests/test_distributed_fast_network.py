"""Unit tests for the id-interned network core and the network registry.

The round-by-round equivalence with the dict simulators is pinned down by
``tests/conformance/test_protocol_differential.py``; this file covers the
pieces around it: the backend registry and its error messages, selecting
a core through ``create_network``, label interning with free-list reuse,
the materialized runtime views, the scheduler channel cache, and the
delivery that visits only the receivers a broadcast teaches something.
"""

from __future__ import annotations

import pytest

from repro.distributed import BufferedMISNetwork, FastBufferedMISNetwork
from repro.distributed.fast_network import CODE_C, CODE_M, CODE_M_BAR
from repro.distributed.network_api import (
    NETWORK_NAMES,
    UnknownNetworkError,
    available_networks,
    create_network,
    network_protocols,
    register_network,
    resolve_network,
    unregister_network,
)
from repro.distributed.scheduler import AdversarialDelayScheduler
from repro.graph.dynamic_graph import GraphError
from repro.graph.generators import erdos_renyi_graph, path_graph, star_graph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_builtin_networks_are_registered() -> None:
    assert available_networks() == ("dict", "fast")
    assert set(network_protocols("fast")) == {"buffered", "direct", "async-direct"}
    assert "fast" in NETWORK_NAMES and list(NETWORK_NAMES) == ["dict", "fast"]


def test_unknown_network_has_did_you_mean_hint() -> None:
    with pytest.raises(UnknownNetworkError, match="did you mean 'fast'"):
        resolve_network("fats", "buffered")
    with pytest.raises(UnknownNetworkError, match="did you mean 'buffered'"):
        resolve_network("fast", "bufferd")
    with pytest.raises(UnknownNetworkError):
        network_protocols("nope")


def test_create_network_builds_each_backend() -> None:
    graph = star_graph(5)
    for network, expected in (("dict", BufferedMISNetwork), ("fast", FastBufferedMISNetwork)):
        simulator = create_network("buffered", network=network, seed=2, initial_graph=graph)
        assert type(simulator) is expected
        simulator.verify(reference_engine="template")


def test_register_network_guards() -> None:
    with pytest.raises(ValueError, match="already registered"):
        register_network("fast", {"buffered": FastBufferedMISNetwork})
    with pytest.raises(ValueError, match="at least one protocol"):
        register_network("empty", {})
    with pytest.raises(TypeError, match="must be callable"):
        register_network("bad", {"buffered": "not-a-factory"})
    register_network("custom-test", {"buffered": FastBufferedMISNetwork})
    try:
        assert "custom-test" in available_networks()
        simulator = create_network("buffered", network="custom-test", seed=1)
        assert isinstance(simulator, FastBufferedMISNetwork)
    finally:
        unregister_network("custom-test")
    assert "custom-test" not in available_networks()


def test_third_backend_passes_protocol_differential() -> None:
    """A backend registered purely through the public registry is comparable."""
    from repro.testing.differential import conformance_workload
    from repro.testing.protocol_differential import replay_protocol_differential

    register_network("fast-clone-test", {"buffered": FastBufferedMISNetwork})
    try:
        graph, changes = conformance_workload(13, num_changes=25, start_nodes=14)
        result = replay_protocol_differential(
            graph, changes, seed=13, networks=("dict", "fast-clone-test", "fast")
        )
        assert result.networks == ("dict", "fast-clone-test", "fast")
    finally:
        unregister_network("fast-clone-test")


# ----------------------------------------------------------------------
# Selecting a core through the registry
# ----------------------------------------------------------------------
def test_fast_selector_matches_dict_outputs() -> None:
    graph = erdos_renyi_graph(20, 0.2, seed=3)
    dict_network = create_network("buffered", seed=9, initial_graph=graph)
    fast_network = create_network("buffered", network="fast", seed=9, initial_graph=graph)
    assert dict_network.states() == fast_network.states()
    edge = dict_network.graph.edges()[0]
    dict_network.apply(EdgeDeletion(*edge))
    fast_network.apply(EdgeDeletion(*edge))
    assert dict_network.states() == fast_network.states()


# ----------------------------------------------------------------------
# Interning, free-list reuse and views
# ----------------------------------------------------------------------
def test_free_list_reuse_keeps_capacity_bounded() -> None:
    network = FastBufferedMISNetwork(seed=5, initial_graph=star_graph(6))
    base_capacity = network.capacity()
    for wave in range(4):
        label = ("fresh", wave)
        network.apply(NodeInsertion(label, (0,)))
        network.apply(NodeDeletion(label, graceful=False))
        network.check_interning_invariants()
    assert network.capacity() <= base_capacity + 1
    assert network.free_slots() >= 1
    network.verify()


def test_graph_view_matches_dict_topology() -> None:
    graph = erdos_renyi_graph(15, 0.25, seed=6)
    network = FastBufferedMISNetwork(seed=2, initial_graph=graph)
    view = network.graph
    assert view.num_nodes() == graph.num_nodes()
    assert view.num_edges() == graph.num_edges()
    assert sorted(view.nodes()) == sorted(graph.nodes())
    assert view.edges() == graph.edges()
    for node in graph.nodes():
        assert view.degree(node) == graph.degree(node)
        assert view.neighbors(node) == graph.neighbors(node)
    assert view.copy() == graph


def test_node_runtime_view_matches_dict_runtime() -> None:
    graph = erdos_renyi_graph(14, 0.3, seed=8)
    dict_network = BufferedMISNetwork(seed=4, initial_graph=graph)
    fast_network = FastBufferedMISNetwork(seed=4, initial_graph=graph)
    for node in graph.nodes():
        expected = dict_network.node_runtime(node)
        actual = fast_network.node_runtime(node)
        assert actual.node_id == expected.node_id
        assert actual.key == expected.key
        assert actual.state is expected.state
        assert actual.neighbors == expected.neighbors
        assert actual.neighbor_keys == expected.neighbor_keys
        assert actual.neighbor_states == expected.neighbor_states


def test_verify_accepts_registered_reference_engines() -> None:
    network = FastBufferedMISNetwork(seed=3, initial_graph=star_graph(8))
    network.verify()  # default: fast
    network.verify(reference_engine="template")
    from repro.core.engine_api import UnknownEngineError

    with pytest.raises(UnknownEngineError):
        network.verify(reference_engine="no-such-engine")


def test_metrics_surface_matches_dict(small_random_graph) -> None:
    dict_network = BufferedMISNetwork(seed=7, initial_graph=small_random_graph)
    fast_network = FastBufferedMISNetwork(seed=7, initial_graph=small_random_graph)
    edge = dict_network.graph.edges()[2]
    dict_metrics = dict_network.apply(EdgeDeletion(*edge))
    fast_metrics = fast_network.apply(EdgeDeletion(*edge))
    assert dict_metrics.as_dict() == fast_metrics.as_dict()
    assert dict_network.metrics.summary() == fast_network.metrics.summary()


@pytest.mark.parametrize("protocol", ["buffered", "direct", "async-direct"])
def test_invalid_changes_fail_as_on_the_dict_core(protocol) -> None:
    """The fast cores validate against their store: same errors, nothing applied."""
    invalid = [
        EdgeInsertion(0, 1),
        EdgeInsertion(0, 99),
        EdgeInsertion(1, 1),
        EdgeDeletion(1, 2),
        NodeInsertion(0),
        NodeInsertion("new", (99,)),
        NodeUnmuting("new", (1, 1)),
        NodeDeletion(99),
    ]
    reference = create_network(protocol, seed=2, initial_graph=star_graph(4))
    fast = create_network(protocol, network="fast", seed=2, initial_graph=star_graph(4))
    for change in invalid:
        with pytest.raises(GraphError) as expected:
            reference.apply(change)
        with pytest.raises(GraphError) as actual:
            fast.apply(change)
        assert str(actual.value) == str(expected.value)
    assert fast.states() == reference.states()
    assert fast.metrics.num_changes == 0
    fast.check_interning_invariants()


# ----------------------------------------------------------------------
# Scheduler channel cache
# ----------------------------------------------------------------------
def test_adversarial_scheduler_cache_is_consistent() -> None:
    fresh = AdversarialDelayScheduler(seed=11)
    cached = AdversarialDelayScheduler(seed=11)
    pairs = [(u, v) for u in range(6) for v in range(6) if u != v]
    first = {pair: cached.delay(pair[0], pair[1], 0) for pair in pairs}
    # Cached re-reads and a fresh instance both reproduce the same delays.
    for pair in pairs:
        assert cached.delay(pair[0], pair[1], 99) == first[pair]
        assert fresh.delay(pair[0], pair[1], 7) == first[pair]
    assert any(delay > 10 for delay in first.values()), "no slow channel drawn"


# ----------------------------------------------------------------------
# Delivery visits only the receivers a broadcast teaches something
# ----------------------------------------------------------------------
def _count_node_steps(network, monkeypatch) -> list:
    """Record the id of every node that takes a protocol step."""
    steps = []
    step = network._node_step

    def counting_step(nid, inbox, round_no):
        steps.append(nid)
        return step(nid, inbox, round_no)

    monkeypatch.setattr(network, "_node_step", counting_step)
    return steps


def _trace(network) -> list:
    return [
        (record.round_number, record.messages_delivered, record.broadcasts, record.state_changes)
        for record in network.last_change_trace()
    ]


@pytest.mark.parametrize("protocol", ["direct", "buffered"])
def test_node_insertion_next_to_a_hub_steps_independently_of_its_degree(
    protocol, monkeypatch
) -> None:
    """The hub's introduction teaches its d leaves nothing: none of them steps."""
    step_counts = []
    for leaves in (100, 1000):
        graph = star_graph(leaves)
        change = NodeInsertion("new", (0, 1))
        reference = create_network(protocol, seed=3, initial_graph=graph)
        fast = create_network(protocol, network="fast", seed=3, initial_graph=graph)
        reference.enable_round_logging()
        fast.enable_round_logging()
        steps = _count_node_steps(fast, monkeypatch)
        expected = reference.apply(change)
        actual = fast.apply(change)
        assert actual.as_dict() == expected.as_dict()
        assert actual.adjusted_nodes == expected.adjusted_nodes
        assert _trace(fast) == _trace(reference)
        assert fast.states() == reference.states()
        fast.verify()
        step_counts.append(len(steps))
    assert step_counts[0] == step_counts[1] <= 5


def _stable_path(protocol: str):
    """A fast network on the path 0-1-2, with node ids by label."""
    network = create_network(protocol, network="fast", seed=4, initial_graph=path_graph(3))
    return network, network._id_of


def _with_state(message: tuple, code: int) -> tuple:
    return message[:2] + (code,) + message[3:]


def _flipped(message: tuple) -> tuple:
    return _with_state(message, CODE_M_BAR if message[2] == CODE_M else CODE_M)


def test_deliver_drops_a_known_key_and_state_but_counts_it() -> None:
    network, ids = _stable_path("direct")
    state_message = network._state_broadcast(ids[1])
    id_message = network._id_broadcast(ids[1])
    inboxes, delivered = network._deliver([state_message, id_message])
    assert inboxes == {}
    assert delivered == 4


def _connect_unaware(network, u: int, v: int) -> None:
    """Add the edge ``{u, v}`` as an edge insertion does before its first
    round: neither endpoint knows the other's key yet."""
    network._add_half_edge(u, v)
    network._add_half_edge(v, u)
    network._num_edges += 1


def test_unaware_sets_follow_the_key_bits() -> None:
    """A receiver leaves a sender's unaware set when it learns the key or
    the edge or a node goes; a set leaves with its last receiver."""
    network = create_network("direct", network="fast", seed=4, initial_graph=star_graph(3))
    a, b, c = (network._id_of[label] for label in (1, 2, 3))
    _connect_unaware(network, a, b)
    _connect_unaware(network, b, c)
    assert network._unaware == {a: {b}, b: {a, c}, c: {b}}
    network._handle_inbox(b, [network._id_broadcast(a)])
    assert network._unaware == {b: {a, c}, c: {b}}
    network._remove_half_edge(b, c)
    network._remove_half_edge(c, b)
    network._num_edges -= 1
    assert network._unaware == {b: {a}}
    network.check_interning_invariants(expect_stable=False)
    network._detach_node(a, 1)
    network._release(a)
    assert network._unaware == {}
    network.check_interning_invariants(expect_stable=False)


def test_restore_rebuilds_the_delivery_bookkeeping() -> None:
    """Restoring into a network mid-change replaces its unaware sets and
    announced states with the snapshot's stable ones."""
    network = create_network("direct", network="fast", seed=4, initial_graph=star_graph(3))
    snapshot = network.snapshot()
    hub, leaf = network._id_of[0], network._id_of[1]
    _connect_unaware(network, leaf, network._id_of[2])
    network._deliver([_flipped(network._state_broadcast(hub))])
    assert network._unaware and network._announced != network._state
    network.restore(snapshot)
    network.check_interning_invariants()


def test_deliver_keeps_an_unknown_key_or_a_new_state() -> None:
    """The announced state reaches only the receivers missing the sender's
    key; a new state reaches the sender's whole row."""
    network = create_network("direct", network="fast", seed=4, initial_graph=star_graph(3))
    ids = network._id_of
    hub, leaves = ids[0], [ids[1], ids[2], ids[3]]
    _connect_unaware(network, leaves[0], leaves[1])
    known_state = network._state_broadcast(leaves[0])
    assert network._deliver([known_state]) == ({leaves[1]: [known_state]}, 2)
    introduction = network._id_broadcast(leaves[0])
    assert network._deliver([introduction]) == ({leaves[1]: [introduction]}, 2)
    new_state = _flipped(network._state_broadcast(hub))
    assert network._deliver([new_state]) == ({leaf: [new_state] for leaf in leaves}, 3)
    assert network._announced[hub] == new_state[2]


def test_deliver_does_not_append_a_known_message_to_a_held_inbox() -> None:
    """Only the new state reaches the middle node: the known states before
    and after it, its own repeat included, reach nobody."""
    network, ids = _stable_path("direct")
    left, middle, right = ids[0], ids[1], ids[2]
    known_left = network._state_broadcast(left)
    new_left = _flipped(known_left)
    known_right = network._state_broadcast(right)
    inboxes, delivered = network._deliver([known_left, new_left, known_right, new_left])
    assert inboxes == {middle: [new_left]}
    assert delivered == 4


@pytest.mark.parametrize("protocol, kept", [("buffered", True), ("direct", False)])
def test_deliver_keeps_a_known_c_only_on_buffered(protocol, kept) -> None:
    """Rules 1-2 fire on every C from an earlier neighbor, so buffered sends
    a C to the whole row even once it is the announced state."""
    network, ids = _stable_path(protocol)
    sender = ids[1]
    message = _with_state(network._state_broadcast(sender), CODE_C)
    inboxes, delivered = network._deliver([message])
    assert inboxes == {ids[0]: [message], ids[2]: [message]}
    assert delivered == 2
    for receiver, inbox in inboxes.items():
        network._handle_inbox(receiver, inbox)
    assert network._announced[sender] == CODE_C
    assert network._deliver([message]) == (inboxes if kept else {}, 2)
