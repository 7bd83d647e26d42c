"""Scenario: leader scheduling in an unreliable sensor network.

Run with::

    python examples/sensor_network_scheduling.py

A field of sensors communicates over a geometric radio graph.  An MIS of the
communication graph is the classic choice of "cluster heads": no two heads
interfere and every sensor has a head in range.  Sensors crash abruptly, are
redeployed, wake up from sleep mode (the paper's "unmuting"), and links
appear/disappear as the radio environment changes.

This example runs the paper's *constant-broadcast* distributed protocol
(Algorithm 2) on a simulated synchronous radio network and reports, per type
of event, how many rounds and broadcasts the repair took -- the quantities
bounded by Theorem 7.  It then shows the same workload handled by re-running
Luby's static algorithm after every event, which is what the paper improves
on.
"""

from __future__ import annotations

import random

from repro.analysis.reporting import format_table
from repro.baselines.recompute import StaticRecomputeDynamicMIS
from repro.distributed.network_api import create_network
from repro.graph.generators import random_geometric_graph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
)


def build_event_stream(network, num_events: int, seed: int):
    """Generate a sensor-network event stream that is valid for the evolving graph."""
    rng = random.Random(seed)
    events = []
    working = network.graph.copy()
    asleep = []
    fresh = 0
    for _ in range(num_events):
        nodes = sorted(working.nodes(), key=repr)
        roll = rng.random()
        if roll < 0.25 and len(nodes) > 4:
            victim = rng.choice(nodes)
            events.append(NodeDeletion(victim, graceful=rng.random() < 0.4))
            neighbors = sorted(working.neighbors(victim), key=repr)
            asleep.append((victim, tuple(neighbors)))
            working.remove_node(victim)
        elif roll < 0.40 and asleep:
            sensor, old_neighbors = asleep.pop(0)
            alive = tuple(v for v in old_neighbors if working.has_node(v))
            events.append(NodeUnmuting(sensor, alive))
            working.add_node_with_edges(sensor, alive)
        elif roll < 0.55:
            fresh += 1
            name = f"sensor{fresh}"
            alive = tuple(v for v in nodes if rng.random() < 0.1)
            events.append(NodeInsertion(name, alive))
            working.add_node_with_edges(name, alive)
        elif roll < 0.8 and working.num_edges() > 0:
            u, v = rng.choice(working.edges())
            events.append(EdgeDeletion(u, v, graceful=rng.random() < 0.5))
            working.remove_edge(u, v)
        else:
            for _ in range(50):
                u, v = rng.choice(nodes), rng.choice(nodes)
                if u != v and not working.has_edge(u, v):
                    events.append(EdgeInsertion(u, v))
                    working.add_edge(u, v)
                    break
    return events


def main() -> None:
    field = random_geometric_graph(num_nodes=50, radius=0.25, seed=3)
    network = create_network("buffered", seed=17, initial_graph=field)
    print(
        f"sensor field: {field.num_nodes()} sensors, {field.num_edges()} radio links, "
        f"{len(network.mis())} cluster heads initially"
    )

    events = build_event_stream(network, num_events=150, seed=23)
    for event in events:
        network.apply(event)
    network.verify()

    metrics = network.metrics
    rows = []
    for kind in metrics.change_kinds():
        rows.append(
            [
                kind,
                metrics.mean("adjustments", kind),
                metrics.mean("rounds", kind),
                metrics.mean("broadcasts", kind),
                metrics.maximum("broadcasts", kind),
            ]
        )
    print()
    print(
        format_table(
            ["event type", "mean adjustments", "mean rounds", "mean broadcasts", "max broadcasts"],
            rows,
            title="Algorithm 2: repair cost per sensor-network event (Theorem 7)",
            float_format=".3f",
        )
    )

    baseline = StaticRecomputeDynamicMIS("luby", seed=17, initial_graph=field)
    baseline.apply_sequence(events)
    print()
    print(
        format_table(
            ["algorithm", "mean rounds / event", "mean broadcasts / event"],
            [
                ["Algorithm 2 (this paper)", metrics.mean("rounds"), metrics.mean("broadcasts")],
                [
                    "Luby recompute after every event",
                    baseline.metrics.mean("rounds"),
                    baseline.metrics.mean("broadcasts"),
                ],
            ],
            title="Total repair cost comparison",
            float_format=".2f",
        )
    )
    print()
    print(f"final cluster heads: {len(network.mis())} of {network.graph.num_nodes()} sensors")


if __name__ == "__main__":
    main()
