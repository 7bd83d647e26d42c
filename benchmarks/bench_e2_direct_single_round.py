"""E2 -- Corollary 6: the direct implementation needs one adjustment and one
round per change in expectation, in the synchronous AND asynchronous models.

Paper claim: a direct distributed implementation of the template has, in
expectation, a single adjustment and a single round, both synchronously and
asynchronously (where "round" is the longest communication path).

Reproduction: run the direct synchronous protocol and the asynchronous
event-driven engine (with random and adversarial delay schedulers) over the
same change sequences and report the mean adjustments, rounds and causal
depth.  All three run on the fast network core, whose random scheduler
draws delays in adjacency-row order, so the results do not depend on the
interpreter's string hash seed (the dict core's neighbor sets of ``m<k>``
labels do).
"""

from __future__ import annotations

from typing import Dict

from repro.distributed.network_api import create_network
from repro.distributed.scheduler import create_scheduler
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.sequences import mixed_churn_sequence

from harness import emit, run_once

NUM_NODES = 50
CHANGES = 120
SEEDS = range(3)


def run_experiment() -> Dict:
    sync_rounds, sync_adjustments = [], []
    async_random_depth, async_adversarial_depth, async_adjustments = [], [], []
    for seed in SEEDS:
        graph = erdos_renyi_graph(NUM_NODES, 3.0 / NUM_NODES, seed=seed)
        changes = mixed_churn_sequence(graph, CHANGES, seed=seed + 10)

        synchronous = create_network("direct", network="fast", seed=seed + 20, initial_graph=graph)
        for record in synchronous.apply_sequence(changes):
            sync_rounds.append(record.rounds)
            sync_adjustments.append(record.adjustments)
        synchronous.verify()

        asynchronous = create_network(
            "async-direct",
            network="fast",
            seed=seed + 20,
            initial_graph=graph,
            scheduler=create_scheduler("random", seed=seed + 30),
        )
        for record in asynchronous.apply_sequence(changes):
            async_random_depth.append(record.async_causal_depth)
            async_adjustments.append(record.adjustments)
        asynchronous.verify()

        adversarial = create_network(
            "async-direct",
            network="fast",
            seed=seed + 20,
            initial_graph=graph,
            scheduler=create_scheduler("adversarial", seed=seed + 40),
        )
        for record in adversarial.apply_sequence(changes):
            async_adversarial_depth.append(record.async_causal_depth)
        adversarial.verify()

    def average(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "sync_mean_rounds": average(sync_rounds),
        "sync_mean_adjustments": average(sync_adjustments),
        "async_mean_adjustments": average(async_adjustments),
        "async_random_mean_depth": average(async_random_depth),
        "async_adversarial_mean_depth": average(async_adversarial_depth),
        "sync_max_rounds": max(sync_rounds) if sync_rounds else 0,
    }


def test_e2_direct_single_round_and_adjustment(benchmark):
    result = run_once(benchmark, run_experiment)

    emit(
        "E2 / Corollary 6 -- direct implementation, synchronous and asynchronous",
        [
            {
                "row": "sync: mean adjustments per change",
                "paper": "1 in expectation",
                "measured": result["sync_mean_adjustments"],
                "verdict": "pass" if result["sync_mean_adjustments"] <= 1.15 else "CHECK",
            },
            {
                "row": "sync: mean rounds per change",
                "paper": "1 in expectation",
                "measured": result["sync_mean_rounds"],
                "verdict": "pass" if result["sync_mean_rounds"] <= 2.0 else "CHECK",
            },
            {
                "row": "async: mean adjustments per change",
                "paper": "1 in expectation",
                "measured": result["async_mean_adjustments"],
                "verdict": "pass" if result["async_mean_adjustments"] <= 1.15 else "CHECK",
            },
            {
                "row": "async (random delays): mean causal depth",
                "paper": "1 in expectation",
                "measured": result["async_random_mean_depth"],
                "verdict": "pass" if result["async_random_mean_depth"] <= 2.0 else "CHECK",
            },
            {
                "row": "async (adversarial delays): mean causal depth",
                "paper": "1 in expectation",
                "measured": result["async_adversarial_mean_depth"],
                "verdict": "pass" if result["async_adversarial_mean_depth"] <= 2.0 else "CHECK",
            },
        ],
    )

    assert result["sync_mean_adjustments"] <= 1.15
    assert result["async_mean_adjustments"] <= 1.15
    assert result["sync_mean_rounds"] <= 2.5
    assert result["async_random_mean_depth"] <= 2.5
    assert result["async_adversarial_mean_depth"] <= 2.5
