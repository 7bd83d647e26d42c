"""E4 -- static/dynamic separation: recompute-with-a-static-algorithm vs the paper.

Paper claim: running a static MIS algorithm after every change costs
Theta(log n) rounds (and Omega(n) broadcasts) per change -- the classic
lower bounds for the static model are super-constant -- while the paper's
dynamic algorithm pays O(1) rounds and broadcasts per change, independent of
n.  The gap must therefore *grow* with n.

Reproduction: sweep n, apply the same edge-churn sequence to (a) Algorithm 2,
(b) the direct protocol, (c) Luby-recompute and (d) Ghaffari-style-recompute,
and report mean rounds and broadcasts per change for each.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.estimators import growth_exponent
from repro.baselines.recompute import StaticRecomputeDynamicMIS
from repro.distributed.network_api import create_network
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.sequences import edge_churn_sequence

from harness import emit, emit_table, run_once

NODE_COUNTS = (20, 40, 80, 160)
CHANGES = 40


def run_experiment() -> Dict:
    rows: List[List] = []
    series: Dict[str, List[float]] = {
        "ours_rounds": [],
        "ours_broadcasts": [],
        "direct_rounds": [],
        "luby_rounds": [],
        "luby_broadcasts": [],
        "ghaffari_rounds": [],
    }
    for num_nodes in NODE_COUNTS:
        graph = erdos_renyi_graph(num_nodes, 4.0 / num_nodes, seed=1)
        changes = edge_churn_sequence(graph, CHANGES, seed=2)

        ours = create_network("buffered", seed=3, initial_graph=graph)
        ours.apply_sequence(changes)
        direct = create_network("direct", seed=3, initial_graph=graph)
        direct.apply_sequence(changes)
        luby = StaticRecomputeDynamicMIS("luby", seed=3, initial_graph=graph)
        luby.apply_sequence(changes)
        ghaffari = StaticRecomputeDynamicMIS("ghaffari", seed=3, initial_graph=graph)
        ghaffari.apply_sequence(changes)

        series["ours_rounds"].append(ours.metrics.mean("rounds"))
        series["ours_broadcasts"].append(ours.metrics.mean("broadcasts"))
        series["direct_rounds"].append(direct.metrics.mean("rounds"))
        series["luby_rounds"].append(luby.metrics.mean("rounds"))
        series["luby_broadcasts"].append(luby.metrics.mean("broadcasts"))
        series["ghaffari_rounds"].append(ghaffari.metrics.mean("rounds"))

        rows.append(
            [
                num_nodes,
                ours.metrics.mean("rounds"),
                ours.metrics.mean("broadcasts"),
                direct.metrics.mean("rounds"),
                luby.metrics.mean("rounds"),
                luby.metrics.mean("broadcasts"),
                ghaffari.metrics.mean("rounds"),
            ]
        )
    return {"rows": rows, "series": series}


def test_e4_static_vs_dynamic_separation(benchmark):
    result = run_once(benchmark, run_experiment)
    rows = result["rows"]
    series = result["series"]

    emit_table(
        "E4 -- per-change cost vs n (edge churn)",
        [
            "n",
            "Alg2 rounds",
            "Alg2 broadcasts",
            "direct rounds",
            "Luby-recompute rounds",
            "Luby-recompute broadcasts",
            "Ghaffari-recompute rounds",
        ],
        rows,
    )

    ours_growth = growth_exponent(list(NODE_COUNTS), series["ours_broadcasts"])
    luby_growth = growth_exponent(list(NODE_COUNTS), series["luby_broadcasts"])
    emit(
        "E4 verdicts",
        [
            {
                "row": "ours: broadcast growth exponent in n",
                "paper": "O(1), exponent ~0",
                "measured": ours_growth,
                "verdict": "pass" if abs(ours_growth) < 0.35 else "CHECK",
            },
            {
                "row": "Luby recompute: broadcast growth exponent in n",
                "paper": "Theta(n log n), exponent ~1",
                "measured": luby_growth,
                "verdict": "pass" if luby_growth > 0.7 else "CHECK",
            },
            {
                "row": "round gap at largest n (Luby / ours)",
                "paper": "grows with n",
                "measured": series["luby_rounds"][-1] / max(series["ours_rounds"][-1], 0.1),
                "verdict": "pass",
            },
        ],
    )

    # Shape assertions: ours is flat, the recompute baselines grow.
    assert abs(ours_growth) < 0.5
    assert luby_growth > 0.6
    assert series["luby_rounds"][-1] > series["ours_rounds"][-1]
    assert series["luby_broadcasts"][-1] > 5 * series["ours_broadcasts"][-1]
