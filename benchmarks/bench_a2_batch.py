"""A2b (extension) -- batched churn: native fast-engine batches vs template batches.

The engine-API redesign made :meth:`~repro.core.engine_api.MISEngine.apply_batch`
a first-class method of every backend, replacing the template-only
``supports_batch`` path.  This benchmark records the resulting hot-path win:
drive both backends through the identical seeded churn sequence *in batches*
and meter the mean wall-clock cost per batch.

The template pays O(n) per batch regardless of the influenced set (it copies
the full state dict per propagation level and rescans all nodes for
adjustments); the fast engine applies the graph deltas to its flat arrays and
runs its single-change repair walk from all the dirty ids at once, so its
cost tracks the influenced neighborhood.  Acceptance bar: >= 5x at the
largest size, with identical MIS outputs (asserted -- a free conformance
check every run).

Results are emitted as a table and as JSON (``benchmarks/results/``) so the
performance trajectory is recorded in version control and diffed per commit
by ``benchmarks/report.py``.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.core.dynamic_mis import DynamicMIS
from repro.graph.generators import erdos_renyi_graph
from repro.workloads.sequences import edge_churn_sequence

from harness import benchmark_seeds, emit, emit_json, emit_table, run_once

SIZES = (500, 1000, 2000, 5000)
AVERAGE_DEGREE = 8
NUM_CHANGES = 240
BATCH_SIZE = 12
MASTER_SEED = 20260730
TARGET_SPEEDUP_AT_MAX_N = 5.0


def _time_batched(engine: str, graph, batches, seed: int, repetitions: int = 3) -> Dict:
    # Best-of-N: replays are bit-identical (asserted by the callers' output
    # checks), so the min discards scheduler jitter and one-time costs
    # (cold caches, lazy imports) without changing any measured semantics.
    elapsed = float("inf")
    for _ in range(repetitions):
        maintainer = DynamicMIS(seed=seed, initial_graph=graph, engine=engine)
        start = time.perf_counter()
        for batch in batches:
            maintainer.apply_batch(batch)
        elapsed = min(elapsed, time.perf_counter() - start)
    maintainer.verify()
    stats = maintainer.statistics
    return {
        "engine": engine,
        "per_batch_us": elapsed / len(batches) * 1e6,
        "total_s": elapsed,
        "final_mis": maintainer.mis(),
        "total_adjustments": stats.batches.total("num_adjustments"),
        "adjustments_per_change": stats.mean_batch_adjustments_per_change(),
    }


def run_experiment(master_seed: int = MASTER_SEED) -> Dict:
    graph_seed, workload_seed, engine_seed = benchmark_seeds(master_seed, 3)
    rows: List[List] = []
    series: List[Dict] = []
    for n in SIZES:
        graph = erdos_renyi_graph(n, AVERAGE_DEGREE / (n - 1), seed=graph_seed)
        changes = edge_churn_sequence(graph, NUM_CHANGES, seed=workload_seed)
        batches = [
            changes[start : start + BATCH_SIZE]
            for start in range(0, len(changes), BATCH_SIZE)
        ]
        template = _time_batched("template", graph, batches, engine_seed)
        fast = _time_batched("fast", graph, batches, engine_seed)
        assert template["final_mis"] == fast["final_mis"], "backends diverged!"
        assert template["total_adjustments"] == fast["total_adjustments"]
        speedup = template["per_batch_us"] / fast["per_batch_us"]
        rows.append([n, template["per_batch_us"], fast["per_batch_us"], speedup])
        series.append(
            {
                "n": n,
                "num_changes": len(changes),
                "batch_size": BATCH_SIZE,
                "template_per_batch_us": round(template["per_batch_us"], 3),
                "fast_per_batch_us": round(fast["per_batch_us"], 3),
                "speedup": round(speedup, 3),
                "adjustments_per_change": round(fast["adjustments_per_change"], 4),
                "final_mis_size": len(fast["final_mis"]),
            }
        )
    return {
        "rows": rows,
        "series": series,
        "speedup_at_max_n": rows[-1][3],
        "python": sys.version.split()[0],
        "average_degree": AVERAGE_DEGREE,
        "batch_size": BATCH_SIZE,
        "master_seed": master_seed,
    }


def _payload(results: Dict) -> Dict:
    return {
        "series": results["series"],
        "average_degree": results["average_degree"],
        "batch_size": results["batch_size"],
        "master_seed": results["master_seed"],
        "python": results["python"],
    }


def test_a2_batched_backends(benchmark):
    results = run_once(benchmark, run_experiment)
    emit_table(
        "A2b: per-batch apply time, template vs fast engine (identical outputs)",
        ["n", "template us/batch", "fast us/batch", "speedup"],
        [[n, f"{t:.1f}", f"{f:.1f}", f"{s:.1f}x"] for n, t, f, s in results["rows"]],
    )
    emit(
        "A2b: native batch apply",
        [
            {
                "row": f"fast-engine batched speedup at n={SIZES[-1]}",
                "paper": f">= {TARGET_SPEEDUP_AT_MAX_N}x (acceptance bar)",
                "measured": f"{results['speedup_at_max_n']:.1f}x",
                "verdict": "pass"
                if results["speedup_at_max_n"] >= TARGET_SPEEDUP_AT_MAX_N
                else "CHECK",
            },
            {
                "row": "identical MIS outputs and adjustment totals per size",
                "paper": "exact",
                "measured": "exact (asserted)",
                "verdict": "pass",
            },
        ],
    )
    emit_json("a2_batch_backends", _payload(results))
    # The 5x bar is reported in the claim table (and held by the recorded
    # trajectory points); the hard assert uses a 2x floor so a noisy shared
    # CI runner cannot fail the nightly on timing jitter alone.
    assert results["speedup_at_max_n"] >= 2.0
    speedups = [row[3] for row in results["rows"]]
    assert speedups[-1] > speedups[0]


if __name__ == "__main__":
    outcome = run_experiment()
    emit_json("a2_batch_backends", _payload(outcome))
    for row in outcome["rows"]:
        print(row)
