"""A4 (extension) -- template vs fast engine backends on growing graphs.

The paper's Theorem 1 makes the *expected adjustment count* per change O(1);
the reproduction's production goal (ROADMAP) additionally needs the
*wall-clock* per-change cost to be dominated by the influenced-set walk, not
by bookkeeping.  The template engine pays O(n) per change regardless of |S|
(it snapshots the full state dict and rescans all nodes for adjustments); the
array-backed fast engine touches only the influenced neighborhood.

Reproduction: sweep n with constant average degree, drive both backends
through the identical seeded edge-churn sequence, and meter the mean
per-change apply time.  The shape to check: the template's per-change cost
grows linearly with n while the fast engine's stays flat, with the gap
crossing 3x well before n = 5000 (the acceptance bar for the backend).  Both
backends must also end with identical MIS outputs -- a free conformance
check on every benchmark run.

Results are emitted as a table and as JSON (``benchmarks/results/``) so the
performance trajectory is recorded in version control.
"""

from __future__ import annotations

import sys
from typing import Dict, List

from repro.scenario import BackendSpec, GraphSpec, ScenarioSpec, WorkloadSpec

from harness import benchmark_seeds, emit, emit_json, emit_table, run_once, run_scenario_session

SIZES = (500, 1000, 2000, 5000)
AVERAGE_DEGREE = 8
NUM_CHANGES = 400
MASTER_SEED = 20260729
TARGET_SPEEDUP_AT_5000 = 3.0


def _scenario(n: int, graph_seed: int, workload_seed: int, engine_seed: int) -> ScenarioSpec:
    """One sweep point as a declarative scenario (the backend is swept over it)."""
    return ScenarioSpec(
        name=f"a4-edge-churn-n{n}",
        seed=engine_seed,
        graph=GraphSpec(
            family="erdos_renyi",
            nodes=n,
            seed=graph_seed,
            params={"edge_probability": AVERAGE_DEGREE / (n - 1)},
        ),
        workload=WorkloadSpec(kind="edge_churn", num_changes=NUM_CHANGES, seed=workload_seed),
        backend=BackendSpec(runner="sequential"),
    )


def _time_engine(engine: str, spec: ScenarioSpec) -> Dict:
    result, session = run_scenario_session(spec.with_backend(engine=engine))
    return {
        "engine": engine,
        "per_change_us": result.per_change_us,
        "total_s": result.elapsed_s,
        "num_changes": result.num_changes,
        "final_mis": session.mis(),
        "mean_adjustments": session.maintainer.statistics.mean_adjustments(),
    }


def run_experiment(master_seed: int = MASTER_SEED) -> Dict:
    graph_seed, workload_seed, engine_seed = benchmark_seeds(master_seed, 3)
    rows: List[List] = []
    series: List[Dict] = []
    for n in SIZES:
        spec = _scenario(n, graph_seed, workload_seed, engine_seed)
        template = _time_engine("template", spec)
        fast = _time_engine("fast", spec)
        assert template["final_mis"] == fast["final_mis"], "backends diverged!"
        assert template["mean_adjustments"] == fast["mean_adjustments"]
        speedup = template["per_change_us"] / fast["per_change_us"]
        rows.append(
            [n, template["per_change_us"], fast["per_change_us"], speedup]
        )
        series.append(
            {
                "n": n,
                "num_changes": template["num_changes"],
                "template_per_change_us": round(template["per_change_us"], 3),
                "fast_per_change_us": round(fast["per_change_us"], 3),
                "speedup": round(speedup, 3),
                "mean_adjustments": round(fast["mean_adjustments"], 4),
                "final_mis_size": len(fast["final_mis"]),
            }
        )
    return {
        "rows": rows,
        "series": series,
        "speedup_at_max_n": rows[-1][3],
        "python": sys.version.split()[0],
        "average_degree": AVERAGE_DEGREE,
        "master_seed": master_seed,
    }


def test_a4_engine_backends(benchmark):
    results = run_once(benchmark, run_experiment)
    emit_table(
        "A4: per-change apply time, template vs fast engine (identical outputs)",
        ["n", "template us/change", "fast us/change", "speedup"],
        [[n, f"{t:.1f}", f"{f:.1f}", f"{s:.1f}x"] for n, t, f, s in results["rows"]],
    )
    emit(
        "A4: array-backed engine backend",
        [
            {
                "row": "fast-engine speedup per change at n=5000",
                "paper": f">= {TARGET_SPEEDUP_AT_5000}x (acceptance bar)",
                "measured": f"{results['speedup_at_max_n']:.1f}x",
                "verdict": "pass"
                if results["speedup_at_max_n"] >= TARGET_SPEEDUP_AT_5000
                else "CHECK",
            },
            {
                "row": "identical MIS outputs on every size",
                "paper": "exact",
                "measured": "exact (asserted)",
                "verdict": "pass",
            },
        ],
    )
    emit_json("a4_engine_backends", _payload(results))
    # The fast engine's per-change cost must stay roughly flat while the
    # template's grows ~linearly: require the acceptance bar at n=5000 and
    # monotone separation across the sweep.
    assert results["speedup_at_max_n"] >= TARGET_SPEEDUP_AT_5000
    speedups = [row[3] for row in results["rows"]]
    assert speedups[-1] > speedups[0]


def _payload(results: Dict) -> Dict:
    return {
        "series": results["series"],
        "average_degree": results["average_degree"],
        "master_seed": results["master_seed"],
        "python": results["python"],
    }


if __name__ == "__main__":
    outcome = run_experiment()
    emit_json("a4_engine_backends", _payload(outcome))
    for row in outcome["rows"]:
        print(row)
