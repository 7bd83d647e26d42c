"""A5 (extension) -- dict vs id-interned network core for the protocols.

The paper's protocol guarantees are *per change* -- O(1) expected
adjustments and broadcasts -- but the dict simulator pays O(n) per change
regardless (before/after output snapshots) plus O(n log n) per round (the
full sorted sweep), which capped protocol experiments at a few thousand
nodes.  The id-interned core (:mod:`repro.distributed.fast_network`) steps
only transient nodes and the receivers a broadcast teaches something each
round, delivers each broadcast to those receivers alone (it tracks which
neighbors miss each node's key and which state its neighbors know, so it
scans no other neighbor), and computes adjustments from an epoch-stamped
touched list, so its per-change cost tracks the repair wave.

Reproduction: sweep n with constant average degree into the tens of
thousands and drive both network backends through the identical seeded
edge-churn workload twice --

* under the **buffered** protocol (Algorithm 2), rebuilt on the declarative
  scenario API: one :class:`~repro.scenario.spec.ScenarioSpec` per sweep
  point, the backend swept over it (``spec x backend`` grid through
  ``harness.run_scenario``);
* under the **asynchronous direct** protocol (the ROADMAP "fast async at
  protocol-benchmark scale" point), with one channel-deterministic
  :class:`~repro.distributed.scheduler.AdversarialDelayScheduler` per
  backend so the dict and fast event loops see the same delay assignment
  and must agree on outputs and metrics exactly.

The shape to check: the dict cores' cost grows linearly with n while the
fast cores' stays flat, with the buffered gap at n >= 20000 far beyond the
10x acceptance bar.  Identical outputs and complexity metrics are asserted
per size -- a free conformance check on every benchmark run.

Additionally measures the checkpoint overhead of the network
snapshot/restore pair (:mod:`repro.distributed.state`): one ``snapshot()``
of topology, states and keys plus a ``restore()`` into a fresh simulator,
which derives each node's knowledge from the states, per backend -- the
cost a scenario session pays each time ``--checkpoint-every`` fires.
The table reports the amortized per-change overhead at a 1k-change
checkpoint cadence (roundtrip / 1000).

Results are emitted as a table and as JSON
(``benchmarks/results/a5_distributed.json``) so the trajectory points are
recorded in version control and gated by ``benchmarks/report.py``.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.distributed.network_api import create_network
from repro.distributed.scheduler import create_scheduler
from repro.scenario import BackendSpec, GraphSpec, ScenarioSpec, WorkloadSpec

from harness import benchmark_seeds, emit, emit_json, emit_table, run_once, run_scenario_session

SIZES = (2000, 5000, 20000)
AVERAGE_DEGREE = 8
NUM_CHANGES = 40
PROTOCOL = "buffered"
MASTER_SEED = 20260731
TARGET_SPEEDUP_AT_MAX_N = 10.0
#: Repetitions per sweep point; the fastest is recorded.  A 40-change run on
#: the fast core finishes in ~1 ms, so single-shot timings are dominated by
#: scheduler jitter on shared runners -- best-of-N keeps the committed
#: speedup trajectory stable enough for the regression gate.
TIMING_REPS = 3


def _scenario(n: int, graph_seed: int, workload_seed: int, network_seed: int) -> ScenarioSpec:
    """One sweep point as a declarative scenario (the backend is swept over it)."""
    return ScenarioSpec(
        name=f"a5-protocol-n{n}",
        seed=network_seed,
        graph=GraphSpec(
            family="erdos_renyi",
            nodes=n,
            seed=graph_seed,
            params={"edge_probability": AVERAGE_DEGREE / (n - 1)},
        ),
        workload=WorkloadSpec(kind="edge_churn", num_changes=NUM_CHANGES, seed=workload_seed),
        backend=BackendSpec(runner="protocol", protocol=PROTOCOL, engine="fast"),
    )


def _time_network(network: str, spec: ScenarioSpec) -> Dict:
    # Keep the whole best repetition, so every recorded number (per-change
    # time, total, metrics, outputs) shares one measurement's provenance.
    best = None
    for _ in range(TIMING_REPS):
        result, session = run_scenario_session(spec.with_backend(network=network))
        if best is None or result.elapsed_s < best[0].elapsed_s:
            best = (result, session)
    result, session = best
    metrics = session.network.metrics
    return {
        "network": network,
        "per_change_us": result.per_change_us,
        "total_s": result.elapsed_s,
        "num_changes": result.num_changes,
        "final_states": session.states(),
        "mean_broadcasts": metrics.mean("broadcasts"),
        "mean_rounds": metrics.mean("rounds"),
        "total_adjustments": metrics.total("adjustments"),
        "checkpoint_us": _checkpoint_roundtrip_us(network, spec, session),
    }


def _checkpoint_roundtrip_us(network: str, spec: ScenarioSpec, session) -> float:
    """Best-of-3 cost of one snapshot + restore roundtrip."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        snapshot = session.network.snapshot()
        fresh = create_network(spec.backend.protocol, network=network, seed=spec.seed)
        fresh.restore(snapshot)
        best = min(best, time.perf_counter() - start)
    assert fresh.states() == session.states(), "restore diverged from the source"
    return best * 1e6


def _time_async_network(network: str, spec: ScenarioSpec) -> Dict:
    """Asynchronous sweep point (best-of-reps, like the buffered sweep)."""
    graph, changes = spec.materialize()
    elapsed, best_simulator = float("inf"), None
    for _ in range(TIMING_REPS):
        simulator = create_network(
            "async-direct",
            network=network,
            seed=spec.seed,
            initial_graph=graph.copy(),
            scheduler=create_scheduler("adversarial", seed=spec.seed),
        )
        start = time.perf_counter()
        simulator.apply_sequence(changes)
        rep_elapsed = time.perf_counter() - start
        if rep_elapsed < elapsed:
            elapsed, best_simulator = rep_elapsed, simulator
    simulator = best_simulator
    simulator.verify(reference_engine="fast")
    metrics = simulator.metrics
    return {
        "network": network,
        "per_change_us": elapsed / len(changes) * 1e6,
        "final_states": simulator.states(),
        "mean_broadcasts": metrics.mean("broadcasts"),
        "total_adjustments": metrics.total("adjustments"),
        "mean_causal_depth": metrics.mean("async_causal_depth"),
    }


def run_experiment(master_seed: int = MASTER_SEED) -> Dict:
    graph_seed, workload_seed, network_seed = benchmark_seeds(master_seed, 3)
    rows: List[List] = []
    async_rows: List[List] = []
    checkpoint_rows: List[List] = []
    series: List[Dict] = []
    async_series: List[Dict] = []
    for n in SIZES:
        spec = _scenario(n, graph_seed, workload_seed, network_seed)
        dict_run = _time_network("dict", spec)
        fast_run = _time_network("fast", spec)
        num_changes = dict_run["num_changes"]
        assert dict_run["final_states"] == fast_run["final_states"], "backends diverged!"
        assert dict_run["total_adjustments"] == fast_run["total_adjustments"]
        assert dict_run["mean_broadcasts"] == fast_run["mean_broadcasts"]
        assert dict_run["mean_rounds"] == fast_run["mean_rounds"]
        speedup = dict_run["per_change_us"] / fast_run["per_change_us"]
        rows.append([n, dict_run["per_change_us"], fast_run["per_change_us"], speedup])
        checkpoint_rows.append(
            [n, dict_run["checkpoint_us"], fast_run["checkpoint_us"]]
        )
        series.append(
            {
                "n": n,
                "num_changes": num_changes,
                "dict_per_change_us": round(dict_run["per_change_us"], 3),
                "fast_per_change_us": round(fast_run["per_change_us"], 3),
                "speedup": round(speedup, 3),
                "dict_checkpoint_us": round(dict_run["checkpoint_us"], 3),
                "fast_checkpoint_us": round(fast_run["checkpoint_us"], 3),
                "checkpoint_speedup": round(
                    dict_run["checkpoint_us"] / fast_run["checkpoint_us"], 3
                ),
                "mean_broadcasts": round(fast_run["mean_broadcasts"], 4),
                "mean_rounds": round(fast_run["mean_rounds"], 4),
                "final_mis_size": sum(fast_run["final_states"].values()),
            }
        )

        dict_async = _time_async_network("dict", spec)
        fast_async = _time_async_network("fast", spec)
        assert dict_async["final_states"] == fast_async["final_states"], "async diverged!"
        assert dict_async["total_adjustments"] == fast_async["total_adjustments"]
        assert dict_async["mean_broadcasts"] == fast_async["mean_broadcasts"]
        async_speedup = dict_async["per_change_us"] / fast_async["per_change_us"]
        async_rows.append(
            [n, dict_async["per_change_us"], fast_async["per_change_us"], async_speedup]
        )
        async_series.append(
            {
                "n": n,
                "num_changes": num_changes,
                "dict_per_change_us": round(dict_async["per_change_us"], 3),
                "fast_per_change_us": round(fast_async["per_change_us"], 3),
                "speedup": round(async_speedup, 3),
                "mean_broadcasts": round(fast_async["mean_broadcasts"], 4),
                "mean_causal_depth": round(fast_async["mean_causal_depth"], 4),
                "final_mis_size": sum(fast_async["final_states"].values()),
            }
        )
    return {
        "rows": rows,
        "async_rows": async_rows,
        "checkpoint_rows": checkpoint_rows,
        "series": series,
        "async_series": async_series,
        "speedup_at_max_n": rows[-1][3],
        "async_speedup_at_max_n": async_rows[-1][3],
        "python": sys.version.split()[0],
        "protocol": PROTOCOL,
        "average_degree": AVERAGE_DEGREE,
        "master_seed": master_seed,
    }


def _payload(results: Dict) -> Dict:
    return {
        "series": results["series"],
        "async_series": results["async_series"],
        "protocol": results["protocol"],
        "average_degree": results["average_degree"],
        "master_seed": results["master_seed"],
        "python": results["python"],
    }


def test_a5_distributed_network_backends(benchmark):
    results = run_once(benchmark, run_experiment)
    emit_table(
        "A5: per-change protocol time, dict vs fast network core (identical metrics)",
        ["n", "dict us/change", "fast us/change", "speedup"],
        [[n, f"{d:.1f}", f"{f:.1f}", f"{s:.1f}x"] for n, d, f, s in results["rows"]],
    )
    emit_table(
        "A5b: per-change asynchronous protocol time, dict vs fast event loop",
        ["n", "dict us/change", "fast us/change", "speedup"],
        [[n, f"{d:.1f}", f"{f:.1f}", f"{s:.1f}x"] for n, d, f, s in results["async_rows"]],
    )
    emit_table(
        "A5c: checkpoint snapshot+restore roundtrip (buffered; per-change "
        "overhead at a 1k-change checkpoint cadence)",
        ["n", "dict us/ckpt", "fast us/ckpt", "dict us/change@1k", "fast us/change@1k"],
        [
            [n, f"{d:.0f}", f"{f:.0f}", f"{d / 1000:.2f}", f"{f / 1000:.2f}"]
            for n, d, f in results["checkpoint_rows"]
        ],
    )
    emit(
        "A5: id-interned network core",
        [
            {
                "row": f"fast-network speedup per change at n={SIZES[-1]}",
                "paper": f">= {TARGET_SPEEDUP_AT_MAX_N}x (acceptance bar)",
                "measured": f"{results['speedup_at_max_n']:.1f}x",
                "verdict": "pass"
                if results["speedup_at_max_n"] >= TARGET_SPEEDUP_AT_MAX_N
                else "CHECK",
            },
            {
                "row": f"fast async speedup per change at n={SIZES[-1]}",
                "paper": f">= {TARGET_SPEEDUP_AT_MAX_N}x (acceptance bar)",
                "measured": f"{results['async_speedup_at_max_n']:.1f}x",
                "verdict": "pass"
                if results["async_speedup_at_max_n"] >= TARGET_SPEEDUP_AT_MAX_N
                else "CHECK",
            },
            {
                "row": "identical outputs / broadcasts / rounds / adjustments per size",
                "paper": "exact",
                "measured": "exact (asserted)",
                "verdict": "pass",
            },
        ],
    )
    emit_json("a5_distributed", _payload(results))
    # The 10x bar is reported in the claim table (and held by the recorded
    # trajectory points); the hard assert uses a lower floor so a noisy
    # shared CI runner cannot fail the nightly on timing jitter alone.
    assert results["speedup_at_max_n"] >= 5.0
    assert results["async_speedup_at_max_n"] >= 5.0
    speedups = [row[3] for row in results["rows"]]
    assert speedups[-1] > speedups[0]


if __name__ == "__main__":
    outcome = run_experiment()
    emit_json("a5_distributed", _payload(outcome))
    for row in outcome["rows"]:
        print(row)
    for row in outcome["async_rows"]:
        print(row)
    for row in outcome["checkpoint_rows"]:
        print(row)
